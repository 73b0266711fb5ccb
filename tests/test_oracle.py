import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l0path import (
    Instance,
    RunConfig,
    SingularSupport,
    TooLarge,
    default_relaxation,
    enumerate_supports,
    fixed_z_qp,
    gen_lattice2d,
    gen_tridiagonal,
    permute,
    run,
    to_tridiagonal,
    solve,
)
from l0path import decomp
from l0path._kernels import _enumerate_py, enumerate_kernel

from conftest import make_instance, random_dd_instance, rng_for


def test_example_optimum(example_instance):
    res = enumerate_supports(example_instance)
    assert abs(res.value - (-14.736666666666665)) <= 1e-9
    assert res.z.tolist() == [0, 0, 1, 1]
    assert np.allclose(res.x, [0.0, 0.0, -4.6 / 3.0, 3.9])
    assert res.supports_enumerated == 16


def test_single_variable():
    inst = make_instance([1.0], [-4.0], [(0, 0, 2.0)])
    res = enumerate_supports(inst)
    assert res.value == -3.0
    assert res.z.tolist() == [1]


def test_fixed_z_empty_support(example_instance):
    x, value = fixed_z_qp(example_instance, np.zeros(4))
    assert value == 0.0
    assert not x.any()


def test_fixed_z_example_support(example_instance):
    x, value = fixed_z_qp(example_instance, np.array([0, 0, 1, 1]))
    assert np.allclose(x, [0.0, 0.0, -4.6 / 3.0, 3.9])
    assert abs(value - (-14.736666666666665)) <= 1e-9


def test_fixed_z_singular_support():
    # zero diagonal block is singular once selected
    inst = make_instance(
        [0.0, 0.0], [1.0, 1.0], [(0, 0, 0.0), (1, 1, 1.0)]
    )
    with pytest.raises(SingularSupport):
        fixed_z_qp(inst, np.array([1, 0]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    lattice=st.booleans(),
    size=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.1, 1.0),
)
def test_fixed_z_matches_dense_solve(lattice, size, seed, density):
    rng = rng_for(seed)
    if lattice:
        inst = gen_lattice2d(size, size, 0.3, 0.1, seed)
    else:
        inst = random_dd_instance(rng, size)
    z = (rng.uniform(size=inst.n) < density).astype(np.int64)
    sel = np.flatnonzero(z)
    x, value = fixed_z_qp(inst, z)
    assert not x[z == 0].any()
    if sel.size == 0:
        assert value == 0.0
        return
    xs = np.linalg.solve(inst.dense_q()[np.ix_(sel, sel)], -inst.c[sel])
    want = float(np.sum(inst.a[sel]) + 0.5 * inst.c[sel] @ xs)
    assert np.max(np.abs(x[sel] - xs)) <= 1e-10 * max(1.0, np.max(np.abs(xs)))
    assert abs(value - want) <= 1e-10 * max(1.0, abs(want))


def test_fixed_z_never_builds_dense_q(monkeypatch):
    inst = gen_lattice2d(100, 100, 0.3, 0.1, 0)

    def refuse(self):
        raise AssertionError("dense_q called")

    monkeypatch.setattr(Instance, "dense_q", refuse)
    z = np.ones(inst.n)
    x, value = fixed_z_qp(inst, z)
    want = inst.objective(x, z)
    assert abs(value - want) <= 1e-9 * abs(want)


def test_run_refits_supports_above_600(monkeypatch):
    inst = gen_lattice2d(30, 30, 0.3, 0.1, 0)
    sizes = []

    def counting(instance, z):
        sizes.append(int(np.count_nonzero(z)))
        return fixed_z_qp(instance, z)

    monkeypatch.setattr(decomp, "fixed_z_qp", counting)
    run(inst, default_relaxation(inst), RunConfig("harmonic", eps=1e-9, max_iter=3))
    assert sizes and sizes[0] > 600


def test_size_cap():
    rng = rng_for(20)
    inst = random_dd_instance(rng, 21)
    with pytest.raises(TooLarge):
        enumerate_supports(inst)


def test_matches_path_solver():
    for seed in range(25):
        inst = gen_tridiagonal(int(rng_for(seed).integers(1, 13)), seed)
        sp = solve(to_tridiagonal(inst))
        res = enumerate_supports(inst)
        scale = max(1.0, abs(res.value))
        assert abs(sp.objective - res.value) <= 1e-8 * scale


def test_value_permutation_invariant():
    rng = rng_for(21)
    inst = random_dd_instance(rng, 8)
    base = enumerate_supports(inst).value
    for _ in range(4):
        pi = rng.permutation(8)
        assert abs(enumerate_supports(permute(inst, pi)).value - base) <= 1e-9


def test_kernel_matches_python_fallback():
    rng = rng_for(22)
    for _ in range(5):
        inst = random_dd_instance(rng, 7)
        res = enumerate_supports(inst)
        value, mask, _ = _enumerate_py(
            inst.a, inst.c, np.ascontiguousarray(inst.dense_q())
        )
        assert abs(res.value - min(value, 0.0)) <= 1e-12
        if value < 0.0:
            bits = [(mask >> (inst.n - 1 - i)) & 1 for i in range(inst.n)]
            assert res.z.tolist() == bits
    # a singular coupling: every support holding both 0 and 1 is skipped
    a = np.full(3, 0.1)
    c = np.array([-1.0, -1.0, -3.0])
    q = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.5], [0.0, 0.5, 2.0]])
    fast, slow = enumerate_kernel(a, c, q), _enumerate_py(a, c, q)
    assert abs(fast[0] - slow[0]) <= 1e-12
    assert fast[1:] == slow[1:] and slow[2] == 2
