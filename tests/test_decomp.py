import csv
import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import l0path.decomp as decomp
from l0path import (
    DDForm,
    InfeasiblePair,
    InputError,
    NumericalError,
    RunConfig,
    SegmentNotPD,
    TemplateMismatch,
    assemble_psi,
    build_relaxation,
    default_relaxation,
    enumerate_supports,
    gen_lattice2d,
    gen_signal1d,
    gen_tridiagonal,
    h_eval,
    permute,
    run,
    solve,
    subgradient,
    support_graph,
    to_tridiagonal,
    upper_bound,
    validate,
)
from l0path._kernels import _segments_py
from l0path.fenchel import f_star, f_star_subgradient
from l0path.tridiag import TridiagProblem

from conftest import make_instance, random_dd_instance, rng_for

QUOTED_ALPHAS = [0.0, -1.0, -1.99, -2.97, -3.94, -4.90, -5.85, -6.79, -7.72]


def example_relaxation(example_instance):
    return default_relaxation(example_instance)


def random_duals(rng, r, scale=2.0):
    return rng.uniform(-scale, scale, (len(r.relaxed), 3))


# Reference oracles: the per-term loops that assemble_psi and subgradient
# replace, and h_eval solving each segment on a copy of its own template.
# The array forms must agree with them bitwise.


def assemble_psi_loop(r, duals):
    a_psi = r.a_ord.copy()
    c_psi = r.c_ord.copy()
    for t, term in enumerate(r.relaxed):
        alpha, b1, b2 = duals[t]
        half_w = 0.5 * term.w
        a_psi[term.i] -= half_w * b1
        a_psi[term.j] -= half_w * b2
        c_psi[term.i] += half_w * alpha
        c_psi[term.j] += half_w * term.sign * alpha
    return a_psi, c_psi


def subgradient_loop(r, duals, xbar, zbar):
    rho = np.zeros((len(r.relaxed), 3))
    for t, term in enumerate(r.relaxed):
        xi = f_star_subgradient(*duals[t])
        p, q = r.pi[term.i], r.pi[term.j]
        half_w = 0.5 * term.w
        rho[t, 0] = half_w * (-xi[0] + (xbar[p] + term.sign * xbar[q]))
        rho[t, 1] = half_w * (-xi[1] - zbar[p])
        rho[t, 2] = half_w * (-xi[2] - zbar[q])
    return rho


def h_eval_loop(r, duals):
    a_psi, c_psi = decomp.assemble_psi(r, duals)
    conj = 0.0
    for t, term in enumerate(r.relaxed):
        alpha, b1, b2 = (float(v) for v in duals[t])
        conj += term.w * f_star(alpha, b1, b2)
    h = -0.5 * conj
    x_pos = np.zeros(r.n)
    z_pos = np.zeros(r.n)
    for s, e in r.segments:
        sol = solve(
            TridiagProblem(
                m=e - s,
                a=a_psi[s:e],
                c=c_psi[s:e],
                diag=r.diag[s:e].copy(),
                off=r.off[s : e - 1].copy(),
            )
        )
        h += sol.objective
        x_pos[s:e] = sol.x
        z_pos[s:e] = sol.z
    xbar = np.zeros(r.n)
    zbar = np.zeros(r.n)
    xbar[r.pi] = x_pos
    zbar[r.pi] = z_pos
    return float(h), xbar, zbar


_dual_value = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, -1.0])


@st.composite
def _dual_row(draw):
    # betas are drawn onto the branch boundaries of f_star_subgradient:
    # beta == alpha^2/4, beta1 == beta2, and (from the range) both negative
    alpha = draw(_dual_value)
    top = 0.25 * (alpha * alpha)
    beta1 = draw(_dual_value | st.just(top))
    beta2 = draw(_dual_value | st.just(top) | st.just(beta1))
    return [alpha, beta1, beta2]


def test_build_relaxation_example(example_instance):
    r = example_relaxation(example_instance)
    assert r.pi.tolist() == [0, 1, 2, 3]
    assert r.segments == ((0, 3), (3, 4))
    assert np.allclose(r.diag, [3.0, 5.2, 3.0, 1.2])
    assert np.allclose(r.off, [-1.5, -1.0, 0.0])
    assert not r.diag.flags.writeable and not r.off.flags.writeable
    assert [(t.i, t.j, t.w, t.sign) for t in r.relaxed] == [(1, 3, 0.8, -1)]
    assert [(t.i, t.j) for t in r.retained] == [(0, 1), (1, 2)]


def test_build_relaxation_diagonal_instance():
    inst = make_instance(
        [1.0] * 3, [0.0] * 3, [(0, 0, 2.0), (1, 1, 1.0), (2, 2, 4.0)]
    )
    r = default_relaxation(inst)
    assert r.segments == ((0, 1), (1, 2), (2, 3))
    assert r.relaxed == ()


def test_build_relaxation_input_checks(example_instance):
    dd = validate(example_instance)
    with pytest.raises(InputError):
        build_relaxation(example_instance, dd, np.array([0, 0, 1, 2]), [])
    with pytest.raises(InputError):
        # (1, 3) is not consecutive under the identity ordering
        build_relaxation(example_instance, dd, np.arange(4), [(1, 3)])
    with pytest.raises(InputError):
        build_relaxation(example_instance, dd, np.arange(4), [(0, 2)])


def test_build_relaxation_template_mismatch_is_numerical(example_instance, monkeypatch):
    dd = validate(example_instance)
    true_quad = DDForm.quad
    monkeypatch.setattr(DDForm, "quad", lambda self, x: true_quad(self, x) + 1.0)
    with pytest.raises(TemplateMismatch) as info:
        build_relaxation(example_instance, dd, np.arange(4), [(0, 1), (1, 2)])
    assert isinstance(info.value, NumericalError)


def test_singular_segment_is_segment_not_pd():
    # diagonally dominant with D = 0, so the retained 2x2 template is singular
    inst = make_instance([0.0, 0.0], [1.0, 1.0], [(0, 0, 1.0), (0, 1, -1.0), (1, 1, 1.0)])
    with pytest.raises(SegmentNotPD) as info:
        default_relaxation(inst)
    assert (info.value.start, info.value.end) == (0, 2)
    assert isinstance(info.value, NumericalError)


def test_build_relaxation_random_lattice_identity():
    # the internal form-reconstruction check runs on every build
    for seed in range(4):
        inst = gen_lattice2d(3, 4, 0.4, 0.1, seed)
        r = default_relaxation(inst)
        assert sum(e - s for s, e in r.segments) == inst.n


def test_assemble_psi_zero_duals(example_instance):
    r = example_relaxation(example_instance)
    a_psi, c_psi = assemble_psi(r, np.zeros((1, 3)))
    assert np.array_equal(a_psi, example_instance.a)
    assert np.array_equal(c_psi, example_instance.c)


def test_assemble_psi_pinned(example_instance):
    r = example_relaxation(example_instance)
    a_psi, c_psi = assemble_psi(r, np.array([[-1.0, 0.25, 0.0]]))
    assert np.allclose(a_psi, [2.0, 1.9, 2.0, 2.0])
    assert np.allclose(c_psi, [-1.3, -2.9, 4.6, -7.4])


def test_assemble_psi_symmetric_beta_shift(example_instance):
    r = example_relaxation(example_instance)
    a_psi, _ = assemble_psi(r, np.array([[0.0, 1.0, 1.0]]))
    assert a_psi[1] - r.a_ord[1] == a_psi[3] - r.a_ord[3]


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    data=st.data(),
)
def test_array_forms_match_scalar_loops(seed, n, density, data):
    r = default_relaxation(random_dd_instance(rng_for(seed), n, density))
    assert list(zip(r.rel_i.tolist(), r.rel_j.tolist(), r.rel_w.tolist(), r.rel_sign.tolist())) == [
        (t.i, t.j, t.w, t.sign) for t in r.relaxed
    ]
    rows = data.draw(st.lists(_dual_row(), min_size=len(r.relaxed), max_size=len(r.relaxed)))
    duals = np.array(rows, dtype=np.float64).reshape(-1, 3)
    for got, want in zip(assemble_psi(r, duals), assemble_psi_loop(r, duals)):
        assert got.tobytes() == want.tobytes()
    h, xbar, zbar = h_eval(r, duals)
    h_w, xbar_w, zbar_w = h_eval_loop(r, duals)
    assert np.array([h]).tobytes() == np.array([h_w]).tobytes()
    assert xbar.tobytes() == xbar_w.tobytes() and zbar.tobytes() == zbar_w.tobytes()
    got = subgradient(r, duals, xbar, zbar)
    assert got.tobytes() == subgradient_loop(r, duals, xbar, zbar).tobytes()


def test_run_matches_scalar_loops(monkeypatch):
    inst = gen_lattice2d(6, 6, 0.3, 0.1, 0)
    r = default_relaxation(inst)
    config = RunConfig(schedule="harmonic", eps=1e-3, max_iter=300)
    got = run(inst, r, config)
    monkeypatch.setattr(decomp, "assemble_psi", assemble_psi_loop)
    monkeypatch.setattr(decomp, "subgradient", subgradient_loop)
    monkeypatch.setattr(decomp, "h_eval", h_eval_loop)
    want = run(inst, r, config)
    assert r.relaxed and got.iterations > 1
    assert (got.iterations, got.reason) == (want.iterations, want.reason)

    def fields(rec):
        return np.array([rec.k, rec.h, rec.lower, rec.upper, rec.gap, rec.step]).tobytes()

    for a, b in zip(got.records, want.records):
        assert fields(a) == fields(b)
        assert a.duals.tobytes() == b.duals.tobytes()
    assert got.x.tobytes() == want.x.tobytes()
    assert got.z.tobytes() == want.z.tobytes()


def test_h_eval_numpy_segments_match_loop(monkeypatch):
    # the no-compiler fallback: h_eval on the numpy segment kernel
    monkeypatch.setattr(decomp, "segments_kernel", _segments_py)
    rng = rng_for(63)
    insts = [random_dd_instance(rng, int(rng.integers(1, 12)), 0.5) for _ in range(6)]
    for inst in insts + [gen_lattice2d(5, 6, 0.3, 0.1, 1)]:
        r = default_relaxation(inst)
        for _ in range(3):
            duals = random_duals(rng, r)
            h, xbar, zbar = h_eval(r, duals)
            h_w, xbar_w, zbar_w = h_eval_loop(r, duals)
            assert zbar.tobytes() == zbar_w.tobytes()
            assert abs(h - h_w) <= 1e-12 * max(1.0, abs(h_w))
            assert np.all(np.abs(xbar - xbar_w) <= 1e-12 * np.maximum(1.0, np.abs(xbar_w)))


def test_h_eval_segment_not_pd():
    r = default_relaxation(gen_lattice2d(6, 6, 0.3, 0.1, 0))
    assert len(r.segments) == 3
    s, e = r.segments[1]
    diag = r.diag.copy()
    diag[s:e] = 0.0
    with pytest.raises(SegmentNotPD) as info:
        h_eval(dataclasses.replace(r, diag=diag), np.zeros((r.rel_w.size, 3)))
    assert (info.value.start, info.value.end) == (s, e)
    assert isinstance(info.value, NumericalError)


def test_solve_path_builds_no_terms(monkeypatch):
    # the Term tuples are views for the tracer and the tests only: building
    # the relaxation, the ascent and the segment error all run on arrays
    import l0path.instance as instance

    def boom(*args):
        raise AssertionError("a Term tuple was built on the solve path")

    monkeypatch.setattr(instance, "_terms", boom)
    monkeypatch.setattr(decomp, "_terms", boom)
    inst = gen_lattice2d(6, 6, 0.3, 0.1, 0)
    r = default_relaxation(inst)
    assert run(inst, r, RunConfig("harmonic", eps=1e-3, max_iter=50)).iterations >= 1
    s, e = r.bounds[1:3].tolist()
    diag = r.diag.copy()
    diag[s:e] = 0.0
    with pytest.raises(SegmentNotPD) as info:
        h_eval(dataclasses.replace(r, diag=diag), np.zeros((r.rel_w.size, 3)))
    assert (info.value.start, info.value.end) == (s, e)


def test_h_eval_zero_duals(example_instance):
    r = example_relaxation(example_instance)
    h, xbar, zbar = h_eval(r, np.zeros((1, 3)))
    assert abs(h - (-24.876666666666665)) <= 1e-9
    assert np.allclose(xbar, [0.0, 0.0, -4.6 / 3.0, 6.5])
    assert zbar.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_h_eval_quoted_point(example_instance):
    r = example_relaxation(example_instance)
    h, xbar, _ = h_eval(r, np.array([[-7.72, 0.25, 0.0]]))
    assert abs(h - (-14.73)) <= 0.01
    assert abs(xbar[3] - 3.9267) <= 1e-3


def test_h_is_lower_bound():
    rng = rng_for(60)
    for _ in range(12):
        inst = random_dd_instance(rng, int(rng.integers(2, 11)))
        best = enumerate_supports(inst).value
        r = default_relaxation(inst)
        for _ in range(4):
            h, _, _ = h_eval(r, random_duals(rng, r))
            assert h <= best + 1e-8


def test_h_concave():
    rng = rng_for(61)
    inst = random_dd_instance(rng, 9)
    r = default_relaxation(inst)
    if not r.relaxed:
        pytest.skip("cover kept everything")
    for _ in range(25):
        p, q = random_duals(rng, r), random_duals(rng, r)
        hp, _, _ = h_eval(r, p)
        hq, _, _ = h_eval(r, q)
        hm, _, _ = h_eval(r, 0.5 * (p + q))
        assert hm >= 0.5 * (hp + hq) - 1e-9


def test_subgradient_first_step_is_exact(example_instance):
    r = example_relaxation(example_instance)
    duals = np.zeros((1, 3))
    h, xbar, zbar = h_eval(r, duals)
    rho = subgradient(r, duals, xbar, zbar)
    assert np.allclose(rho, [[-2.6, 0.0, 0.0]])
    step = rho / np.linalg.norm(rho)
    assert np.allclose(duals + step, [[-1.0, 0.0, 0.0]])


def test_subgradient_zero_at_rest():
    inst = make_instance(
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],  # positive linear cost, nothing activates
        [(0, 0, 2.0), (0, 2, -0.5), (1, 1, 1.0), (2, 2, 2.0)],
    )
    r = default_relaxation(inst)
    duals = np.zeros((len(r.relaxed), 3))
    h, xbar, zbar = h_eval(r, duals)
    assert not xbar.any() and not zbar.any()
    assert not subgradient(r, duals, xbar, zbar).any()


def test_supergradient_inequality():
    rng = rng_for(62)
    inst = random_dd_instance(rng, 10)
    r = default_relaxation(inst)
    if not r.relaxed:
        pytest.skip("cover kept everything")
    for _ in range(40):
        p, q = random_duals(rng, r), random_duals(rng, r)
        hp, _, _ = h_eval(r, p)
        hq, xq, zq = h_eval(r, q)
        rho = subgradient(r, q, xq, zq)
        assert hp <= hq + float(np.sum(rho * (p - q))) + 1e-9


def test_upper_bound_values(example_instance):
    assert upper_bound(example_instance, np.zeros(4), np.zeros(4)) == 0.0
    res = enumerate_supports(example_instance)
    assert abs(upper_bound(example_instance, res.x, res.z) - res.value) <= 1e-12
    with pytest.raises(InfeasiblePair):
        upper_bound(example_instance, np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4))


def test_run_reproduces_reference_trajectory(example_instance):
    r = example_relaxation(example_instance)
    res = run(example_instance, r, RunConfig(schedule="geometric", ratio=1.01, eps=1e-4))
    assert res.reason == "gap"
    assert res.iterations <= 12
    assert res.gap <= 1e-4
    alphas = [rec.duals[0, 0] for rec in res.records]
    for got, want in zip(alphas, QUOTED_ALPHAS):
        assert abs(got - want) <= 0.05
    assert abs(res.records[0].h - (-24.876666666666665)) <= 0.02
    assert res.z.tolist() == [0, 0, 1, 1]


def test_run_monotone_bounds_and_sandwich(example_instance):
    res = run(
        example_instance,
        example_relaxation(example_instance),
        RunConfig(schedule="harmonic", eps=1e-6, max_iter=60),
    )
    best = enumerate_supports(example_instance).value
    lows = [rec.lower for rec in res.records]
    ups = [rec.upper for rec in res.records]
    assert all(a <= b + 1e-12 for a, b in zip(lows, lows[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(ups, ups[1:]))
    for rec in res.records:
        assert rec.lower - 1e-8 <= best <= rec.upper + 1e-8
        assert rec.lower <= rec.upper + 1e-9


def test_run_diagonal_converges_immediately():
    inst = make_instance(
        [1.0, 1.0], [-4.0, 1.0], [(0, 0, 2.0), (1, 1, 2.0)]
    )
    res = run(inst, default_relaxation(inst), RunConfig())
    assert res.iterations == 1
    assert res.gap == 0.0
    assert res.reason == "gap"
    assert res.lower == res.upper == -3.0


def test_run_tridiagonal_matches_exact_solver():
    inst = gen_tridiagonal(40, seed=8)
    res = run(inst, default_relaxation(inst), RunConfig())
    sp = solve(to_tridiagonal(inst))
    assert res.iterations == 1
    assert abs(res.lower - sp.objective) <= 1e-9
    assert abs(res.upper - sp.objective) <= 1e-9


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    signal=st.booleans(),
    perm_seed=st.integers(0, 2**32 - 1),
)
def test_run_recovers_permuted_path(n, seed, signal, perm_seed):
    assume(n >= 2 or not signal)
    inst = gen_signal1d(n, 0.3, 0.1, seed) if signal else gen_tridiagonal(n, seed)
    moved = permute(inst, rng_for(perm_seed).permutation(n))
    r = default_relaxation(moved)
    assert len(r.retained) == n - 1
    assert r.relaxed == ()
    res = run(moved, r, RunConfig())
    assert res.reason == "gap"
    assert res.iterations == 1
    assert res.gap <= 1e-12
    exact = solve(to_tridiagonal(inst)).objective
    tol = 1e-9 * max(1.0, abs(exact))
    assert abs(res.lower - exact) <= tol
    assert abs(res.upper - exact) <= tol
    if n <= 12:
        assert abs(enumerate_supports(moved).value - exact) <= tol


def test_generated_box_holds_the_optimum(caplog):
    # the range of y (0.265) is below the optimum's max |x| (0.494) here
    inst = gen_signal1d(3, 0.3, 0.1, seed=180)
    x = solve(to_tridiagonal(inst)).x
    assert np.max(np.abs(x)) <= inst.meta["M"]
    with caplog.at_level(logging.WARNING, logger="l0path.decomp"):
        run(inst, default_relaxation(inst), RunConfig())
    assert "big-M" not in caplog.text


def test_run_config_validation(example_instance):
    r = example_relaxation(example_instance)
    with pytest.raises(InputError):
        run(example_instance, r, RunConfig(schedule="momentum"))
    with pytest.raises(InputError):
        run(example_instance, r, RunConfig(eps=0.0))
    with pytest.raises(InputError):
        run(example_instance, r, RunConfig(max_iter=0))


def test_iteration_log_format(tmp_path, example_instance):
    from l0path import write_iteration_log

    res = run(example_instance, example_relaxation(example_instance), RunConfig())
    path = tmp_path / "log.csv"
    write_iteration_log(res.records, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "lower", "upper", "gap", "step", "h", "elapsed_ms"]
    assert len(rows) == len(res.records) + 1
    assert float(rows[1][1]) == res.records[0].lower
    assert float(rows[1][5]) == res.records[0].h
