import csv
import dataclasses
import hashlib
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import l0path.decomp as decomp
from l0path import (
    InfeasiblePair,
    InputError,
    Instance,
    NotDiagonallyDominant,
    NumericalError,
    RunConfig,
    SegmentNotPD,
    TemplateMismatch,
    assemble_psi,
    default_relaxation,
    enumerate_supports,
    gen_lattice2d,
    gen_signal1d,
    gen_tridiagonal,
    h_eval,
    path_cover,
    run,
    solve,
    subgradient,
    support_graph,
    to_tridiagonal,
    upper_bound,
)
from l0path.fenchel import f_star, f_star_subgradient
from l0path.tridiag import TridiagProblem

from conftest import make_instance, permute, random_dd_instance, record_duals, rng_for

QUOTED_ALPHAS = [0.0, -1.0, -1.99, -2.97, -3.94, -4.90, -5.85, -6.79, -7.72]


def example_relaxation(example_instance):
    return default_relaxation(example_instance)


def random_duals(rng, r, scale=2.0):
    return rng.uniform(-scale, scale, (len(r.relaxed), 3))


# Reference oracles: the per-term loops that assemble_psi and subgradient
# replace, and h_eval solving each segment on a copy of its own template.
# The array forms must agree with them bitwise.


def assemble_psi_loop(r, duals):
    a_psi = r.instance.a[r.pi]
    c_psi = r.instance.c[r.pi]
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
    x_pos = np.zeros(r.instance.n)
    z_pos = np.zeros(r.instance.n)
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
    xbar = np.zeros(r.instance.n)
    zbar = np.zeros(r.instance.n)
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


def test_relaxation_arrays_are_read_only_copies(monkeypatch):
    inst = gen_lattice2d(4, 5, 0.3, 0.1, 0)
    orderings = []

    def recording_cover(g):
        orderings.append(path_cover(g))
        return orderings[-1]

    monkeypatch.setattr(decomp, "path_cover", recording_cover)
    r = decomp.build_relaxation(inst)
    arrays = [f.name for f in dataclasses.fields(r) if isinstance(getattr(r, f.name), np.ndarray)]
    assert len(arrays) == 8
    for name in arrays:
        assert not getattr(r, name).flags.writeable, name
    # the relaxation keeps its own permutation, not the ordering's
    (ordering,) = orderings
    want = ordering.pi.copy()
    ordering.pi[:] = ordering.pi[::-1]
    assert np.array_equal(r.pi, want)


def test_build_relaxation_template_mismatch_is_numerical(monkeypatch, example_instance):
    # the split and the template both read validate's D and the support
    # graph, so only a cover whose ordering does not put a retained edge on
    # consecutive positions, here (0, 1) at positions 0 and 2, breaks them apart
    ordering = path_cover(support_graph(example_instance))
    assert ordering.pi.tolist() == [0, 1, 2, 3] and ordering.retained[0]
    monkeypatch.setattr(decomp, "path_cover", lambda g: dataclasses.replace(ordering, pi=np.array([0, 2, 1, 3])))
    with pytest.raises(TemplateMismatch) as info:
        decomp.build_relaxation(example_instance)
    assert isinstance(info.value, NumericalError)


def test_default_relaxation_builds_the_support_graph_once(monkeypatch):
    # the cover's mask and the relaxation's terms index one graph object
    graphs, covered = [], []

    def recording_graph(inst):
        graphs.append(support_graph(inst))
        return graphs[-1]

    def recording_cover(g):
        covered.append(g)
        return path_cover(g)

    monkeypatch.setattr(decomp, "support_graph", recording_graph)
    monkeypatch.setattr(decomp, "path_cover", recording_cover)
    r = default_relaxation(gen_lattice2d(4, 5, 0.3, 0.1, 0))
    assert len(graphs) == 1 and len(covered) == 1 and covered[0] is graphs[0]
    assert r.rel_w.size == graphs[0].w.size - np.count_nonzero(r.off)


def test_default_relaxation_refuses_a_non_dominant_instance_before_the_cover(monkeypatch):
    def no_cover(g):
        raise AssertionError("path_cover ran on a non-dominant instance")

    monkeypatch.setattr(decomp, "path_cover", no_cover)
    inst = make_instance([1.0] * 3, [-1.0] * 3, [(0, 0, 0.5), (0, 1, -1.0), (1, 1, 2.0), (1, 2, 0.5), (2, 2, 1.0)])
    with pytest.raises(NotDiagonallyDominant) as info:
        default_relaxation(inst)
    assert info.value.index == 0


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


def _duals(extra_rows, cols):
    return lambda inst, r: np.zeros((r.rel_w.size + extra_rows, cols))


def _point(extra):
    return lambda inst, r: np.zeros(inst.n + extra)


def _ragged_point(inst, r):
    return [0.0] * (inst.n - 1) + [[0.0, 1.0]]


@pytest.mark.parametrize(
    "call, args",
    [
        (h_eval, (_duals(0, 2),)),
        (h_eval, (_duals(1, 3),)),
        (assemble_psi, (_duals(0, 2),)),
        (assemble_psi, (_duals(-1, 3),)),
        (subgradient, (_duals(0, 2), _point(0), _point(0))),
        (subgradient, (_duals(1, 3), _point(0), _point(0))),
        (subgradient, (_duals(0, 3), _point(1), _point(0))),
        (subgradient, (_duals(0, 3), _point(0), _point(-1))),
        (upper_bound, (_point(-1), _point(0))),
        (upper_bound, (_point(0), _point(1))),
        (upper_bound, (_point(1), _point(1))),
        (Instance.objective, (_point(-1), _point(0))),
        (Instance.objective, (_point(1), _point(1))),
        (Instance.objective, (lambda inst, r: np.zeros((inst.n, 1)), _point(0))),
        # ragged lists have no shape: numpy's ValueError leaked out of these
        (h_eval, (lambda inst, r: [[0.0] * 3] * (r.rel_w.size - 1) + [[0.0]],)),
        (subgradient, (_duals(0, 3), _ragged_point, _point(0))),
        (upper_bound, (_ragged_point, _point(0))),
    ],
    ids=[
        "h_eval-cols", "h_eval-rows", "assemble_psi-cols", "assemble_psi-rows",
        "subgradient-cols", "subgradient-rows", "subgradient-x", "subgradient-z",
        "upper_bound-x", "upper_bound-z", "upper_bound-both",
        "objective-x", "objective-both", "objective-2d",
        "h_eval-ragged", "subgradient-ragged-x", "upper_bound-ragged-x",
    ],
)
def test_wrongly_shaped_inputs_are_input_errors(call, args):
    inst = gen_lattice2d(4, 4, 0.3, 0.1, 0)
    r = default_relaxation(inst)
    first = inst if call in (upper_bound, Instance.objective) else r
    with pytest.raises(InputError, match="must have shape"):
        call(first, *(make(inst, r) for make in args))


# SHA-256 of the space-separated float.hex of every record's h over 20
# harmonic iterations, recorded before the relaxation took the cover's edge
# mask; random-dd-12 was re-recorded when the dual step stopped scaling
# with the term weights (every lattice weight is 2, so 20x20 kept its
# bits). h uses no BLAS call (f_star on Python floats, ufunc.at, the C
# segment kernel, a Python sum), so its bits do not depend on the BLAS
# build; the upper bound goes through `@` and is not pinned. A change to
# the ascent re-records these and says so.
H_TRAJECTORY_DIGESTS = {
    "lattice-20x20": "ec13c979cb9e7e1991ca569d7bacde5204117802479a8746857b26adfdff3e15",
    "random-dd-12": "ff1ed7f0b2712f19c58493865124843b0ddd3be98848ea8e0b7a5dd9388631a2",
}


@pytest.mark.parametrize("name", H_TRAJECTORY_DIGESTS)
def test_dual_trajectory_keeps_its_bits(name):
    inst = {
        "lattice-20x20": lambda: gen_lattice2d(20, 20, 0.3, 0.1, 0),
        "random-dd-12": lambda: random_dd_instance(np.random.Generator(np.random.Philox(key=0)), 12, 0.4),
    }[name]()
    res = run(inst, default_relaxation(inst), RunConfig("harmonic", eps=1e-12, max_iter=20))
    assert res.iterations == 20
    digest = hashlib.sha256(" ".join(float(rec.h).hex() for rec in res.records).encode()).hexdigest()
    assert digest == H_TRAJECTORY_DIGESTS[name]


@pytest.mark.parametrize("schedule", ["harmonic", "geometric"])
def test_first_step_divides_each_term_by_half_its_weight(schedule, monkeypatch):
    inst = random_dd_instance(np.random.Generator(np.random.Philox(key=0)), 12, 0.4)
    r = default_relaxation(inst)
    assert np.unique(r.rel_w).size > 1
    zeros = np.zeros((r.rel_w.size, 3))
    _, xbar, zbar = h_eval(r, zeros)
    want = subgradient(r, zeros, xbar, zbar) / (0.5 * r.rel_w)[:, None]
    if schedule == "geometric":
        want = want / np.linalg.norm(want)
    points = record_duals(monkeypatch)
    run(inst, r, RunConfig(schedule, eps=1e-12, max_iter=2))
    assert len(points) == 2
    # the first step length is 1 under both schedules (1/1 and
    # GEOMETRIC_RATIO^0), and the first point is zero
    assert np.array_equal(points[1], want)


def test_weighted_instances_certify_in_few_iterations():
    # with steps proportional to the weights, 25 of these 30 stopped on
    # "gap" within 300 iterations, at a median of 45.5
    results = []
    for key in range(30):
        inst = random_dd_instance(np.random.Generator(np.random.Philox(key=key)), 12, 0.4)
        results.append(run(inst, default_relaxation(inst), RunConfig("harmonic", eps=0.05, max_iter=300)))
    assert sum(res.reason == "gap" for res in results) >= 28
    assert np.median([res.iterations for res in results]) <= 10


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
    a_ord = r.instance.a[r.pi]
    assert a_psi[1] - a_ord[1] == a_psi[3] - a_ord[3]


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
    got_points = record_duals(monkeypatch)
    got = run(inst, r, config)
    monkeypatch.setattr(decomp, "assemble_psi", assemble_psi_loop)
    monkeypatch.setattr(decomp, "subgradient", subgradient_loop)
    want_points = record_duals(monkeypatch, h_eval_loop)
    want = run(inst, r, config)
    assert r.relaxed and got.iterations > 1
    assert (got.iterations, got.reason) == (want.iterations, want.reason)
    assert len(got_points) == len(want_points) == got.iterations

    def fields(rec):
        return np.array([rec.k, rec.h, rec.lower, rec.upper, rec.gap, rec.step]).tobytes()

    for a, b in zip(got.records, want.records):
        assert fields(a) == fields(b)
    for a, b in zip(got_points, want_points):
        assert a.tobytes() == b.tobytes()
    assert got.x.tobytes() == want.x.tobytes()
    assert got.z.tobytes() == want.z.tobytes()


def test_run_memory_does_not_grow_with_iterations():
    inst = gen_lattice2d(20, 20, 0.3, 0.1, 0)
    r = default_relaxation(inst)

    def peak(max_iter):
        tracemalloc.start()
        try:
            res = run(inst, r, RunConfig(schedule="harmonic", eps=1e-15, max_iter=max_iter))
            return tracemalloc.get_traced_memory()[1], res
        finally:
            tracemalloc.stop()

    peak_short, short = peak(10)
    peak_long, long = peak(80)
    assert (short.iterations, long.iterations) == (10, 80)
    # 70 more iterations keep 70 more scalar records and at most 70 more
    # memo keys of n/8 bytes, about 30 KB in all; keeping one dual array
    # per iteration would add 70 * 370 relaxed terms * 3 * 8 bytes, 0.6 MB
    assert peak_long - peak_short < 128 * 1024


@pytest.mark.parametrize(
    "inst",
    [gen_lattice2d(6, 6, 0.3, 0.1, 0), random_dd_instance(rng_for(11), 12)],
    ids=["lattice", "random_dd"],
)
def test_run_refits_each_support_once(monkeypatch, inst):
    proposed, refit = [], []
    h_eval, fixed_z_qp = decomp.h_eval, decomp.fixed_z_qp

    def recording_h_eval(r, duals):
        out = h_eval(r, duals)
        proposed.append(out[2].tolist())
        return out

    def recording_fixed_z_qp(instance, z):
        refit.append(np.asarray(z).tolist())
        return fixed_z_qp(instance, z)

    monkeypatch.setattr(decomp, "h_eval", recording_h_eval)
    monkeypatch.setattr(decomp, "fixed_z_qp", recording_fixed_z_qp)
    res = run(inst, default_relaxation(inst), RunConfig(schedule="harmonic", eps=1e-15, max_iter=60))
    distinct = list(dict.fromkeys(map(tuple, proposed)))
    # the memo is exercised: some support repeats, and more than one is seen
    assert len(proposed) == res.iterations > len(distinct) > 1
    assert refit == [list(z) for z in distinct]


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


def test_run_reproduces_reference_trajectory(example_instance, monkeypatch):
    r = example_relaxation(example_instance)
    points = record_duals(monkeypatch)
    res = run(example_instance, r, RunConfig(schedule="geometric", eps=1e-4))
    assert res.reason == "gap"
    assert res.iterations <= 12
    assert res.gap <= 1e-4
    assert len(points) == res.iterations
    alphas = [p[0, 0] for p in points]
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
    with pytest.raises(InputError):
        run(example_instance, r, RunConfig(max_iter=2.5))
    # operator.index takes bools: True ran one iteration
    with pytest.raises(InputError, match="max_iter must be an integer"):
        run(example_instance, r, RunConfig(max_iter=True))
    # numpy integers are integers
    assert run(example_instance, r, RunConfig(eps=1e-15, max_iter=np.int64(3))).iterations == 3


@pytest.mark.parametrize(
    "eps",
    # True ran as 1.0 and stopped on "gap" after one iteration; None, "0.1"
    # and [0.1] raised TypeError, and 1j > 0 does too
    [True, np.True_, None, "0.1", [0.1], 1j],
    ids=["bool", "numpy_bool", "none", "str", "list", "complex"],
)
def test_run_refuses_an_eps_that_is_not_real(example_instance, eps, monkeypatch):
    points = record_duals(monkeypatch)
    with pytest.raises(InputError, match="eps must be a real number, not "):
        run(example_instance, example_relaxation(example_instance), RunConfig(eps=eps))
    assert points == []


_LATTICE = gen_lattice2d(6, 6, 0.3, 0.1, 1)


@pytest.mark.parametrize(
    "built_from, solved",
    [
        # same size, other data: the bounds crossed (lower -73.19 above
        # upper -203.94) and the run still stopped on "gap"
        (gen_lattice2d(6, 6, 0.3, 0.1, 0), gen_lattice2d(6, 6, 0.3, 0.1, 1)),
        # other size: numpy's matmul ValueError after the first dual value
        (gen_lattice2d(3, 4, 0.3, 0.1, 0), gen_lattice2d(3, 3, 0.3, 0.1, 0)),
        # same a and c, half the Q: lower -228.62 above upper -417.10, and
        # the run stopped on "gap" after one iteration
        (_LATTICE, dataclasses.replace(_LATTICE, qv=0.5 * _LATTICE.qv)),
        # equal data, another object: a relaxation answers for the one
        # instance object it was split from
        (_LATTICE, dataclasses.replace(_LATTICE)),
    ],
    ids=["same-size", "other-size", "other-q", "equal-copy"],
)
def test_run_refuses_a_relaxation_of_another_instance(built_from, solved, monkeypatch):
    points = record_duals(monkeypatch)
    with pytest.raises(InputError, match="not built from this instance"):
        run(solved, default_relaxation(built_from), RunConfig("harmonic", eps=0.01, max_iter=300))
    assert points == []


def test_default_relaxation_keeps_its_instance(example_instance):
    assert default_relaxation(example_instance).instance is example_instance


def test_crossed_bounds_raise(example_instance, monkeypatch):
    # a dual value lifted 10 above the optimum -14.74: the clamp read the
    # crossing as gap 0 and the run stopped on "gap"
    true_h_eval = decomp.h_eval

    def lifted(r, duals):
        h, xbar, zbar = true_h_eval(r, duals)
        return h + 10.0, xbar, zbar

    monkeypatch.setattr(decomp, "h_eval", lifted)
    with pytest.raises(NumericalError, match="exceeds the upper bound"):
        run(example_instance, example_relaxation(example_instance), RunConfig())


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
