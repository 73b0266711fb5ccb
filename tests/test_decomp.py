import csv

import numpy as np
import pytest

from l0path import (
    DDForm,
    InfeasiblePair,
    InputError,
    NumericalError,
    RunConfig,
    TemplateMismatch,
    assemble_psi,
    build_relaxation,
    default_relaxation,
    enumerate_supports,
    gen_lattice2d,
    gen_tridiagonal,
    h_eval,
    run,
    solve,
    subgradient,
    support_graph,
    to_tridiagonal,
    upper_bound,
    validate,
)

from conftest import make_instance, random_dd_instance, rng_for

QUOTED_ALPHAS = [0.0, -1.0, -1.99, -2.97, -3.94, -4.90, -5.85, -6.79, -7.72]


def example_relaxation(example_instance):
    return default_relaxation(example_instance)


def random_duals(rng, r, scale=2.0):
    return rng.uniform(-scale, scale, (len(r.relaxed), 3))


def test_build_relaxation_example(example_instance):
    r = example_relaxation(example_instance)
    assert r.pi.tolist() == [0, 1, 2, 3]
    assert r.segments == ((0, 3), (3, 4))
    assert np.allclose(r.seg_diag[0], [3.0, 5.2, 3.0])
    assert np.allclose(r.seg_off[0], [-1.5, -1.0])
    assert np.allclose(r.seg_diag[1], [1.2])
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


def test_run_threads_deterministic():
    inst = gen_lattice2d(4, 4, 0.35, 0.1, seed=6)
    r = default_relaxation(inst)
    one = run(inst, r, RunConfig(schedule="harmonic", max_iter=25, eps=1e-9))
    two = run(inst, r, RunConfig(schedule="harmonic", max_iter=25, eps=1e-9, threads=3))
    assert one.iterations == two.iterations
    for ra, rb in zip(one.records, two.records):
        assert ra.lower == rb.lower
        assert ra.upper == rb.upper
        assert np.array_equal(ra.duals, rb.duals)


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
    assert rows[0] == ["k", "lower", "upper", "gap", "step", "elapsed_ms"]
    assert len(rows) == len(res.records) + 1
    assert float(rows[1][1]) == res.records[0].lower
