"""Acceptance checklist, one test per shipped guarantee (a1 .. a7).

Timed assertions assume warm kernels: importing l0path builds or loads the
compiled kernels, and the module fixture runs each solver once to pay the
first-call costs before the first test runs.
"""

import statistics
import time

import numpy as np
import pytest

from l0path.cover import (
    b2_subgraph_bipartite,
    b2_subgraph_general,
    break_cycles,
    make_ordering,
    path_cover,
)
from l0path.decomp import RunConfig, default_relaxation, h_eval, run
from l0path.fenchel import f_star
from l0path.instance import gen_lattice2d, gen_tridiagonal
from l0path.oracle import enumerate_supports
from l0path.tridiag import solve, to_tridiagonal

from conftest import EXAMPLE_A, EXAMPLE_C, EXAMPLE_Q, make_instance, random_dd_instance, rng_for
from test_cover import brute_force_pstar, exhaustive_b2, random_bipartite, random_graph
from test_fenchel import dual_value, f_star_bruteforce, persp, random_triple, subgradient_plane_holds

# dual trajectory of the worked four-variable instance, one alpha per
# iteration, frozen from an independent recomputation
REFERENCE_ALPHAS = [
    0.0,
    -1.0,
    -1.990099,
    -2.970395,
    -3.940985,
    -4.901966,
    -5.853431,
    -6.795476,
    -7.728195,
]


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    solve(to_tridiagonal(gen_tridiagonal(64, 0)))
    enumerate_supports(gen_tridiagonal(8, 0))
    inst = make_instance(EXAMPLE_A, EXAMPLE_C, EXAMPLE_Q)
    run(inst, default_relaxation(inst), RunConfig(max_iter=2))


def test_a1_path_solver_matches_enumeration():
    """200 random positive definite path instances, 1e-8 relative."""
    t0 = time.perf_counter()
    for k in range(200):
        inst = gen_tridiagonal(1 + k % 15, seed=k)
        sp = solve(to_tridiagonal(inst))
        ref = enumerate_supports(inst)
        scale = max(1.0, abs(ref.value))
        assert abs(sp.objective - ref.value) <= 1e-8 * scale
    assert time.perf_counter() - t0 < 10.0


def test_a2_reference_instance_reproduction():
    """Worked four-variable instance: optimum, first relaxation, ascent."""
    t0 = time.perf_counter()
    inst = make_instance(EXAMPLE_A, EXAMPLE_C, EXAMPLE_Q)

    ref = enumerate_supports(inst)
    assert abs(ref.value - (-14.74)) <= 0.01
    assert ref.z.tolist() == [0, 0, 1, 1]

    rel = default_relaxation(inst)
    h0, xbar0, _ = h_eval(rel, np.zeros((len(rel.relaxed), 3)))
    assert abs(h0 - (-24.88)) <= 0.02
    assert np.all(np.abs(xbar0 - np.array([0.0, 0.0, -1.53, 6.50])) <= 0.01)

    cfg = RunConfig(schedule="geometric", ratio=1.01, eps=1e-4, max_iter=100)
    res = run(inst, rel, cfg)
    assert res.reason == "gap"
    assert len(res.records) <= 12
    assert res.records[-1].gap < 1e-4
    alphas = [float(r.duals[0][0]) for r in res.records]
    assert len(alphas) >= len(REFERENCE_ALPHAS)
    for got, want in zip(alphas, REFERENCE_ALPHAS):
        assert abs(got - want) <= 0.05
    assert time.perf_counter() - t0 < 1.0


def test_a3_path_solver_scaling():
    """Quadratic growth: doubling n scales the median solve time 3x-5x."""
    inst = gen_tridiagonal(1000, 2)
    t0 = time.perf_counter()
    solve(to_tridiagonal(inst))
    assert time.perf_counter() - t0 < 1.0

    inst = gen_tridiagonal(10000, 2)
    t0 = time.perf_counter()
    solve(to_tridiagonal(inst))
    assert time.perf_counter() - t0 < 60.0

    def med(n, reps=5):
        prob = to_tridiagonal(gen_tridiagonal(n, 1))
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            solve(prob)
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts)

    times = {n: med(n) for n in (500, 1000, 2000, 4000)}
    ratios = [times[2 * n] / times[n] for n in (500, 1000, 2000)]
    assert 3.0 <= statistics.median(ratios) <= 5.0


def test_a4_decomposition_bound_sandwich():
    """Certified bounds bracket the enumerated optimum at every
    iteration; final gap at most 5% on at least 45 of 50 instances."""
    rng = rng_for(70)
    instances = [random_dd_instance(rng, 2 + k % 11) for k in range(38)]
    instances += [gen_lattice2d(3, 4, 0.35, 0.1, seed=s) for s in range(12)]
    cfg = RunConfig(schedule="geometric", ratio=1.01, eps=1e-9, max_iter=300)
    hits = 0
    for inst in instances:
        opt = enumerate_supports(inst).value
        res = run(inst, default_relaxation(inst), cfg)
        for rec in res.records:
            assert rec.lower - 1e-8 <= opt <= rec.upper + 1e-8
        if res.gap <= 0.05:
            hits += 1
    assert hits >= 45


def test_a5_conjugate_grid_and_inequalities():
    """Closed form vs grid supremum, subgradient planes, weak duality."""
    rng = rng_for(80)
    for _ in range(500):
        d, _ = random_triple(rng)
        grid = f_star_bruteforce(*d)  # x grid step 1e-3
        assert grid <= f_star(*d) + 1e-12
        assert f_star(*d) - grid <= 2e-3
    for _ in range(1000):
        (p, _), (q, _) = random_triple(rng), random_triple(rng)
        assert subgradient_plane_holds(p, q)
    for _ in range(10000):
        d, sign = random_triple(rng)
        x1, x2 = rng.uniform(-3.0, 3.0, 2)
        z1, z2 = rng.uniform(0.0, 1.0, 2)
        assert persp(x1, x2, z1, z2, sign) >= dual_value(d, sign, x1, x2, z1, z2) - 1e-9


def test_a6_cover_approximation_ratios():
    """Kept coupling weight vs the exhaustive acyclic optimum on both
    graph families; the degree-capped subgraph is exact when bipartite."""
    rng = rng_for(90)
    for _ in range(100):
        g = random_bipartite(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        assert len(g.edges) <= 16
        assert abs(b2_subgraph_bipartite(g).weight - exhaustive_b2(g)) <= 1e-9
        wmap = {(i, j): w for i, j, w in g.edges}
        kept = sum(wmap[e] for e in path_cover(g).retained)
        assert kept >= 0.75 * brute_force_pstar(g) - 1e-9
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 7)))
        assert len(g.edges) <= 16
        ordering = make_ordering(break_cycles(b2_subgraph_general(g)), g)
        wmap = {(i, j): w for i, j, w in g.edges}
        kept = sum(wmap[e] for e in ordering.retained)
        assert kept >= (2.0 / 3.0) * brute_force_pstar(g) - 1e-9


def test_a7_lattice_end_to_end():
    """10x10 denoising lattices reach a certified 1% gap on 4 of 5."""
    hits = 0
    for seed in range(5):
        inst = gen_lattice2d(10, 10, 0.3, 0.1, seed=seed)
        t0 = time.perf_counter()
        cfg = RunConfig(schedule="harmonic", eps=0.01, max_iter=300)
        res = run(inst, default_relaxation(inst), cfg)
        assert time.perf_counter() - t0 < 30.0
        if res.gap <= 0.01:
            hits += 1
    assert hits >= 4
