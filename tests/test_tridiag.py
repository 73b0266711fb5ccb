import numpy as np
import pytest

from l0path import (
    InputError,
    NotPositiveDefinite,
    SPSolution,
    TridiagProblem,
    gen_tridiagonal,
    solve,
    solve_fixed_z,
    to_tridiagonal,
)
from l0path._kernels import (
    PIVOT_TOL,
    _labels_py,
    _segments_py,
    _thomas_py,
    labels_kernel,
    segments_kernel,
    thomas_kernel,
)

from conftest import make_instance, rng_for


def arc_weight_row(p: TridiagProblem, i: int):
    """Yield (j, w_ij) for j = i+2 .. m+1 by the O(1)-per-step recurrence.

    w_ij is the optimal value of the continuous subproblem on positions
    i+1 .. j-1 plus their indicator penalties; the length-one arcs
    (i, i+1) all have weight zero and are not emitted.
    """
    if not 0 <= i <= p.m - 1:
        raise ValueError("i must be in 0 .. m-1")
    cbar = 0.0
    qbar = np.inf
    wbar = 0.0
    for j in range(i + 2, p.m + 2):
        o = p.off[j - 3] if j >= 3 else 0.0
        cbar = p.c[j - 2] - o * cbar / qbar
        qbar = p.diag[j - 2] - o * o / qbar
        if qbar <= PIVOT_TOL:
            raise NotPositiveDefinite(f"pivot {qbar:.3g} while weighting column {j}")
        wbar = wbar + p.a[j - 2] - 0.5 * cbar * cbar / qbar
        yield j, wbar


def random_problem(rng, m):
    off = rng.uniform(-2.0, 2.0, max(m - 1, 0))
    slack = rng.uniform(0.5, 3.0, m)
    diag = np.zeros(m)
    diag += slack
    if m > 1:
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
    return TridiagProblem(
        m=m,
        a=rng.uniform(0.0, 1.5, m),
        c=rng.uniform(-10.0, 3.0, m),
        diag=diag,
        off=off,
    )


def test_relaxed_example_template():
    # the running example with its (1, 3) coupling dropped and the
    # diagonal reduced accordingly: two independent blocks
    left = TridiagProblem(
        m=3,
        a=np.array([2.0, 2.0, 2.0]),
        c=np.array([-1.3, -2.5, 4.6]),
        diag=np.array([3.0, 5.2, 3.0]),
        off=np.array([-1.5, -1.0]),
    )
    right = TridiagProblem(
        m=1, a=np.array([2.0]), c=np.array([-7.8]), diag=np.array([1.2]), off=np.zeros(0)
    )
    ls, rs = solve(left), solve(right)
    total = ls.objective + rs.objective
    assert abs(total - (-24.876666666666665)) <= 1e-9
    x = np.concatenate([ls.x, rs.x])
    assert np.allclose(x, [0.0, 0.0, -4.6 / 3.0, 6.5], atol=1e-9)
    assert np.concatenate([ls.z, rs.z]).tolist() == [0, 0, 1, 1]


def test_single_variable_cases():
    keep = TridiagProblem(
        m=1, a=np.array([1.0]), c=np.array([-4.0]), diag=np.array([2.0]), off=np.zeros(0)
    )
    sol = solve(keep)
    assert sol.objective == -3.0
    assert sol.z.tolist() == [1]
    drop = TridiagProblem(
        m=1, a=np.array([1.0]), c=np.array([1.0]), diag=np.array([2.0]), off=np.zeros(0)
    )
    sol = solve(drop)
    assert sol.objective == 0.0
    assert sol.z.tolist() == [0]
    assert sol.x.tolist() == [0.0]


def test_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        TridiagProblem(
            m=2,
            a=np.zeros(2),
            c=np.zeros(2),
            diag=np.array([1.0, 1.0]),
            off=np.array([2.0]),
        )


def test_solve_fixed_z():
    p = TridiagProblem(
        m=2,
        a=np.zeros(2),
        c=np.array([-1.0, -1.0]),
        diag=np.array([2.0, 2.0]),
        off=np.array([1.0]),
    )
    x, value = solve_fixed_z(p, np.array([1, 1]))
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0])
    assert abs(value - (-1.0 / 3.0)) <= 1e-12
    x, value = solve_fixed_z(p, np.zeros(2))
    assert value == 0.0 and not x.any()


def test_solve_fixed_z_dominates_optimum():
    rng = rng_for(31)
    for _ in range(20):
        p = random_problem(rng, int(rng.integers(1, 10)))
        sol = solve(p)
        zbar = rng.integers(0, 2, p.m)
        _, value = solve_fixed_z(p, zbar)
        assert sol.objective <= value + 1e-9
        # and the solver's own support reproduces its objective
        _, again = solve_fixed_z(p, sol.z)
        assert abs(again - sol.objective) <= 1e-9


def test_arc_weight_single():
    p = TridiagProblem(
        m=1, a=np.array([1.0]), c=np.array([-4.0]), diag=np.array([2.0]), off=np.zeros(0)
    )
    rows = dict(arc_weight_row(p, 0))
    assert abs(rows[2] - (-3.0)) <= 1e-12


def test_arc_weights_match_block_solves():
    rng = rng_for(32)
    p = random_problem(rng, 8)
    q = np.diag(p.diag) + np.diag(p.off, 1) + np.diag(p.off, -1)
    for i in range(p.m):
        for j, wbar in arc_weight_row(p, i):
            lo, hi = i, j - 1  # variables strictly between the endpoints
            block = q[lo:hi, lo:hi]
            x = np.linalg.solve(block, -p.c[lo:hi])
            direct = p.a[lo:hi].sum() + p.c[lo:hi] @ x + 0.5 * x @ block @ x
            assert abs(wbar - direct) <= 1e-8 * (1.0 + abs(direct))


def test_matches_explicit_shortest_path():
    rng = rng_for(33)
    for m in (1, 2, 3, 7, 20, 50):
        p = random_problem(rng, m)
        inf = float("inf")
        labels = [inf] * (m + 2)
        labels[0] = 0.0
        weights = {}
        for i in range(m + 1):
            weights[(i, i + 1)] = 0.0
        for i in range(m):
            for j, wbar in arc_weight_row(p, i):
                weights[(i, j)] = wbar
        for j in range(1, m + 2):
            labels[j] = min(labels[i] + w for (i, jj), w in weights.items() if jj == j)
        sol = solve(p)
        assert abs(sol.objective - labels[m + 1]) <= 1e-8 * (1.0 + abs(labels[m + 1]))


def test_solution_is_consistent():
    rng = rng_for(34)
    for _ in range(10):
        p = random_problem(rng, int(rng.integers(1, 30)))
        sol = solve(p)
        assert isinstance(sol, SPSolution)
        # objective recomputes from (x, z)
        direct = p.objective(sol.x, sol.z)
        assert abs(direct - sol.objective) <= 1e-8 * (1.0 + abs(direct))
        # x vanishes off-support, stationary on support blocks
        assert not sol.x[sol.z == 0].any()
        q = np.diag(p.diag) + np.diag(p.off, 1) + np.diag(p.off, -1)
        s = sol.z.astype(bool)
        if s.any():
            resid = q[np.ix_(s, s)] @ sol.x[s] + p.c[s]
            assert np.max(np.abs(resid)) <= 1e-7


def test_visited_marks_skipped_positions():
    p = TridiagProblem(
        m=3,
        a=np.array([5.0, 0.0, 5.0]),
        c=np.array([0.1, -4.0, 0.1]),
        diag=np.array([2.0, 2.0, 2.0]),
        off=np.array([0.0, 0.0]),
    )
    sol = solve(p)
    assert sol.z.tolist() == [0, 1, 0]
    assert sol.visited == (0, 2)


def test_to_tridiagonal_requires_band(example_instance):
    with pytest.raises(InputError, match=r"\(1, 3\) is off the tridiagonal band"):
        to_tridiagonal(example_instance)
    # the first off-band entry in storage order is the one named
    two_off = make_instance(
        [0.0] * 4, [0.0] * 4,
        [(1, 3, -0.5), (0, 0, 2.0), (0, 2, -0.5), (1, 1, 2.0), (2, 2, 2.0), (3, 3, 2.0)],
    )
    with pytest.raises(InputError, match=r"\(1, 3\)"):
        to_tridiagonal(two_off)
    inst = gen_tridiagonal(12, 4)
    p = to_tridiagonal(inst)
    assert p.m == 12
    assert np.array_equal(p.diag, inst.qv[inst.qi == inst.qj])


@pytest.mark.skipif(labels_kernel is _labels_py, reason="no C compiler: the numpy kernels run")
def test_labels_kernel_matches_python():
    rng = rng_for(35)
    for m in (1, 2, 9, 40):
        p = random_problem(rng, m)
        fast_labels, fast_pred, fast_fail = labels_kernel(p.a, p.c, p.diag, p.off)
        slow_labels, slow_pred, slow_fail = _labels_py(p.a, p.c, p.diag, p.off)
        assert fast_fail == slow_fail == -1
        assert np.array_equal(fast_pred, slow_pred)
        # identical recurrences, so agreement up to summation order
        assert np.allclose(fast_labels, slow_labels, rtol=1e-12, atol=1e-12)
        fast_x, fast_fail = thomas_kernel(p.diag, p.off, -p.c)
        slow_x, slow_fail = _thomas_py(p.diag, p.off, -p.c)
        assert fast_fail == slow_fail == -1
        # the compiled solve rounds every step as the reference does
        assert np.array_equal(fast_x, slow_x)


def random_chain(rng, sizes):
    """Segments of the given sizes on one chain; off is NaN at every cut,
    which the segment kernels must never read."""
    parts = [random_problem(rng, m) for m in sizes]
    off = []
    for p in parts:
        off += p.off.tolist() + [np.nan]
    bounds = np.cumsum([0] + list(sizes)).astype(np.int64)
    chain = tuple(np.concatenate([getattr(p, f) for p in parts]) for f in ("a", "c", "diag"))
    return parts, bounds, chain + (np.array(off[:-1]),)


@pytest.mark.skipif(segments_kernel is _segments_py, reason="no C compiler: the numpy kernels run")
def test_segments_kernel_matches_per_segment_solves():
    rng = rng_for(36)
    for sizes in ((1,), (1, 1, 1), (3, 1, 7, 2), (12, 1, 30), tuple(rng.integers(1, 15, 8))):
        parts, bounds, chain = random_chain(rng, sizes)
        x, z, obj, fail = segments_kernel(bounds, *chain)
        assert fail == -1
        for k, p in enumerate(parts):
            s, e = bounds[k], bounds[k + 1]
            sol = solve(p)
            assert x[s:e].tobytes() == sol.x.tobytes()
            assert np.array_equal(z[s:e], sol.z)
            assert obj[k] == sol.objective
        x_py, z_py, obj_py, fail_py = _segments_py(bounds, *chain)
        assert fail_py == -1
        assert x_py.tobytes() == x.tobytes() and z_py.tobytes() == z.tobytes()
        # identical recurrences, so agreement up to summation order
        assert np.allclose(obj_py, obj, rtol=1e-12, atol=1e-12)
    # the third segment's 2x2 block is singular
    _, bounds, (a, c, diag, off) = random_chain(rng, (2, 3, 2, 4))
    diag[5:7] = 1.0
    off[5] = -1.0
    for kernel in (segments_kernel, _segments_py):
        assert kernel(bounds, a, c, diag, off)[3] == 2
