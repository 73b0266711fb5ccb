import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from l0path import (
    InputError,
    NotPositiveDefinite,
    NotSymmetricStorage,
    SPSolution,
    TridiagProblem,
    gen_tridiagonal,
    solve,
    solve_fixed_z,
    to_tridiagonal,
)
import l0path
from l0path._kernels import (
    _C_SOURCE,
    _CFLAGS,
    PIVOT_TOL,
    labels_kernel,
    segments_kernel,
    thomas_kernel,
)

from conftest import STORAGE_FAULTS, first_failing_pivot, make_instance, rng_for


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
    # built without a check; the solve's label sweep names the position
    p = TridiagProblem(
        m=2,
        a=np.zeros(2),
        c=np.zeros(2),
        diag=np.array([1.0, 1.0]),
        off=np.array([2.0]),
    )
    with pytest.raises(NotPositiveDefinite, match=r"not positive definite at position 1$"):
        solve(p)


def test_rejects_non_finite_entries():
    # with the NaN the C and numpy sweeps disagree (-6.0 against -3.0)
    chain = dict(m=3, a=np.ones(3), c=np.array([-4.0, np.nan, -4.0]), diag=np.full(3, 2.0), off=np.zeros(2))
    with pytest.raises(InputError, match="c has a non-finite entry"):
        TridiagProblem(**chain)
    chain["c"] = np.full(3, -4.0)
    assert solve(TridiagProblem(**chain)).objective == -9.0
    chain["off"] = np.array([0.0, np.inf])
    with pytest.raises(InputError, match="off has a non-finite entry"):
        TridiagProblem(**chain)
    for name in ("a", "diag"):
        bad = dict(chain, off=np.zeros(2))
        bad[name] = np.array([1.0, 2.0, np.nan])
        with pytest.raises(InputError, match=f"{name} has a non-finite entry"):
            TridiagProblem(**bad)


def test_solve_reads_the_checked_chain():
    # NaN written through the buffer must not reach the sweep, which
    # returns -6.0 for this chain with c[1] = NaN
    buf = np.full(3, -4.0)
    p = TridiagProblem(m=3, a=np.ones(3), c=buf[:], diag=np.full(3, 2.0), off=np.zeros(2))
    assert solve(p).objective == -9.0
    buf[1] = np.nan
    assert solve(p).objective == -9.0


CHAIN = dict(m=2, a=[1.0, 1.0], c=[-1.0, -1.0], diag=[2.0, 2.0], off=[0.5])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(m=0, a=[], c=[], diag=[], off=[]), "m must be >= 1"),
        (dict(a=[1.0]), "a, c, diag must have length m"),
        (dict(diag=[2.0, 2.0, 2.0]), "a, c, diag must have length m"),
        (dict(off=[]), "off must have length m - 1"),
    ],
    ids=["m_zero", "short_a", "long_diag", "short_off"],
)
def test_chain_shape_faults_raise_input_error(kwargs, message):
    with pytest.raises(InputError, match=message):
        TridiagProblem(**(CHAIN | kwargs))


@pytest.mark.parametrize("zbar", [[1], [1, 1, 1], [[1, 1]]], ids=["short", "long", "2d"])
def test_solve_fixed_z_shape_faults_raise_input_error(zbar):
    with pytest.raises(InputError, match="zbar must have length m"):
        solve_fixed_z(TridiagProblem(**CHAIN), np.array(zbar))


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


def test_solve_fixed_z_needs_only_definite_support_blocks():
    # the chain is indefinite, but each one-variable support block is not
    p = TridiagProblem(
        m=3,
        a=np.array([1.0, 2.0, 3.0]),
        c=np.array([-2.0, 1.0, -6.0]),
        diag=np.array([1.0, 1.0, 2.0]),
        off=np.array([2.0, 0.5]),
    )
    with pytest.raises(NotPositiveDefinite):
        solve(p)
    x, value = solve_fixed_z(p, np.array([1, 0, 1]))
    assert x.tolist() == [2.0, 0.0, 3.0]
    assert value == 1.0 + 3.0 + 0.5 * (-2.0 * 2.0 - 6.0 * 3.0)
    # a support block that spans the indefinite pair still fails
    with pytest.raises(NotPositiveDefinite, match="position 1"):
        solve_fixed_z(p, np.array([1, 1, 0]))


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


def test_to_tridiagonal_requires_band(example_instance):
    with pytest.raises(InputError, match=r"\(1, 3\) is off the tridiagonal band") as info:
        to_tridiagonal(example_instance)
    # no command reorders a file; the decomposition solves any order
    assert "solve-decomp accepts any sparse diagonally dominant Q" in str(info.value)
    # the Instance stores its triplets by (i, j), so the off-band entry
    # named is the first in that order, whatever order they were given in
    two_off = make_instance(
        [0.0] * 4, [0.0] * 4,
        [(1, 3, -0.5), (0, 0, 2.0), (0, 2, -0.5), (1, 1, 2.0), (2, 2, 2.0), (3, 3, 2.0)],
    )
    with pytest.raises(InputError, match=r"\(0, 2\)"):
        to_tridiagonal(two_off)
    inst = gen_tridiagonal(12, 4)
    p = to_tridiagonal(inst)
    assert p.m == 12
    assert np.array_equal(p.diag, inst.qv[inst.qi == inst.qj])


@pytest.mark.parametrize("entries, fault", STORAGE_FAULTS)
def test_to_tridiagonal_checks_storage(entries, fault):
    # the constructor names the fault, so to_tridiagonal never sees it
    with pytest.raises(NotSymmetricStorage, match=re.escape(fault)):
        to_tridiagonal(make_instance([0.5] * 3, [-3.0, 1.0, 0.0], entries))


def _thomas_py(diag, off, rhs):
    """Solve the tridiagonal system T x = rhs; returns (x, fail_row)."""
    m = diag.shape[0]
    piv = np.empty(m)
    r = np.empty(m)
    piv[0] = diag[0]
    r[0] = rhs[0]
    if piv[0] <= PIVOT_TOL:
        return r, 0
    for t in range(1, m):
        l = off[t - 1] / piv[t - 1]
        piv[t] = diag[t] - l * off[t - 1]
        if piv[t] <= PIVOT_TOL:
            return r, t
        r[t] = rhs[t] - l * r[t - 1]
    x = np.empty(m)
    x[m - 1] = r[m - 1] / piv[m - 1]
    for t in range(m - 2, -1, -1):
        x[t] = (r[t] - off[t] * x[t + 1]) / piv[t]
    return x, -1


def test_labels_kernel_matches_python():
    rng = rng_for(35)
    for m in (1, 2, 9, 40):
        p = random_problem(rng, m)
        assert assert_sweeps_equal(p.a, p.c, p.diag, p.off) == -1
        # with no zeros in z, the cut solve reads rhs = -c on the full chain
        fast_x, fast_fail = thomas_kernel(p.diag, p.off, p.c, np.ones(m))
        slow_x, slow_fail = _thomas_py(p.diag, p.off, -p.c)
        assert fast_fail == slow_fail == -1
        # the compiled solve rounds every step as the reference does
        assert np.array_equal(fast_x, slow_x)
    # indefinite chains: both sweeps name the same failing column
    failing = 0
    for _ in range(200):
        a, c, diag, off = chain_arrays(rng, int(rng.integers(2, 40)), indefinite=True)
        failing += assert_sweeps_equal(a, c, diag, off) >= 0
    assert failing >= 100


def test_cut_thomas_matches_block_solves():
    # the kernel cuts the couplings at the zeros of z: x on every maximal
    # run of ones is that run's own solve, bit for bit, and zero off it
    rng = rng_for(39)
    for m in (1, 2, 5, 17, 40):
        for t in range(30):
            p = random_problem(rng, m)
            z = (rng.uniform(size=m) < t / 29).astype(np.float64)
            x, fail = thomas_kernel(p.diag, p.off, p.c, z)
            assert fail == -1
            want = np.zeros(m)
            on = np.concatenate(([0], z, [0]))
            starts = np.flatnonzero(np.diff(on) == 1)
            ends = np.flatnonzero(np.diff(on) == -1)
            for s, e in zip(starts, ends):
                want[s:e], block_fail = _thomas_py(p.diag[s:e], p.off[s : e - 1], -p.c[s:e])
                assert block_fail == -1
            assert x.tobytes() == want.tobytes()
    # an M-matrix chain with c > 0 has x < 0 on its support; a cut row next
    # to negative x still reads +0.0, not -0.0
    m = 9
    z = np.array([1, 1, 0, 1, 1, 1, 0, 0, 1], dtype=np.float64)
    x, fail = thomas_kernel(np.full(m, 2.0), np.full(m - 1, -0.5), np.ones(m), z)
    assert fail == -1
    assert np.all(x[z == 1] < 0)
    assert not np.any(np.signbit(x[z == 0]))


def test_pivot_tolerance_reaches_the_kernels():
    # PIVOT_TOL is defined once, in Python, and compiled in as a flag
    none = np.empty(0)
    # the sweep weighs the one-variable arc (0, 2), pivot d, in column 2
    for d, thomas_fail, labels_fail in ((PIVOT_TOL, 0, 2), (2 * PIVOT_TOL, -1, -1)):
        assert thomas_kernel(np.array([d]), none, np.zeros(1), np.ones(1))[1] == thomas_fail
        assert labels_kernel(np.zeros(1), np.zeros(1), np.array([d]), none)[3] == labels_fail


def chain_arrays(rng, m, indefinite=False):
    """Fresh (a, c, diag, off) of a random positive definite chain; with
    `indefinite`, its couplings are scaled up at one to three places, so
    that most such chains are not positive definite."""
    p = random_problem(rng, m)
    a, c, diag, off = p.a.copy(), p.c.copy(), p.diag.copy(), p.off.copy()
    if indefinite:
        k = rng.integers(0, m - 1, int(rng.integers(1, 4)))
        off[k] *= rng.uniform(2.0, 6.0, k.size)
    return a, c, diag, off


def labels_row_major(a, c, diag, off):
    """Scalar transcription of the row-major label sweep: row i takes its
    skip arc, then its cells j = i+2 .. m+1 in order, and the first failing
    pivot ends the sweep. Python floats round as C doubles do without
    contraction. Returns (labels, preds, fail_col)."""
    a, c, diag, off = (v.tolist() for v in (a, c, diag, off))
    m = len(a)
    labels = [0.0] + [float("inf")] * (m + 1)
    preds = [-1] * (m + 2)
    for i in range(m + 1):
        if labels[i] < labels[i + 1]:
            labels[i + 1] = labels[i]
            preds[i + 1] = i
        cbar, qbar, wbar, li = 0.0, float("inf"), 0.0, labels[i]
        for j in range(i + 2, m + 2):
            o = off[j - 3] if j >= 3 else 0.0
            cbar = c[j - 2] - o * cbar / qbar
            qbar = diag[j - 2] - o * o / qbar
            if qbar <= PIVOT_TOL:
                return np.array(labels), np.array(preds), j
            wbar = wbar + (a[j - 2] - 0.5 * cbar * cbar / qbar)
            cand = li + wbar
            if cand < labels[j]:
                labels[j] = cand
                preds[j] = i
    return np.array(labels), np.array(preds), -1


def backtrack(preds):
    """The support whose zeros are the interior nodes of the predecessor
    chain from the sink m+1 back to the source 0."""
    m = preds.size - 2
    chain = [m + 1]
    while chain[-1] != 0:
        chain.append(int(preds[chain[-1]]))
    z = np.ones(m)
    z[[v - 1 for v in chain[1:-1]]] = 0.0
    return z


# rows per block of the compiled wavefront sweep
BLOCK_ROWS = int(re.search(r"#define R (\d+)", _C_SOURCE).group(1))


def assert_sweeps_equal(a, c, diag, off):
    labels, preds, z, fail = labels_kernel(a, c, diag, off)
    ref_labels, ref_preds, ref_fail = labels_row_major(a, c, diag, off)
    assert fail == ref_fail
    # on failure the labels and z are undefined for both
    if fail < 0:
        assert labels.tobytes() == ref_labels.tobytes()
        assert np.array_equal(preds, ref_preds)
        assert z.tobytes() == backtrack(ref_preds).tobytes()
    return fail


def test_wavefront_sweep_matches_row_major():
    r = BLOCK_ROWS
    rng = rng_for(38)
    # shorter than a block, and lengths not divisible by it
    for m in range(1, 3 * r + 2):
        assert assert_sweeps_equal(*chain_arrays(rng, m)) == -1
    # the first failing row r0 early and late in the first block, in the
    # second block only, and in the second lane of an inner pair of rows
    # (3 and r + 3): a NaN coupling before it makes every earlier row's
    # pivot NaN, which never fails, and the 2x2 block (r0, r0 + 1) is
    # singular, so row r0 fails at column r0 + 3
    for r0 in (2, 3, r - 2, r - 1, r + 2, r + 3):
        a, c, diag, off = chain_arrays(rng, 2 * r + 5)
        off[r0 - 2] = np.nan
        off[r0] = np.sqrt(diag[r0] * diag[r0 + 1])
        assert assert_sweeps_equal(a, c, diag, off) == r0 + 3
    # an infinite coupling fails every row that spans it at once; the row
    # that starts on it turns NaN and never fails
    a, c, diag, off = chain_arrays(rng, 3 * r)
    off[r + 3] = np.inf
    assert assert_sweeps_equal(a, c, diag, off) == r + 6
    # equal-weight ties between cells, and between a cell and the skip arc
    for m in (r - 1, 2 * r + 3):
        zero = np.zeros(m)
        assert assert_sweeps_equal(zero, zero, np.full(m, 2.0), np.full(m - 1, -1.0)) == -1
        a, c = np.full(m, 1.0), np.full(m, -2.0)
        assert assert_sweeps_equal(a, c, np.full(m, 2.0), np.zeros(m - 1)) == -1
        assert assert_sweeps_equal(a, -c, np.full(m, 2.0), np.zeros(m - 1)) == -1
    # random chains, with NaN couplings, NaN linear terms, coarse values that
    # tie, and indefinite blocks
    for t in range(400):
        m = int(rng.integers(2, 4 * r))
        a, c, diag, off = chain_arrays(rng, m, indefinite=t % 2 == 1)
        if t % 3 == 0:
            a, c, diag, off = np.round(2 * a) / 2, np.round(c), np.round(2 * diag) / 2 + 1, np.round(off)
        if t % 5 == 0:
            off[rng.integers(0, m - 1)] = np.nan
        if t % 7 == 0:
            c[rng.integers(0, m)] = np.nan
        assert_sweeps_equal(a, c, diag, off)


def test_labels_kernel_decides_positive_definiteness():
    # the sweep fails in column j exactly when the scalar elimination
    # first fails at position j - 2, so solve's verdict is the pivot test's
    rng = rng_for(40)
    failing = 0
    for _ in range(10**4):
        a, c, diag, off = chain_arrays(rng, int(rng.integers(2, 4 * BLOCK_ROWS + 2)), indefinite=True)
        t = first_failing_pivot(diag, off)
        fail = labels_kernel(a, c, diag, off)[3]
        assert (fail - 2 if fail >= 0 else -1) == t
        failing += t >= 0
    # both verdicts are common
    assert min(failing, 10**4 - failing) >= 2000
    # an exactly singular 2x2 block (k, k + 1), decoupled from position
    # k - 1, after a positive definite prefix: the pivot at k + 1 is 0.0
    for m in (2, 3, BLOCK_ROWS + 1, 3 * BLOCK_ROWS):
        for k in range(m - 1):
            for d, sign in ((0.5, 1.0), (1.0, -1.0), (3.0, 1.0)):
                a, c, diag, off = chain_arrays(rng, m)
                diag[k : k + 2] = d
                off[k] = sign * d
                if k > 0:
                    off[k - 1] = 0.0
                assert first_failing_pivot(diag, off) == k + 1
                assert labels_kernel(a, c, diag, off)[3] == k + 3
                with pytest.raises(NotPositiveDefinite, match=rf"position {k + 1}$"):
                    solve(TridiagProblem(m=m, a=a, c=c, diag=diag, off=off))


def test_kernels_compile_without_warnings(tmp_path):
    # the one compile check of every kernel: a full build with the
    # library's flags, since some warnings need -O2; -Wconversion catches
    # implicit narrowing, e.g. an int64_t into an int. Any diagnostic
    # fails, a note included
    src = tmp_path / "kernels.c"
    src.write_text(_C_SOURCE)
    cmd = ["cc", *_CFLAGS, "-std=c99", "-Wall", "-Wextra", "-Wconversion", "-Werror"]
    done = subprocess.run(cmd + ["-o", str(tmp_path / "kernels.so"), str(src)], capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == "", done.stderr


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_import_fails_without_a_working_compiler(tmp_path, compiler):
    # a fresh copy of the package, so no cached library can be loaded
    package = os.path.dirname(l0path.__file__)
    shutil.copytree(package, tmp_path / "l0path", ignore=shutil.ignore_patterns("__pycache__"))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler == "failing":
        cc = bin_dir / "cc"
        cc.write_text("#!/bin/sh\necho cc-marker-4711 >&2\nexit 1\n")
        cc.chmod(0o755)
    done = subprocess.run(
        [sys.executable, "-c", "import l0path"],
        env={**os.environ, "PATH": str(bin_dir), "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    assert "ImportError: " in done.stderr
    if compiler == "missing":
        assert "no C compiler (cc) on PATH" in done.stderr
    else:
        assert "building the C kernels with" in done.stderr and "cc-marker-4711" in done.stderr


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
    # the third segment's 2x2 block is singular
    _, bounds, (a, c, diag, off) = random_chain(rng, (2, 3, 2, 4))
    diag[5:7] = 1.0
    off[5] = -1.0
    assert segments_kernel(bounds, a, c, diag, off)[3] == 2


def test_kernels_refuse_arrays_they_cannot_address():
    _, bounds, (a, c, diag, off) = random_chain(rng_for(37), (3, 4))
    strided = np.repeat(c, 2)[::2]
    for bad in (strided, c.astype(np.float32), c.reshape(1, -1)[:, :]):
        with pytest.raises((TypeError, ValueError)):
            segments_kernel(bounds, a, bad, diag, off)
    with pytest.raises(TypeError):
        segments_kernel(bounds.astype(np.int32), a, c, diag, off)
    with pytest.raises(TypeError):
        labels_kernel(a, strided, diag, off)
    z = np.ones(c.size)
    with pytest.raises(TypeError):
        thomas_kernel(diag, off, c.astype(np.float32), z)
    with pytest.raises(ValueError):
        thomas_kernel(diag, off, c, z[1:])
