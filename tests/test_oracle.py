import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from l0path import (
    InputError,
    Instance,
    NotSymmetricStorage,
    RunConfig,
    SingularSupport,
    TooLarge,
    default_relaxation,
    enumerate_supports,
    fixed_z_qp,
    gen_lattice2d,
    gen_tridiagonal,
    read_instance,
    run,
    support_graph,
    to_tridiagonal,
    solve,
    validate,
    write_instance,
)
from l0path import decomp, oracle
from l0path._kernels import PIVOT_TOL, enumerate_kernel, ldl_kernel

from conftest import STORAGE_FAULTS, make_instance, permute, random_dd_instance, rng_for


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


@pytest.mark.parametrize("z", [np.ones(5), np.ones(10), np.ones((1, 9))], ids=["short", "long", "2d"])
def test_fixed_z_shape_faults_raise_input_error(z):
    # read as a support, the short z would give -26.59 here, and the long
    # one would index past the instance
    with pytest.raises(InputError, match="z must have length n"):
        fixed_z_qp(gen_lattice2d(3, 3, 0.3, 0.1, 0), z)


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


@pytest.mark.parametrize("entries, fault", STORAGE_FAULTS)
def test_enumerate_checks_storage(entries, fault):
    # the constructor names the fault, so enumerate_supports never sees it
    with pytest.raises(NotSymmetricStorage, match=re.escape(fault)):
        enumerate_supports(make_instance([0.5] * 3, [-3.0, 1.0, 0.0], entries))


def test_enumerate_rejects_indefinite_q():
    # Q = [[0, 0.5], [0.5, 0]] has eigenvalues -0.5 and 0.5, so the
    # objective is unbounded below; every support's pivot is non-positive,
    # and skipping them all would certify a value of 0
    inst = make_instance([1.0, 0.5], [-3.0, 1.0], [(0, 1, 0.5)])
    assert inst.objective(np.array([1.0, -1.0]), np.ones(2)) == -3.0
    with pytest.raises(InputError, match="not positive semidefinite"):
        enumerate_supports(inst)


def test_enumerate_accepts_singular_psd_q():
    # variable 2 duplicates variable 0's row and column (and its cost),
    # so Q is positive semidefinite of rank 2 and the objective is bounded
    inst = make_instance(
        [0.5, 0.5, 0.5],
        [-2.0, -1.0, -2.0],
        [(0, 0, 2.0), (0, 1, 1.0), (0, 2, 2.0), (1, 1, 3.0), (1, 2, 1.0), (2, 2, 2.0)],
    )
    q = inst.dense_q()
    assert np.linalg.matrix_rank(q) == 2
    res = enumerate_supports(inst)
    # a support holding both copies is singular and skipped; it is never
    # better than the same support with one copy dropped
    best = 0.0
    for mask in range(1, 8):
        s = [i for i in range(3) if mask >> i & 1]
        if {0, 2} <= set(s):
            continue
        xs = np.linalg.solve(q[np.ix_(s, s)], -inst.c[s])
        best = min(best, float(inst.a[s].sum() + 0.5 * inst.c[s] @ xs))
    assert abs(res.value - best) <= 1e-12
    assert abs(inst.objective(res.x, res.z) - res.value) <= 1e-12


def test_enumerate_rejects_c_outside_the_range_of_singular_q():
    # Q = [[1, 1], [1, 1]] is positive semidefinite with null vector
    # (1, -1), and c = (-1, 1) lies along it: the objective is -2t + 2 at
    # x = t (1, -1), z = 1, unbounded below, while every support the
    # enumeration does not skip as singular has a finite optimum
    inst = make_instance([0.0, 0.0], [-1.0, 1.0], [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
    assert inst.objective(np.array([100.0, -100.0]), np.ones(2)) == -200.0
    with pytest.raises(InputError, match="objective unbounded below"):
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


def _enumerate_py(a, c, q):
    """Minimize over all supports; returns (value, mask, skipped)."""
    n = a.shape[0]
    best_val = 0.0
    best_mask = 0
    skipped = 0
    scratch = np.empty((n, n + 1))
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask & (1 << (n - 1 - i))]
        k = len(idx)
        g = scratch[:k, : k + 1]
        for p in range(k):
            for t in range(k):
                g[p, t] = q[idx[p], idx[t]]
            g[p, k] = -c[idx[p]]
        ok = True
        for p in range(k):
            if g[p, p] <= PIVOT_TOL:
                ok = False
                break
            for t in range(p + 1, k):
                f = g[t, p] / g[p, p]
                g[t, p : k + 1] -= f * g[p, p : k + 1]
        if not ok:
            skipped += 1
            continue
        x = np.empty(k)
        for p in range(k - 1, -1, -1):
            x[p] = (g[p, k] - g[p, p + 1 : k] @ x[p + 1 : k]) / g[p, p]
        # at a stationary point Q_S x = -c_S, so the objective collapses to
        # sum(a_S) + (1/2) c_S . x
        val = 0.0
        for p in range(k):
            val += a[idx[p]] + 0.5 * c[idx[p]] * x[p]
        if val < best_val:
            best_val = val
            best_mask = mask
    return best_val, best_mask, skipped


# supports per batched elimination; bounds the reference's memory at any n
ENUM_CHUNK = 1 << 14


def _support_values(a, c, q, masks, k):
    """Values of the supports in `masks`, all of size k; returns
    (values, ok) with ok False where a pivot of the elimination fails."""
    n = a.shape[0]
    bits = (masks[:, None] >> np.arange(n - 1, -1, -1)) & 1
    # nonzero walks rows in order, so each row's indices come out ascending
    idx = np.nonzero(bits)[1].reshape(-1, k)
    g = np.empty((masks.size, k, k + 1))
    g[:, :, :k] = q[idx[:, :, None], idx[:, None, :]]
    g[:, :, k] = -c[idx]
    ok = np.ones(masks.size, dtype=bool)
    for p in range(k):
        ok &= ~(g[:, p, p] <= PIVOT_TOL)
        # failed supports eliminate with a unit pivot; their values are dropped
        g[~ok, p, p] = 1.0
        f = g[:, p + 1 :, p] / g[:, p, p, None]
        g[:, p + 1 :, p + 1 :] -= f[:, :, None] * g[:, p, None, p + 1 :]
    x = np.empty((masks.size, k))
    for p in range(k - 1, -1, -1):
        dot = (g[:, p, p + 1 : k] * x[:, p + 1 :]).sum(axis=1)
        x[:, p] = (g[:, p, k] - dot) / g[:, p, p]
    values = (a[idx] + 0.5 * c[idx] * x).sum(axis=1)
    return values, ok


def _enumerate_batched(a, c, q):
    """Minimize over all supports; returns (value, mask, skipped).

    The supports are grouped by size and eliminated in chunks of at most
    ENUM_CHUNK, without pivoting; the minimum wins and ties go to the
    smallest mask.
    """
    n = a.shape[0]
    best_val = 0.0
    best_mask = 0
    skipped = 0
    masks = np.arange(1, 1 << n, dtype=np.int64)
    sizes = np.zeros_like(masks)
    for b in range(n):
        sizes += (masks >> b) & 1
    for k in range(1, n + 1):
        of_size = masks[sizes == k]
        for lo in range(0, of_size.size, ENUM_CHUNK):
            chunk = of_size[lo : lo + ENUM_CHUNK]
            values, ok = _support_values(a, c, q, chunk, k)
            skipped += int(chunk.size - np.count_nonzero(ok))
            values[~ok] = np.inf
            # masks ascend within a chunk, so argmin picks the smallest tie
            i = int(np.argmin(values))
            val, mask = float(values[i]), int(chunk[i])
            if val < best_val or (val == best_val and mask < best_mask):
                best_val, best_mask = val, mask
    return best_val, best_mask, skipped


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
    slow = _enumerate_py(a, c, q)
    assert slow[1:] == (5, 2)
    for kernel in (enumerate_kernel, _enumerate_batched):
        fast = kernel(a, c, q)
        assert abs(fast[0] - slow[0]) <= 1e-12
        assert fast[1:] == slow[1:]


def enumeration_case(kind, n, seed):
    """(a, c, q) for the kernel comparison. "singular" duplicates a
    variable's row and column, so every support holding both copies fails
    a pivot and their subtrees are pruned. "ties" has runs of identical
    variables, each run coupled within itself only, so equivalent supports
    reach exactly equal values. (Nested supports of equal value, as with a
    variable worth exactly 0, are left out: the batched kernel's pairwise
    sums round them apart.) "positive" makes every support's value
    positive, so the empty support wins."""
    rng = rng_for(seed)
    if kind == "ties":
        a, c, q = np.empty(n), np.empty(n), np.zeros((n, n))
        start = 0
        while start < n:
            end = min(n, start + int(rng.integers(1, 5)))
            d = rng.uniform(0.5, 3.0)
            a[start:end], c[start:end] = rng.uniform(0.0, 2.0), rng.uniform(-10.0, 5.0)
            # decoupled, or coupled so strongly that one of the run is best
            q[start:end, start:end] = rng.choice([0.0, rng.uniform(0.5, 0.95) * d])
            q[range(start, end), range(start, end)] = d
            start = end
        return a, c, q
    inst = random_dd_instance(rng, n)
    a, c, q = inst.a.copy(), inst.c, np.ascontiguousarray(inst.dense_q())
    if kind == "singular":
        i, j = sorted(rng.choice(n, 2, replace=False)) if n > 1 else (0, 0)
        q[j, :] = q[i, :]
        q[:, j] = q[:, i]
        if n == 1:
            q[0, 0] = 0.0
    elif kind == "positive":
        # Gershgorin: Q_S's eigenvalues are at least 0.5 on every support
        a += c * c
    return a, c, q


def assert_kernels_agree(a, c, q):
    fast, slow = enumerate_kernel(a, c, q), _enumerate_batched(a, c, q)
    assert fast[1:] == slow[1:]
    assert abs(fast[0] - slow[0]) <= 1e-12 * abs(slow[0])
    return fast


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(["random", "singular", "ties", "positive"]),
    n=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_depth_first_kernel_matches_batched(kind, n, seed):
    value, mask, skipped = assert_kernels_agree(*enumeration_case(kind, n, seed))
    if kind == "singular" and n > 1:
        assert skipped > 0
    if kind == "positive":
        assert (value, mask) == (0.0, 0)


def test_depth_first_kernel_ties_and_sixteen_variables():
    # either variable alone is worth -0.5, both together only about -0.03;
    # the depth-first walk meets mask 0b10 first, and mask 0b01 must win
    q = np.array([[2.0, 1.9], [1.9, 2.0]])
    assert enumerate_kernel(np.full(2, 0.5), np.full(2, -2.0), q) == (-0.5, 1, 0)
    assert_kernels_agree(*enumeration_case("singular", 16, 16))
    with pytest.raises(ValueError):
        enumerate_kernel(np.zeros(21), np.zeros(21), np.eye(21))
    for bad in (np.asfortranarray(q), q.astype(np.float32), q[:1]):
        with pytest.raises(ValueError):
            enumerate_kernel(np.zeros(2), np.zeros(2), bad)


def splu_fixed_z_qp(instance, z):
    """The refit as SuperLU computes it: Q_S assembled with csc_array, which
    sums repeated triplets, and factored by splu under its own
    MMD_AT_PLUS_A order of Q_S; the reference for fixed_z_qp."""
    z = np.asarray(z)
    sel = np.flatnonzero(z)
    x = np.zeros(instance.n)
    if sel.size == 0:
        return x, 0.0
    pos = np.full(instance.n, -1, dtype=np.int64)
    pos[sel] = np.arange(sel.size)
    qi, qj = pos[instance.qi], pos[instance.qj]
    on = (qi >= 0) & (qj >= 0)
    qi, qj, qv = qi[on], qj[on], instance.qv[on]
    off = qi != qj  # mirror the off-diagonal couplings
    rows = np.concatenate([qi, qj[off]])
    cols = np.concatenate([qj, qi[off]])
    q = csc_array((np.concatenate([qv, qv[off]]), (rows, cols)), shape=(sel.size, sel.size))
    try:
        lu = splu(q, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularSupport(str(exc)) from exc
    piv = lu.U.diagonal()
    if np.any(piv <= PIVOT_TOL):
        raise SingularSupport(f"pivot {piv.min():.3g} in the factor of Q_S")
    xs = lu.solve(-instance.c[sel])
    x[sel] = xs
    return x, float(np.sum(instance.a[sel]) + 0.5 * instance.c[sel] @ xs)


def assert_matches_splu(inst, z):
    """x within 1e-15 max|x| of SuperLU's, and the value within 1e-15 of
    the size of its terms, sum |a_S| + (1/2) |c_S| . |x_S|."""
    x, value = fixed_z_qp(inst, z)
    x_ref, v_ref = splu_fixed_z_qp(inst, z)
    sel = np.flatnonzero(z)
    assert not x[np.asarray(z) == 0].any()
    assert np.max(np.abs(x - x_ref)) <= 1e-15 * np.max(np.abs(x_ref))
    scale = np.sum(np.abs(inst.a[sel])) + 0.5 * np.abs(inst.c[sel]) @ np.abs(x_ref[sel])
    assert abs(value - v_ref) <= 1e-15 * scale


def test_fixed_z_matches_splu_reference():
    for seed in range(40):
        rng = rng_for(seed)
        lattice = gen_lattice2d(int(rng.integers(2, 25)), int(rng.integers(2, 25)), 0.3, 0.1, seed)
        for inst in (lattice, random_dd_instance(rng, int(rng.integers(2, 40)))):
            for density in (0.3, 0.7, 0.95, 1.0):
                z = (rng.uniform(size=inst.n) < density).astype(np.int64)
                if z.any():
                    assert_matches_splu(inst, z)


def random_upper_csc(rng, n, density, spd):
    """Upper-triangle CSC of a random sparse symmetric matrix, positive
    definite when `spd`, with some entries repeated and some below the
    diagonal (which the factorisation ignores)."""
    rows, cols = np.triu_indices(n, 1)
    keep = rng.uniform(size=rows.size) < density
    rows, cols = rows[keep].astype(np.int64), cols[keep].astype(np.int64)
    vals = rng.uniform(-2.0, 2.0, rows.size)
    absrow = np.zeros(n)
    np.add.at(absrow, rows, np.abs(vals))
    np.add.at(absrow, cols, np.abs(vals))
    diag = absrow + rng.uniform(0.1, 2.0, n) if spd else rng.uniform(-1.0, 3.0, n)
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])
    # split some entries in two, which must add up again
    twice = rng.uniform(size=vals.size) < 0.2
    part = rng.uniform(0.2, 0.8, twice.sum()) * vals[twice]
    vals[twice] -= part
    rows, cols, vals = np.concatenate([rows, rows[twice]]), np.concatenate([cols, cols[twice]]), np.concatenate([vals, part])
    # entries below the diagonal, with values that would spoil the result
    low = rng.integers(0, n, size=(n, 2))
    low = low[low[:, 0] > low[:, 1]]
    rows, cols = np.concatenate([rows, low[:, 0]]), np.concatenate([cols, low[:, 1]])
    vals = np.concatenate([vals, np.full(low.shape[0], 1e3)])
    order = rng.permutation(vals.size)
    order = order[np.argsort(cols[order], kind="stable")]
    colptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=colptr[1:])
    return colptr, rows[order], vals[order]


def _ldl_py(n, Ap, Ai, Ax, b):
    """Factor the symmetric matrix whose upper triangle is (Ap, Ai, Ax) in
    CSC form as L D L' and overwrite b with the solution of A x = b;
    returns the first column whose pivot is <= PIVOT_TOL, or -1.

    Scalar twin of l0_ldl: the same elimination tree, row patterns and
    operations in the same order, so both round identically. Entries
    below the diagonal are ignored and repeated entries add up.
    """
    Ap, Ai, Ax = Ap.tolist(), Ai.tolist(), Ax.tolist()
    if Ap[0] != 0 or any(Ap[k + 1] < Ap[k] for k in range(n)) or any(not 0 <= i < n for i in Ai[: Ap[n]]):
        raise ValueError("malformed CSC pattern")
    # elimination tree and nonzeros per column of L
    parent, lnz, flag = [-1] * n, [0] * n, [-1] * n
    for k in range(n):
        flag[k] = k
        for p in range(Ap[k], Ap[k + 1]):
            i = Ai[p]
            while i < k and flag[i] != k:
                if parent[i] == -1:
                    parent[i] = k
                lnz[i] += 1
                flag[i] = k
                i = parent[i]
    lp = [0] * (n + 1)
    for k in range(n):
        lp[k + 1] = lp[k] + lnz[k]
    li, lx = [0] * lp[n], [0.0] * lp[n]
    # row k of L along the tree paths from the entries of column k
    d, y, pattern = [0.0] * n, [0.0] * n, [0] * n
    for k in range(n):
        top = n
        flag[k] = k
        lnz[k] = 0
        for p in range(Ap[k], Ap[k + 1]):
            i = Ai[p]
            if i > k:
                continue
            y[i] += Ax[p]
            path = []
            while flag[i] != k:
                path.append(i)
                flag[i] = k
                i = parent[i]
            pattern[top - len(path) : top] = path
            top -= len(path)
        dk = y[k]
        y[k] = 0.0
        for i in pattern[top:n]:
            yi = y[i]
            y[i] = 0.0
            p2 = lp[i] + lnz[i]
            for p in range(lp[i], p2):
                y[li[p]] -= lx[p] * yi
            lki = yi / d[i]
            dk -= lki * yi
            li[p2] = k
            lx[p2] = lki
            lnz[i] += 1
        if dk <= PIVOT_TOL:
            return k
        d[k] = dk
    x = b.tolist()
    for j in range(n):
        for p in range(lp[j], lp[j + 1]):
            x[li[p]] -= lx[p] * x[j]
    for j in range(n):
        x[j] /= d[j]
    for j in range(n - 1, -1, -1):
        for p in range(lp[j], lp[j + 1]):
            x[j] -= lx[p] * x[li[p]]
    b[:] = x
    return -1


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 0.5),
    spd=st.booleans(),
)
def test_ldl_kernel_matches_scalar_twin(n, seed, density, spd):
    rng = rng_for(seed)
    colptr, rows, vals = random_upper_csc(rng, n, density, spd)
    b = rng.uniform(-5.0, 5.0, n)
    fast, slow = b.copy(), b.copy()
    fail = ldl_kernel(n, colptr, rows, vals, fast)
    assert _ldl_py(n, colptr, rows, vals, slow) == fail
    if spd:
        assert fail == -1
    if fail == -1:
        assert fast.tobytes() == slow.tobytes()
        upper = csc_array((vals, rows, colptr), shape=(n, n)).toarray()
        a = np.triu(upper) + np.triu(upper, 1).T
        assert np.allclose(a @ fast, b, rtol=1e-10, atol=1e-10)


def test_ldl_kernel_matches_scalar_twin_on_lattice_supports(monkeypatch):
    calls = []

    def both(n, colptr, rows, vals, b):
        slow = b.copy()
        fail = ldl_kernel(n, colptr, rows, vals, b)
        assert _ldl_py(n, colptr, rows, vals, slow) == fail
        assert slow.tobytes() == b.tobytes()
        calls.append(n)
        return fail

    monkeypatch.setattr(oracle, "ldl_kernel", both)
    rng = rng_for(40)
    for rows, cols in ((20, 20), (7, 31), (2, 2)):
        inst = gen_lattice2d(rows, cols, 0.3, 0.1, 3)
        for density in (0.5, 0.8, 1.0):
            fixed_z_qp(inst, (rng.uniform(size=inst.n) < density).astype(np.int64))
    assert len(calls) == 9 and max(calls) == 400


def test_ldl_kernel_fails_mid_factor():
    # column 2 eliminates to a pivot of 0, then of about 0.5 PIVOT_TOL,
    # after columns 0 and 1 pass
    colptr = np.array([0, 1, 2, 4], dtype=np.int64)
    rows = np.array([0, 1, 1, 2], dtype=np.int64)
    for last in (1.0, 1.0 + 0.5 * PIVOT_TOL):
        vals = np.array([2.0, 1.0, 1.0, last])
        for kernel in (ldl_kernel, _ldl_py):
            assert kernel(3, colptr, rows, vals, np.ones(3)) == 2
    # a row outside 0..n-1, and column pointers that fall back
    for bad_ptr, bad_rows in ((colptr, np.array([0, 1, 1, 3])), (np.array([0, 4, 2, 4]), rows)):
        for kernel in (ldl_kernel, _ldl_py):
            with pytest.raises(ValueError):
                kernel(3, bad_ptr, bad_rows, vals, np.ones(3))


@pytest.mark.parametrize("twin", [False, True])
def test_fixed_z_singular_mid_factor(monkeypatch, twin):
    # variables 0 and 1 form a singular block at the end of a chain;
    # whichever of them the order eliminates second fails, after at least
    # one pivot that passed, and the error names it
    inst = make_instance(
        [0.1] * 5,
        [-1.0] * 5,
        [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, -1.0), (2, 2, 3.0), (2, 3, -1.0), (3, 3, 3.0), (3, 4, -1.0), (4, 4, 3.0)],
    )
    failed = []

    def recording(n, colptr, rows, vals, b):
        failed.append(kernel(n, colptr, rows, vals, b))
        return failed[-1]

    kernel = _ldl_py if twin else ldl_kernel
    monkeypatch.setattr(oracle, "ldl_kernel", recording)
    second = max(0, 1, key=lambda i: inst.fill_order[i])
    with pytest.raises(SingularSupport, match=f"at variable {second} of the support"):
        fixed_z_qp(inst, np.array([1, 1, 1, 1, 0]))
    assert failed[0] >= 1
    # without one of the pair the support factors
    fixed_z_qp(inst, np.array([1, 0, 1, 1, 1]))


def test_fixed_z_scalar_twin_is_bitwise_equal(monkeypatch):
    rng = rng_for(41)
    cases = [(gen_lattice2d(12, 17, 0.3, 0.1, 5), 0.8), (random_dd_instance(rng, 25), 0.6)]
    want = [fixed_z_qp(inst, (rng_for(42).uniform(size=inst.n) < d).astype(np.int64)) for inst, d in cases]
    monkeypatch.setattr(oracle, "ldl_kernel", _ldl_py)
    for (inst, d), (x, value) in zip(cases, want):
        x_py, value_py = fixed_z_qp(inst, (rng_for(42).uniform(size=inst.n) < d).astype(np.int64))
        assert x_py.tobytes() == x.tobytes() and value_py == value


def counting_orders(monkeypatch):
    """Patch oracle.fill_reducing_order to record the instances it orders."""
    seen = []
    original = oracle.fill_reducing_order

    def counting(instance):
        seen.append(instance)
        return original(instance)

    monkeypatch.setattr(oracle, "fill_reducing_order", counting)
    return seen


def test_run_computes_the_order_once(monkeypatch):
    inst = gen_lattice2d(20, 20, 0.3, 0.1, 0)
    seen = counting_orders(monkeypatch)
    refits = []

    def counting_refit(instance, z):
        refits.append(instance)
        return fixed_z_qp(instance, z)

    monkeypatch.setattr(decomp, "fixed_z_qp", counting_refit)
    res = run(inst, default_relaxation(inst), RunConfig("harmonic", eps=1e-3, max_iter=300))
    assert len(refits) > 5 and res.reason == "gap"
    assert len(seen) == 1 and seen[0] is inst


def test_order_is_not_computed_before_the_first_refit(monkeypatch, tmp_path):
    seen = counting_orders(monkeypatch)
    inst = gen_lattice2d(6, 6, 0.3, 0.1, 0)
    validate(inst)
    support_graph(inst)
    default_relaxation(inst)
    path = tmp_path / "inst.json"
    write_instance(inst, str(path))
    read_instance(str(path))
    assert not seen and "fill_order" not in vars(inst)
    fixed_z_qp(inst, np.ones(inst.n))
    assert seen == [inst] and "fill_order" in vars(inst)


def test_order_does_not_leak_into_files(tmp_path):
    inst = gen_lattice2d(5, 4, 0.3, 0.1, 1)
    first = tmp_path / "before.json"
    write_instance(inst, str(first))
    fixed_z_qp(inst, np.ones(inst.n))
    second = tmp_path / "after.json"
    write_instance(inst, str(second))
    assert first.read_text() == second.read_text()
    back = read_instance(str(second))
    assert "fill_order" not in vars(back)
    assert np.array_equal(back.fill_order, inst.fill_order) and back.fill_order is not inst.fill_order


def test_copies_get_their_own_order(monkeypatch):
    inst = gen_lattice2d(5, 7, 0.3, 0.1, 2)
    z = (rng_for(43).uniform(size=inst.n) < 0.7).astype(np.int64)
    fixed_z_qp(inst, z)
    seen = counting_orders(monkeypatch)
    pi = rng_for(44).permutation(inst.n)
    moved = permute(inst, pi)
    x, value = fixed_z_qp(moved, z[pi])
    assert seen == [moved]
    x_ref, v_ref = fixed_z_qp(inst, z)
    assert np.allclose(x, x_ref[pi], rtol=1e-13, atol=1e-13) and abs(value - v_ref) <= 1e-12 * abs(v_ref)
    # a copy with a longer Q: one more coupling, so another pattern
    wider = dataclasses.replace(
        inst, qi=np.append(inst.qi, 0), qj=np.append(inst.qj, inst.n - 1), qv=np.append(inst.qv, -0.01)
    )
    assert "fill_order" not in vars(wider)
    assert_matches_splu(wider, np.ones(inst.n))
    assert seen == [moved, wider]
