"""The setup layer's array code against the per-triplet and per-term loops
it replaces: `Instance` construction with `validate`, `support_graph` and
`build_relaxation` must give the same split, the same relaxation bytes and
the same errors as the loops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l0path import (
    InputError,
    NotDiagonallyDominant,
    NotSymmetricStorage,
    SegmentNotPD,
    TemplateMismatch,
    Term,
    gen_lattice2d,
    path_cover,
    support_graph,
    validate,
)
from l0path.decomp import build_relaxation
from l0path.instance import DD_TOL

from conftest import first_failing_pivot, make_instance, random_dd_instance, rng_for


# Reference oracles: the loops the array code replaces.


def validate_loop(n, trips):
    """(D, terms) of the split of the (i, j, v) triplets, raising as
    construction and validate together must."""
    seen = set()
    diag = np.zeros(n)
    absrow = np.zeros(n)
    terms = []
    for i, j, v in trips:
        i, j, v = int(i), int(j), float(v)
        if not (0 <= i <= j < n):
            raise NotSymmetricStorage(f"triplet ({i}, {j}) outside the upper triangle")
        if (i, j) in seen:
            raise NotSymmetricStorage(f"duplicate triplet ({i}, {j})")
        seen.add((i, j))
        if i == j:
            diag[i] = v
        else:
            if v == 0.0:
                raise NotSymmetricStorage(f"zero-valued off-diagonal ({i}, {j})")
            absrow[i] += abs(v)
            absrow[j] += abs(v)
            terms.append(Term(i, j, abs(v), 1 if v > 0 else -1))
    residual = diag - absrow
    for i in range(n):
        if residual[i] < -DD_TOL:
            raise NotDiagonallyDominant(i, float(residual[i]))
    terms.sort(key=lambda t: (t.i, t.j))
    return np.maximum(residual, 0.0), tuple(terms)


def quad_loop(D, terms, x):
    val = 0.5 * float(D @ (x * x))
    for t in terms:
        val += 0.5 * t.w * (x[t.i] + t.sign * x[t.j]) ** 2
    return val


def retained_pairs(g, ordering):
    """The cover's retained edges (i, j) of the graph g, as Python ints."""
    return list(zip(g.i[ordering.retained].tolist(), g.j[ordering.retained].tolist()))


def build_relaxation_loop(instance, pi, retained):
    """(pi, segments, block_diag, block_off, retained, relaxed) of the
    relaxation that keeps the (i, j) pairs `retained` on the ordering pi,
    from the loop's own split of the instance."""
    n = instance.n
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n, dtype=np.int64)
    keep = set(retained)
    D, terms = validate_loop(n, triplets(instance))
    ret_pos, rel_pos = [], []
    for t in terms:
        p, q = int(inv[t.i]), int(inv[t.j])
        if p > q:
            p, q = q, p
        pos_term = Term(i=p, j=q, w=t.w, sign=t.sign)
        if (t.i, t.j) in keep:
            if q != p + 1:
                raise InputError(
                    f"retained pair ({t.i}, {t.j}) not consecutive under the ordering"
                )
            ret_pos.append(pos_term)
        else:
            rel_pos.append(pos_term)
    ret_pos.sort(key=lambda t: (t.i, t.j))
    rel_pos.sort(key=lambda t: (t.i, t.j))
    diag = D[pi]
    off = np.zeros(max(n - 1, 0))
    joined = np.zeros(max(n - 1, 0), dtype=bool)
    for t in ret_pos:
        diag[t.i] += t.w
        diag[t.j] += t.w
        off[t.i] = t.sign * t.w
        joined[t.i] = True
    segments = []
    start = 0
    for t in range(1, n + 1):
        if t == n or not joined[t - 1]:
            segments.append((start, t))
            start = t
    block_diag = tuple(diag[s:e].copy() for s, e in segments)
    block_off = tuple(off[s : e - 1].copy() for s, e in segments)
    rng = np.random.Generator(np.random.Philox(key=0xD0))
    for _ in range(3):
        x = rng.standard_normal(n)
        x_ord = x[pi]
        lhs = quad_loop(D, terms, x)
        rhs = 0.0
        for (s, e), dg, of in zip(segments, block_diag, block_off):
            xs = x_ord[s:e]
            rhs += 0.5 * (dg @ xs**2) + of @ (xs[:-1] * xs[1:])
        for t in rel_pos:
            rhs += 0.5 * t.w * (x_ord[t.i] + t.sign * x_ord[t.j]) ** 2
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
            raise TemplateMismatch("segment templates do not reproduce the quadratic form")
    for (s, e), dg, of in zip(segments, block_diag, block_off):
        if first_failing_pivot(dg, of) >= 0:
            raise SegmentNotPD(s, e)
    return pi, tuple(segments), block_diag, block_off, tuple(ret_pos), tuple(rel_pos)


def outcome(fn, *args):
    """fn's result, or the class and text of the error it raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not swallowed
        return None, (type(exc), str(exc))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Strategy: the (a, c, triplets) of well-formed instances, of lattices, and
# of malformed triplet sets carrying one or several storage or dominance
# faults.

_FAULTS = ("lower", "outside", "duplicate", "zero", "not_dd", "not_dd", "tight")


def triplets(inst):
    return list(zip(inst.qi.tolist(), inst.qj.tolist(), inst.qv.tolist()))


@st.composite
def triplet_sets(draw):
    if draw(st.booleans()):
        rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        inst = gen_lattice2d(rows, cols, 0.3, 0.1, draw(st.integers(0, 50)))
        return inst.a, inst.c, triplets(inst)
    n = draw(st.integers(1, 9))
    inst = random_dd_instance(rng_for(draw(st.integers(0, 10**6))), n)
    trips = triplets(inst)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(trips) - 1))
        i, j, v = trips[k]
        fault = draw(st.sampled_from(_FAULTS))
        # faulty triplets are sometimes zero-valued too, which puts two
        # faults on one triplet
        v_bad = draw(st.sampled_from([v, 1.0, 0.0]))
        if fault == "lower" and i != j:
            trips[k] = (j, i, v_bad)
        elif fault == "outside":
            trips[k] = (i, draw(st.sampled_from([n, n + 3])), v_bad) if draw(st.booleans()) else (-1, j, v_bad)
        elif fault == "duplicate":
            trips.insert(draw(st.integers(k + 1, len(trips))), (i, j, v_bad))
        elif fault == "zero" and i != j:
            trips[k] = (i, j, draw(st.sampled_from([0.0, -0.0])))
        elif fault == "not_dd" and i == j:
            trips[k] = (i, j, draw(st.sampled_from([0.1 * v, -1e-10, -1e-8, -1.0])))
        elif fault == "tight":
            trips = tighten(trips, n)
    return inst.a, inst.c, trips


def tighten(trips, n, tight=None):
    """Set each diagonal in `tight` (default: all) to its row's absolute
    off-diagonal sum, so that its residual D_i is zero: still dominant,
    but a segment of tight variables only is singular."""
    absrow = np.zeros(n + 4)
    for a, b, w in trips:
        if a != b:
            absrow[a] += abs(w)
            absrow[b] += abs(w)
    return [
        (a, b, float(absrow[a]) if a == b and (tight is None or a in tight) else w)
        for a, b, w in trips
    ]


def make_and_validate(a, c, trips):
    return validate(make_instance(a, c, trips))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(triplet_sets())
def test_validate_and_support_graph_match_loops(case):
    a, c, trips = case
    got, got_err = outcome(make_and_validate, a, c, trips)
    want, want_err = outcome(validate_loop, len(a), trips)
    assert got_err == want_err
    if want is not None:
        D, terms = want
        assert same_bytes(got, D) and not got.flags.writeable
        # the support graph's edges are the split's terms
        g = support_graph(make_instance(a, c, trips))
        assert same_bytes(g.i, np.array([t.i for t in terms], dtype=np.int64))
        assert same_bytes(g.j, np.array([t.j for t in terms], dtype=np.int64))
        assert same_bytes(g.w, np.array([t.w for t in terms], dtype=np.float64))
        assert same_bytes(g.sign, np.array([t.sign for t in terms], dtype=np.int64))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(triplet_sets())
def test_build_relaxation_matches_loop(case):
    try:
        inst = make_instance(*case)
        validate(inst)
    except InputError:
        return
    # build_relaxation reads the cover's edge mask as a mask over the
    # graph's edges; the loop looks each term up by its (i, j) pair, on
    # the same deterministic cover
    g = support_graph(inst)
    ordering = path_cover(g)
    got, got_err = outcome(build_relaxation, inst)
    want, want_err = outcome(build_relaxation_loop, inst, ordering.pi, retained_pairs(g, ordering))
    assert got_err == want_err
    if want is not None:
        pi_w, segments, block_diag, block_off, ret, rel = want
        assert same_bytes(got.pi, pi_w)
        assert got.segments == segments
        # one template over all positions, equal to the per-segment
        # copies and zero at every cut between segments
        assert got.diag.shape == (inst.n,) and got.off.shape == (inst.n - 1,)
        assert not got.diag.flags.writeable and not got.off.flags.writeable
        for (s, e), dg, of in zip(segments, block_diag, block_off, strict=True):
            assert same_bytes(got.diag[s:e], dg)
            assert same_bytes(got.off[s : e - 1], of)
        assert not got.off[[e - 1 for _, e in segments[:-1]]].any()
        assert got.retained == ret and got.relaxed == rel
        assert same_bytes(got.rel_i, np.array([t.i for t in rel], dtype=np.int64))
        assert same_bytes(got.rel_j, np.array([t.j for t in rel], dtype=np.int64))
        assert same_bytes(got.rel_w, np.array([t.w for t in rel], dtype=np.float64))
        assert same_bytes(got.rel_sign, np.array([t.sign for t in rel], dtype=np.int64))


def test_build_relaxation_singular_segments_match_loop():
    # tight variables have D_i = 0, so every segment made of them only is
    # singular; the reference's scalar pivot loop and the segment kernel
    # must name the same first such segment
    rng = rng_for(41)
    named, built = set(), 0
    for t in range(60):
        n = int(rng.integers(1, 10))
        inst = random_dd_instance(rng, n)
        tight = None if t % 4 == 0 else set(np.flatnonzero(rng.uniform(size=n) < 0.7).tolist())
        inst = make_instance(inst.a, inst.c, tighten(triplets(inst), n, tight))
        g = support_graph(inst)
        ordering = path_cover(g)
        got, got_err = outcome(build_relaxation, inst)
        want, want_err = outcome(build_relaxation_loop, inst, ordering.pi, retained_pairs(g, ordering))
        assert got_err == want_err
        if want_err is None:
            built += 1
            assert got.segments == want[1]
        else:
            assert want_err[0] is SegmentNotPD
            named.add(want_err[1].startswith("segment [0,"))
    # first segments and later ones are both named, and some relaxations build
    assert named == {False, True} and built > 0


def test_validate_names_the_first_fault_in_storage_order():
    # a zero off-diagonal stored before a lower-triangle triplet and a
    # duplicate: construction names the zero; dominance is only checked
    # afterwards, by validate
    with pytest.raises(NotSymmetricStorage, match=r"zero-valued off-diagonal \(0, 1\)"):
        make_instance(
            [0.0] * 3,
            [0.0] * 3,
            [(0, 0, 0.1), (0, 1, 0.0), (2, 1, 1.0), (0, 0, 1.0), (1, 1, 9.0), (2, 2, 9.0)],
        )
    # a zero-valued lower-triangle triplet is named for its position
    with pytest.raises(NotSymmetricStorage, match=r"triplet \(1, 0\) outside the upper triangle"):
        make_instance([0.0] * 2, [0.0] * 2, [(0, 0, 2.0), (1, 0, 0.0), (1, 1, 2.0)])
    # the first copy of a repeated triplet is valid; the second is named
    with pytest.raises(NotSymmetricStorage, match=r"duplicate triplet \(0, 1\)"):
        make_instance([0.0] * 2, [0.0] * 2, [(0, 0, 2.0), (0, 1, 1.0), (0, 1, 1.0), (1, 1, 2.0)])
