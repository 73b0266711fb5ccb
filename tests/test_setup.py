"""The setup layer's array code against the per-triplet and per-term loops
it replaces: `validate`, `support_graph`, `DDForm.quad` and
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
    build_relaxation,
    gen_lattice2d,
    path_cover,
    support_graph,
    validate,
)
from l0path.instance import DD_TOL
from l0path.tridiag import TridiagProblem
from l0path.errors import NotPositiveDefinite

from conftest import make_instance, random_dd_instance, rng_for


# Reference oracles: the loops the array code replaces.


def validate_loop(instance):
    """(D, terms) of the split, raising as the array form must."""
    n = instance.n
    seen = set()
    diag = np.zeros(n)
    absrow = np.zeros(n)
    terms = []
    for i, j, v in zip(instance.qi, instance.qj, instance.qv):
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


def support_graph_loop(instance):
    return tuple(
        sorted(
            (int(i), int(j), abs(float(v)))
            for i, j, v in zip(instance.qi, instance.qj, instance.qv)
            if i != j and v != 0.0
        )
    )


def split_terms(dd):
    """The split's terms as Term tuples, in array order."""
    arrays = (dd.term_i, dd.term_j, dd.term_w, dd.term_sign)
    return [Term(*t) for t in zip(*(a.tolist() for a in arrays))]


def quad_loop(D, terms, x):
    val = 0.5 * float(D @ (x * x))
    for t in terms:
        val += 0.5 * t.w * (x[t.i] + t.sign * x[t.j]) ** 2
    return val


def build_relaxation_loop(instance, dd, ordering, retained):
    """(pi, segments, block_diag, block_off, retained, relaxed) of the relaxation."""
    n = instance.n
    pi = np.asarray(ordering, dtype=np.int64)
    if pi.shape != (n,) or len(np.unique(pi)) != n or pi.min() < 0 or pi.max() >= n:
        raise InputError("ordering is not a permutation of 0..n-1")
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n, dtype=np.int64)
    keep = {(min(i, j), max(i, j)) for i, j in retained}
    terms = split_terms(dd)
    known = {(t.i, t.j) for t in terms}
    for pair in keep:
        if pair not in known:
            raise InputError(f"retained pair {pair} is not a coupling of the instance")
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
    diag = dd.D[pi]
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
        lhs = quad_loop(dd.D, terms, x)
        rhs = 0.0
        for (s, e), dg, of in zip(segments, block_diag, block_off):
            xs = x_ord[s:e]
            rhs += 0.5 * (dg @ xs**2) + of @ (xs[:-1] * xs[1:])
        for t in rel_pos:
            rhs += 0.5 * t.w * (x_ord[t.i] + t.sign * x_ord[t.j]) ** 2
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
            raise TemplateMismatch("segment templates do not reproduce the quadratic form")
    for (s, e), dg, of in zip(segments, block_diag, block_off):
        try:
            TridiagProblem(m=e - s, a=instance.a[pi][s:e], c=instance.c[pi][s:e], diag=dg, off=of)
        except NotPositiveDefinite as exc:
            raise SegmentNotPD(s, e) from exc
    return pi, tuple(segments), block_diag, block_off, tuple(ret_pos), tuple(rel_pos)


def outcome(fn, *args):
    """fn's result, or the class and text of the error it raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not swallowed
        return None, (type(exc), str(exc))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Strategies: well-formed instances, lattices, and malformed triplet sets
# carrying one or several storage or dominance faults.

_FAULTS = ("lower", "outside", "duplicate", "zero", "not_dd", "not_dd", "tight")


@st.composite
def instances(draw):
    if draw(st.booleans()):
        rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        return gen_lattice2d(rows, cols, 0.3, 0.1, draw(st.integers(0, 50)))
    n = draw(st.integers(1, 9))
    inst = random_dd_instance(rng_for(draw(st.integers(0, 10**6))), n)
    trips = list(zip(inst.qi.tolist(), inst.qj.tolist(), inst.qv.tolist()))
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
            # every residual D_i zero: dominant, but segments can be singular
            absrow = np.zeros(n + 4)
            for a, b, w in trips:
                if a != b:
                    absrow[a] += abs(w)
                    absrow[b] += abs(w)
            trips = [(a, b, float(absrow[a]) if a == b else w) for a, b, w in trips]
    return make_instance(inst.a, inst.c, trips)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(instances())
def test_validate_and_support_graph_match_loops(inst):
    got, got_err = outcome(validate, inst)
    want, want_err = outcome(validate_loop, inst)
    assert got_err == want_err
    if want is not None:
        D, terms = want
        assert same_bytes(got.D, D)
        assert same_bytes(got.term_i, np.array([t.i for t in terms], dtype=np.int64))
        assert same_bytes(got.term_j, np.array([t.j for t in terms], dtype=np.int64))
        assert same_bytes(got.term_w, np.array([t.w for t in terms], dtype=np.float64))
        assert same_bytes(got.term_sign, np.array([t.sign for t in terms], dtype=np.int64))
        x = rng_for(7).standard_normal(inst.n)
        assert got.quad(x) == pytest.approx(quad_loop(D, terms, x), rel=1e-12, abs=1e-12)
        assert support_graph(inst).edges == support_graph_loop(inst)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(instances(), st.data())
def test_build_relaxation_matches_loop(inst, data):
    try:
        dd = validate(inst)
    except InputError:
        return
    ordering = path_cover(support_graph(inst))
    pi, retained = ordering.pi, list(ordering.retained)
    # faulty retained sets: a pair that is no coupling, a coupling that is
    # not consecutive, or a shuffled ordering that splits retained pairs
    fault = data.draw(st.sampled_from(["none", "none", "no_coupling", "relaxed", "shuffle", "not_perm"]))
    if fault == "no_coupling":
        i, j = data.draw(st.integers(-1, inst.n)), data.draw(st.integers(-1, inst.n))
        retained.insert(data.draw(st.integers(0, len(retained))), (i, j))
    elif fault == "relaxed" and ordering.relaxed:
        retained.append(data.draw(st.sampled_from(ordering.relaxed))[::-1])
    elif fault == "shuffle":
        pi = np.array(data.draw(st.permutations(range(inst.n))), dtype=np.int64)
    elif fault == "not_perm" and inst.n > 1:
        pi = pi.copy()
        pi[0] = pi[1]
    got, got_err = outcome(build_relaxation, inst, dd, pi, retained)
    want, want_err = outcome(build_relaxation_loop, inst, dd, pi, retained)
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


def test_validate_names_the_first_fault_in_storage_order():
    # a zero off-diagonal stored before a lower-triangle triplet and a
    # duplicate: the zero is named; dominance is only checked afterwards
    inst = make_instance(
        [0.0] * 3,
        [0.0] * 3,
        [(0, 0, 0.1), (0, 1, 0.0), (2, 1, 1.0), (0, 0, 1.0), (1, 1, 9.0), (2, 2, 9.0)],
    )
    with pytest.raises(NotSymmetricStorage, match=r"zero-valued off-diagonal \(0, 1\)"):
        validate(inst)
    # a zero-valued lower-triangle triplet is named for its position
    inst = make_instance([0.0] * 2, [0.0] * 2, [(0, 0, 2.0), (1, 0, 0.0), (1, 1, 2.0)])
    with pytest.raises(NotSymmetricStorage, match=r"triplet \(1, 0\) outside the upper triangle"):
        validate(inst)
    # the first copy of a repeated triplet is valid; the second is named
    inst = make_instance([0.0] * 2, [0.0] * 2, [(0, 0, 2.0), (0, 1, 1.0), (0, 1, 1.0), (1, 1, 2.0)])
    with pytest.raises(NotSymmetricStorage, match=r"duplicate triplet \(0, 1\)"):
        validate(inst)
