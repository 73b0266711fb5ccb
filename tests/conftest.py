import numpy as np
import pytest

import l0path.decomp as decomp
from l0path import InputError, Instance, SupportGraph
from l0path._kernels import PIVOT_TOL


def make_instance(a, c, entries, offset=0.0, meta=None):
    """Build an Instance from upper-triangle (i, j, v) entries."""
    a = np.asarray(a, dtype=np.float64)
    return Instance(
        n=len(a),
        a=a,
        c=np.asarray(c, dtype=np.float64),
        qi=np.array([e[0] for e in entries], dtype=np.int64),
        qj=np.array([e[1] for e in entries], dtype=np.int64),
        qv=np.array([e[2] for e in entries], dtype=np.float64),
        offset=offset,
        meta=meta or {},
    )


def permute(instance, pi):
    """Reindex variables so that new position t holds old variable pi[t].

    The objective value of any solution is preserved under the same
    reindexing; "y" moves along, and the new Instance sorts Q by (i, j).
    Raises InputError when pi is not a bijection on 0..n-1.
    """
    pi = np.asarray(pi, dtype=np.int64)
    n = instance.n
    if pi.shape != (n,) or not np.array_equal(np.sort(pi), np.arange(n)):
        raise InputError(f"not a bijection on 0..{n - 1}")
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n)
    ni, nj = inv[instance.qi], inv[instance.qj]
    meta = dict(instance.meta)
    if "y" in meta:
        meta["y"] = np.asarray(meta["y"], dtype=np.float64)[pi].tolist()
    return Instance(
        n=n,
        a=instance.a[pi],
        c=instance.c[pi],
        qi=np.minimum(ni, nj),
        qj=np.maximum(ni, nj),
        qv=instance.qv,
        offset=instance.offset,
        meta=meta,
    )


def make_graph(n, edges):
    """Build a SupportGraph from (i, j, w) edges, i < j, in any order, with
    every coupling negative, as the generators make them (the cover reads
    no signs)."""
    e = np.array(edges, dtype=np.float64).reshape(-1, 3)
    order = np.lexsort((e[:, 2], e[:, 1], e[:, 0]))
    return SupportGraph(n=n, i=e[order, 0], j=e[order, 1], w=e[order, 2], sign=np.full(len(e), -1))


# 4-variable running example: star coupling around variable 1 plus a
# (1, 2) chain link; optimum -14.7366... on support {2, 3}.
EXAMPLE_A = [2.0, 2.0, 2.0, 2.0]
EXAMPLE_C = [-1.3, -2.5, 4.6, -7.8]
EXAMPLE_Q = [
    (0, 0, 3.0),
    (0, 1, -1.5),
    (1, 1, 6.0),
    (1, 2, -1.0),
    (1, 3, -0.8),
    (2, 2, 3.0),
    (3, 3, 2.0),
]


# storage faults that the Instance constructor rejects, each with the
# message naming it; every command that reads an instance reports them so
STORAGE_FAULTS = [
    pytest.param(
        # the off-band (0, 2) comes first: the storage check runs before
        # any other
        [(0, 2, 0.5), (0, 0, 2.0), (0, 0, 1.0), (0, 1, -0.5), (1, 1, 2.0), (2, 2, 2.0)],
        "duplicate triplet (0, 0)",
        id="duplicate",
    ),
    pytest.param(
        [(0, 0, 2.0), (0, 1, 0.0), (1, 1, 2.0), (2, 2, 2.0)],
        "zero-valued off-diagonal (0, 1)",
        id="zero_off_diagonal",
    ),
]


@pytest.fixture
def example_instance():
    return make_instance(EXAMPLE_A, EXAMPLE_C, EXAMPLE_Q)


def random_dd_instance(rng, n, density=0.4):
    """Random sparse diagonally-dominant instance with a strict margin."""
    offdiag = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < density:
                v = float(rng.uniform(-2.0, 2.0))
                if v != 0.0:
                    offdiag[(i, j)] = v
    rowsum = np.zeros(n)
    for (i, j), v in offdiag.items():
        rowsum[i] += abs(v)
        rowsum[j] += abs(v)
    entries = [(i, i, rowsum[i] + rng.uniform(0.5, 3.0)) for i in range(n)]
    entries += [(i, j, v) for (i, j), v in sorted(offdiag.items())]
    return make_instance(
        rng.uniform(0.0, 2.0, n), rng.uniform(-10.0, 5.0, n), entries
    )


def first_failing_pivot(diag, off):
    """Scalar forward elimination of a tridiagonal chain: the first
    position whose pivot is <= PIVOT_TOL, or -1 when the chain is
    positive definite."""
    diag, off = diag.tolist(), off.tolist()
    piv = diag[0]
    if piv <= PIVOT_TOL:
        return 0
    for t, o in enumerate(off, start=1):
        piv = diag[t] - o * o / piv
        if piv <= PIVOT_TOL:
            return t
    return -1


def rng_for(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=tag))


def record_duals(monkeypatch, h_eval=None):
    """Wrap decomp.h_eval, or the stand-in h_eval given, so that every call
    appends a copy of the dual point it is evaluated at; returns that list.
    decomp.run evaluates each iteration's point once, before the update,
    so entry k - 1 is the point of iteration k."""
    inner = h_eval or decomp.h_eval
    points = []

    def recording(r, duals):
        points.append(np.array(duals, copy=True))
        return inner(r, duals)

    monkeypatch.setattr(decomp, "h_eval", recording)
    return points
