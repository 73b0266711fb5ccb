"""Problem data model: validation, diagonally-dominant splitting,
permutation, instance generators, and JSON file I/O.

The objective convention throughout is

    a . z + c . x + (1/2) x' Q x,    x_i (1 - z_i) = 0,  z binary,

with Q kept as upper-triangle coordinate triplets (i <= j, one entry per
cell). Python-level indices are 0-based; the on-disk JSON format is
1-based. Instances are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InputError,
    InvalidPermutation,
    NotDiagonallyDominant,
    NotSymmetricStorage,
    ParseError,
)

DD_TOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _assign_last(size: int, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Zeros with out[idx[k]] = vals[k]; a repeated index keeps its last
    value, as a loop of assignments would."""
    out = np.zeros(size)
    where, last = np.unique(idx[::-1], return_index=True)
    out[where] = vals[::-1][last]
    return out


@dataclass(frozen=True, eq=False)
class Instance:
    """One L0-penalized quadratic minimization problem.

    Attributes:
        n: variable count.
        a: indicator penalties, length n.
        c: linear costs, length n.
        qi, qj, qv: upper-triangle triplets of Q (qi <= qj elementwise).
        offset: constant added to the objective when reporting
            data-derived values (e.g. the squared-observation term of a
            denoising model).
        meta: generator metadata; may carry observations "y" and a box
            radius "M". The generators set M = max |y|: Q restricted to
            any support S is an M-matrix A with A 1 >= (1/sigma^2) 1 and
            x_S = A^-1 y_S / sigma^2, so each x_i is a combination of y
            values with nonnegative weights summing to at most 1.
    """

    n: int
    a: np.ndarray
    c: np.ndarray
    qi: np.ndarray
    qj: np.ndarray
    qv: np.ndarray
    offset: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("a", "c", "qi", "qj", "qv"):
            dtype = np.int64 if name in ("qi", "qj") else np.float64
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=dtype)))
        if self.a.shape != (self.n,) or self.c.shape != (self.n,):
            raise ValueError("a and c must have length n")
        if not (self.qi.shape == self.qj.shape == self.qv.shape):
            raise ValueError("Q triplet arrays must have equal length")

    @cached_property
    def fill_order(self) -> np.ndarray:
        """Position of each variable in one fill-reducing elimination order
        of Q's pattern (oracle.fill_reducing_order). Computed at its first
        use, the first refit, and kept with this object only: copies made
        by permute or dataclasses.replace, and instances read back from a
        file, compute their own."""
        from . import oracle  # oracle imports this module

        return _frozen(oracle.fill_reducing_order(self))

    def dense_q(self) -> np.ndarray:
        """Materialize Q as a dense symmetric matrix (small n only); each
        triplet writes (i, j), then (j, i), and the last write wins."""
        n = self.n
        ij = np.stack((self.qi, self.qj), axis=1)
        # numbering the cells by 2-d indexing raises on an out-of-range
        # index and wraps a negative one, as q[i, j] = v would
        cells = np.arange(n * n).reshape(n, n)[ij, ij[:, ::-1]].ravel()
        return _assign_last(n * n, cells, np.repeat(self.qv, 2)).reshape(n, n)

    def objective(self, x: np.ndarray, z: np.ndarray) -> float:
        """Evaluate a . z + c . x + (1/2) x' Q x (offset excluded)."""
        diag = self.qi == self.qj
        quad = 0.5 * np.sum(self.qv[diag] * x[self.qi[diag]] ** 2)
        quad += np.sum(self.qv[~diag] * x[self.qi[~diag]] * x[self.qj[~diag]])
        return float(self.a @ z + self.c @ x + quad)


@dataclass(frozen=True)
class Term:
    """One signed pairwise square w * (x_i + sign * x_j)^2 of the split."""

    i: int
    j: int
    w: float
    sign: int


def _terms(i, j, w, sign) -> tuple[Term, ...]:
    """Term tuple from the four term arrays, with Python scalars."""
    return tuple(map(Term, i.tolist(), j.tolist(), w.tolist(), sign.tolist()))


@dataclass(frozen=True, eq=False)
class DDForm:
    """Diagonally-dominant split of Q.

    (1/2) x'Qx == (1/2) sum_i D_i x_i^2 + (1/2) sum_terms w (x_i + sign x_j)^2
    with D_i = Q_ii - sum_{j != i} |Q_ij| >= 0. The terms are held as
    read-only arrays (term_i, term_j, term_w, term_sign), one entry per
    term, sorted by (i, j).
    """

    D: np.ndarray
    term_i: np.ndarray
    term_j: np.ndarray
    term_w: np.ndarray
    term_sign: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "D", _frozen(np.asarray(self.D, dtype=np.float64)))
        for name, dtype in (
            ("term_i", np.int64),
            ("term_j", np.int64),
            ("term_w", np.float64),
            ("term_sign", np.int64),
        ):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=dtype)))

    def quad(self, x: np.ndarray) -> float:
        """Evaluate (1/2) x'Qx through the split form."""
        pair = x[self.term_i] + self.term_sign * x[self.term_j]
        return 0.5 * float(self.D @ (x * x)) + 0.5 * float(self.term_w @ (pair * pair))


@dataclass(frozen=True, eq=False)
class SupportGraph:
    """Undirected graph with an edge wherever Q_ij != 0, weighted |Q_ij|.

    Edge k joins i[k] < j[k] with weight w[k]; the arrays are read-only
    and sorted by (i, j, w).
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name, dtype in (("i", np.int64), ("j", np.int64), ("w", np.float64)):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=dtype)))


def _first_storage_fault(instance: Instance) -> NotSymmetricStorage | None:
    """The error a triplet-by-triplet scan in storage order meets first:
    per triplet, outside the upper triangle, then a repeat of an earlier
    triplet, then a zero off-diagonal value."""
    n = instance.n
    qi, qj, qv = instance.qi, instance.qj, instance.qv
    outside = ~((qi >= 0) & (qi <= qj) & (qj < n))
    # triplets outside the triangle get distinct negative keys, so they
    # never count as repeats
    key = np.where(outside, -1 - np.arange(qi.size), qi * n + qj)
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(qi.size, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    zero = (qi != qj) & (qv == 0.0)
    fault = outside | repeat | zero
    if not fault.any():
        return None
    k = int(np.argmax(fault))
    i, j = int(qi[k]), int(qj[k])
    if outside[k]:
        return NotSymmetricStorage(f"triplet ({i}, {j}) outside the upper triangle")
    if repeat[k]:
        return NotSymmetricStorage(f"duplicate triplet ({i}, {j})")
    return NotSymmetricStorage(f"zero-valued off-diagonal ({i}, {j})")


def validate(instance: Instance) -> DDForm:
    """Check storage structure and diagonal dominance; return the split.

    Raises NotSymmetricStorage for duplicate, lower-triangle, or zero-valued
    off-diagonal triplets, naming the first offending triplet in storage
    order, and NotDiagonallyDominant at the first variable whose residual
    D_i falls below -1e-9. Residuals in [-1e-9, 0) are clamped to zero.
    """
    fault = _first_storage_fault(instance)
    if fault is not None:
        raise fault
    n = instance.n
    qi, qj, qv = instance.qi, instance.qj, instance.qv
    on_diag = qi == qj
    diag = np.zeros(n)
    diag[qi[on_diag]] = qv[on_diag]
    ti, tj, tv = qi[~on_diag], qj[~on_diag], qv[~on_diag]
    tw = np.abs(tv)
    # ufunc.at adds in index order: both endpoints of each triplet in
    # storage order, as a loop of += over the triplets would
    absrow = np.zeros(n)
    np.add.at(absrow, np.stack((ti, tj), axis=1).ravel(), np.repeat(tw, 2))
    residual = diag - absrow
    below = residual < -DD_TOL
    if below.any():
        i = int(np.argmax(below))
        raise NotDiagonallyDominant(i, float(residual[i]))
    residual = np.maximum(residual, 0.0)
    order = np.lexsort((tj, ti))
    ti, tj, tw = ti[order], tj[order], tw[order]
    sign = np.where(tv[order] > 0, 1, -1)
    return DDForm(D=residual, term_i=ti, term_j=tj, term_w=tw, term_sign=sign)


def support_graph(instance: Instance) -> SupportGraph:
    """Edges (i, j, |Q_ij|) for the nonzero off-diagonals, sorted."""
    qi, qj, qv = instance.qi, instance.qj, instance.qv
    nz = (qi != qj) & (qv != 0.0)
    i, j, w = qi[nz], qj[nz], np.abs(qv[nz])
    order = np.lexsort((w, j, i))
    return SupportGraph(n=instance.n, i=i[order], j=j[order], w=w[order])


def permute(instance: Instance, pi) -> Instance:
    """Reindex variables so that new position t holds old variable pi[t].

    The objective value of any solution is preserved under the same
    reindexing. Positional metadata ("y") is carried along.
    """
    pi = np.asarray(pi, dtype=np.int64)
    n = instance.n
    if pi.shape != (n,) or not np.array_equal(np.sort(pi), np.arange(n)):
        raise InvalidPermutation(f"not a bijection on 0..{n - 1}")
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n)
    ni, nj = inv[instance.qi], inv[instance.qj]
    qi, qj = np.minimum(ni, nj), np.maximum(ni, nj)
    order = np.lexsort((instance.qv, qj, qi))
    meta = dict(instance.meta)
    if "y" in meta:
        meta["y"] = np.asarray(meta["y"], dtype=np.float64)[pi].tolist()
    return Instance(
        n=n,
        a=instance.a[pi],
        c=instance.c[pi],
        qi=qi[order],
        qj=qj[order],
        qv=instance.qv[order],
        offset=instance.offset,
        meta=meta,
    )


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator so the draw sequence is reproducible across
    # platforms and documented for reimplementation
    if not 0 <= seed < 2**128:
        raise InputError(f"seed {seed} is out of range 0 .. 2**128 - 1")
    return np.random.Generator(np.random.Philox(key=seed))


def _build(n, a, c, diag, i, j, v, offset=0.0, meta=None) -> Instance:
    """Instance with diagonal `diag` and off-diagonal triplets (i, j, v),
    exact zeros dropped, sorted by (i, j, v)."""
    keep = v != 0.0
    qi = np.concatenate((np.arange(n), i[keep]))
    qj = np.concatenate((np.arange(n), j[keep]))
    qv = np.concatenate((diag, v[keep]))
    order = np.lexsort((qv, qj, qi))
    # extreme parameters overflow or turn into nan here; such an instance
    # could not be written and read back
    for what, vals in (("a", a), ("c", c), ("Q", qv), ("offset", [offset])):
        if not np.all(np.isfinite(vals)):
            raise InputError(f"the generated {what} is not finite; the parameters are out of range")
    return Instance(
        n=n,
        a=a,
        c=c,
        qi=qi[order],
        qj=qj[order],
        qv=qv[order],
        offset=offset,
        meta=meta or {},
    )


def gen_tridiagonal(n: int, seed: int) -> Instance:
    """Random diagonally-dominant tridiagonal instance.

    Draw order: c ~ U[-10, 3]^n, a ~ U[0, 1]^n, off ~ U[-2, 2]^(n-1),
    slack ~ U[0, 4]^n; Q_ii = |off_{i-1}| + |off_i| + slack_i.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = _rng(seed)
    c = rng.uniform(-10.0, 3.0, n)
    a = rng.uniform(0.0, 1.0, n)
    off = rng.uniform(-2.0, 2.0, n - 1) if n > 1 else np.empty(0)
    slack = rng.uniform(0.0, 4.0, n)
    diag = slack.copy()
    if n > 1:
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
    i = np.arange(n - 1)
    return _build(n, a, c, diag, i, i + 1, off)


def _smooth_sparse_truth(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse signal with a few smooth bumps, ~10% of positions active."""
    truth = np.zeros(n)
    length = min(n, max(3, n // 20))
    bumps = round(0.1 * n / length)  # can be zero: tiny n carries no signal
    for _ in range(bumps):
        start = int(rng.integers(0, max(1, n - length + 1)))
        amp = rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        t = np.arange(length)
        truth[start : start + length] = amp * np.sin(np.pi * (t + 1) / (length + 1))
    return truth


def gen_signal1d(n: int, sigma: float, mu: float, seed: int) -> Instance:
    """Sparse smooth-signal denoising instance on a path.

    Models sum_t (x_t - y_t)^2 + sum_t (x_{t+1} - x_t)^2 + mu * |support|,
    where y is a noisy observation of a sparse piecewise-smooth signal.
    The constant sum_t y_t^2 is recorded as the instance offset.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    if not sigma >= 0:
        raise InputError("sigma must be >= 0")
    rng = _rng(seed)
    truth = _smooth_sparse_truth(n, rng)
    y = truth + rng.normal(0.0, sigma, n)
    i = np.arange(n - 1)
    deg = np.bincount(np.concatenate((i, i + 1)), minlength=n)
    diag = 2.0 * (1.0 + deg)
    v = np.full(n - 1, -2.0)
    meta = {"y": y.tolist(), "M": float(np.max(np.abs(y)))}
    # an extreme sigma overflows here; _build reports it as the one error
    with np.errstate(over="ignore", invalid="ignore"):
        offset = float(np.sum(y * y))
    return _build(n, np.full(n, float(mu)), -2.0 * y, diag, i, i + 1, v, offset=offset, meta=meta)


def gen_lattice2d(rows: int, cols: int, sigma: float, mu: float, seed: int) -> Instance:
    """Grid-graph MAP denoising instance.

    Models sum_i (x_i - y_i)^2 / sigma^2 + sum_{(i,j) in grid} (x_i - x_j)^2
    + mu * |support|. Ground truth is zero outside a few rectangular
    patches covering roughly 10% of the grid. Node (r, s) maps to index
    r * cols + s.
    """
    if rows < 2 or cols < 2:
        raise InputError("rows and cols must be >= 2")
    if not sigma > 0:
        raise InputError("sigma must be > 0")
    rng = _rng(seed)
    n = rows * cols
    truth = np.zeros((rows, cols))
    ph = max(2, rows // 5)
    pw = max(2, cols // 5)
    patches = max(1, round(0.1 * n / (ph * pw)))
    for _ in range(patches):
        r0 = int(rng.integers(0, rows - ph + 1))
        c0 = int(rng.integers(0, cols - pw + 1))
        amp = rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        truth[r0 : r0 + ph, c0 : c0 + pw] = amp
    y = (truth + rng.normal(0.0, sigma, (rows, cols))).ravel()
    # right neighbours, then down neighbours, of the row-major grid
    grid = np.arange(n).reshape(rows, cols)
    i = np.concatenate((grid[:, :-1].ravel(), grid[:-1, :].ravel()))
    j = np.concatenate((grid[:, 1:].ravel(), grid[1:, :].ravel()))
    deg = np.bincount(np.concatenate((i, j)), minlength=n)
    try:
        var = sigma**2
        diag = 2.0 / var + 2.0 * deg
    except (ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"sigma {sigma!r} is out of range: its square is not a usable variance") from None
    meta = {"y": y.tolist(), "M": float(np.max(np.abs(y)))}
    # an extreme sigma overflows here; _build reports it as the one error
    with np.errstate(over="ignore", invalid="ignore"):
        c = -2.0 * y / var
        offset = float(np.sum(y * y) / var)
    v = np.full(i.size, -2.0)
    return _build(n, np.full(n, float(mu)), c, diag, i, j, v, offset=offset, meta=meta)


def write_instance(instance: Instance, path: str) -> None:
    """Write the JSON instance format (keys n, a, c, Q, offset, meta)."""
    doc = {
        "n": instance.n,
        "a": instance.a.tolist(),
        "c": instance.c.tolist(),
        "Q": [list(t) for t in zip((instance.qi + 1).tolist(), (instance.qj + 1).tolist(), instance.qv.tolist())],
        "offset": float(instance.offset),
        "meta": instance.meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _field(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ParseError(f"{path}: missing field '{key}'")
    val = doc[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ParseError(f"{path}: field '{key}' has the wrong type")
    return val


def _number(val, what: str, path: str) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ParseError(f"{path}: {what} is not a number")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ParseError(f"{path}: {what} is not finite")
    return out


def _float_list(doc: dict, key: str, n: int, path: str) -> np.ndarray:
    raw = _field(doc, key, list, path)
    if len(raw) != n:
        raise ParseError(f"{path}: field '{key}' must have length {n}")
    return np.array([_number(v, f"'{key}[{k}]'", path) for k, v in enumerate(raw)])


def read_instance(path: str) -> Instance:
    """Read the JSON instance format; raises ParseError with field context."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not JSON, not UTF-8 text, or nested past the recursion limit
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    n = _field(doc, "n", int, path)
    if isinstance(n, bool) or n < 1:
        raise ParseError(f"{path}: 'n' must be a positive integer")
    a = _float_list(doc, "a", n, path)
    c = _float_list(doc, "c", n, path)
    raw_q = _field(doc, "Q", list, path)
    qi, qj, qv = [], [], []
    for k, trip in enumerate(raw_q):
        if not (isinstance(trip, list) and len(trip) == 3):
            raise ParseError(f"{path}: 'Q[{k}]' must be a [i, j, value] triplet")
        i, j, v = trip
        if any(not isinstance(idx, int) or isinstance(idx, bool) for idx in (i, j)):
            raise ParseError(f"{path}: 'Q[{k}]' indices must be integers")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"{path}: 'Q[{k}]' index out of range 1..{n}")
        if i > j:
            raise ParseError(f"{path}: 'Q[{k}]' must satisfy i <= j")
        qi.append(i - 1)
        qj.append(j - 1)
        qv.append(_number(v, f"'Q[{k}]' value", path))
    offset = _number(doc["offset"], "'offset'", path) if "offset" in doc else 0.0
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: 'meta' must be an object")
    if "M" in meta:
        # the solver reads M as the big-M box radius
        _number(meta["M"], "'meta.M'", path)
    return Instance(
        n=n,
        a=a,
        c=c,
        qi=np.array(qi, dtype=np.int64),
        qj=np.array(qj, dtype=np.int64),
        qv=np.array(qv, dtype=np.float64),
        offset=offset,
        meta=meta,
    )
