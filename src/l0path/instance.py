"""Problem data model: validation, the diagonally-dominant split (validate's
residual diagonal and support_graph's signed edges, which are also the path
cover's candidates), instance generators, and JSON file I/O.

The objective convention throughout is

    a . z + c . x + (1/2) x' Q x,    x_i (1 - z_i) = 0,  z binary,

with Q kept as upper-triangle coordinate triplets (i <= j, one entry per
cell, sorted by (i, j)). Python-level indices are 0-based; the on-disk
JSON format is 1-based. An Instance checks this storage contract, the
finiteness of its data and meta["M"] when it is constructed, on read-only
copies of what it is given that nothing a caller holds can change, so
every Instance is valid for its whole life and safe to share across
threads; the solvers do not check or sort again.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InputError,
    NotDiagonallyDominant,
    NotSymmetricStorage,
    ParseError,
)

DD_TOL = 1e-9


def _integer(value, what: str) -> int:
    """value as a Python int, or InputError when it is not an integer:
    operator.index refuses 1.5, 3.0 and "3" alike, and bools, which it
    would take as 0 and 1, are refused before it."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, not {value!r}")


def _shape(value):
    """np.shape(value), or "ragged" for nested sequences of unequal lengths,
    which have no shape."""
    try:
        return np.shape(value)
    except ValueError:
        return "ragged"


def _check_point(n: int, x, z) -> None:
    """InputError unless x and z both have shape (n,)."""
    if _shape(x) != (n,) or _shape(z) != (n,):
        raise InputError(f"x and z must have shape ({n},), not {_shape(x)} and {_shape(z)}")


def _freeze(obj, take=None, **dtypes) -> None:
    """Store each named field of the frozen dataclass obj as a read-only copy
    of the given dtype, gathered at `take` if given, aliasing no array its caller holds."""
    for name, dtype in dtypes.items():
        arr = np.array(getattr(obj, name), dtype=dtype)
        if take is not None:
            arr = arr[take]
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Instance:
    """One L0-penalized quadratic minimization problem.

    Attributes:
        n: variable count.
        a: indicator penalties, length n.
        c: linear costs, length n.
        qi, qj, qv: upper-triangle triplets of Q (qi <= qj), sorted by (qi, qj).
        offset: constant added to the objective when reporting
            data-derived values (e.g. the squared-observation term of a
            denoising model).
        meta: generator metadata; may carry observations "y" and a box
            radius "M". The generators set M = max |y|: Q restricted to
            any support S is an M-matrix A with A 1 >= (1/sigma^2) 1 and
            x_S = A^-1 y_S / sigma^2, so each x_i is a combination of y
            values with nonnegative weights summing to at most 1.

    Construction copies the arrays read-only and meta to a new dict, so
    nothing a caller holds can change checked data. It raises InputError on
    an n that is not an integer (operator.index decides), bad shapes, a
    non-finite a, c, qv or offset, or an M that is not a finite real (nor
    a bool), and NotSymmetricStorage naming the first triplet in the
    given order that is off the upper triangle, a repeat or a zero off-diagonal.
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
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise InputError("n must be >= 1")
        _freeze(self, a=np.float64, c=np.float64, qi=np.int64, qj=np.int64, qv=np.float64)
        if self.a.shape != (self.n,) or self.c.shape != (self.n,):
            raise InputError("a and c must have length n")
        if not (self.qi.shape == self.qj.shape == self.qv.shape):
            raise InputError("Q triplet arrays must have equal length")
        fault, order = _first_storage_fault(self)
        if fault is not None:
            raise fault
        for name in ("a", "c", "qv", "offset"):
            if not np.isfinite(getattr(self, name)).all():
                raise InputError(f"{name} has a non-finite entry")
        object.__setattr__(self, "meta", dict(self.meta))
        m_box = self.meta.get("M", 0.0)  # decomp.run reads M as the big-M box radius
        if isinstance(m_box, bool) or not isinstance(m_box, numbers.Real) or not abs(m_box) <= sys.float_info.max:
            raise InputError("meta M must be a finite real number")
        _freeze(self, order, qi=np.int64, qj=np.int64, qv=np.float64)  # faults were named in the given order

    @cached_property
    def fill_order(self) -> np.ndarray:
        """Position of each variable in one fill-reducing elimination order
        of Q's pattern (oracle.fill_reducing_order). Computed at its first
        use, the first refit, and kept with this object only: copies made
        by dataclasses.replace, and instances read back from a file,
        compute their own."""
        from . import oracle  # oracle imports this module

        order = oracle.fill_reducing_order(self)
        order.setflags(write=False)
        return order

    def dense_q(self) -> np.ndarray:
        """Materialize Q as a dense symmetric matrix (small n only)."""
        q = np.zeros((self.n, self.n))
        q[self.qi, self.qj] = self.qv
        q[self.qj, self.qi] = self.qv
        return q

    def objective(self, x: np.ndarray, z: np.ndarray) -> float:
        """Evaluate a . z + c . x + (1/2) x' Q x (offset excluded); x and z
        must have shape (n,)."""
        _check_point(self.n, x, z)
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
class SupportGraph:
    """Undirected graph with an edge wherever Q_ij != 0, weighted |Q_ij|.

    Edge k joins i[k] < j[k] with weight w[k] and sign[k], the sign (+1 or
    -1) of Q_ij; the arrays are read-only copies, sorted by (i, j). The
    edges are also the terms of the diagonally-dominant split:

        (1/2) x'Qx == (1/2) sum_v D_v x_v^2 + (1/2) sum_k w[k] (x_i[k] + sign[k] x_j[k])^2

    with D = validate(instance).
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        _freeze(self, i=np.int64, j=np.int64, w=np.float64, sign=np.int64)


def _first_storage_fault(instance: Instance) -> tuple[NotSymmetricStorage | None, np.ndarray]:
    """The first fault in the given order (per triplet: outside the upper
    triangle, then a repeat of an earlier triplet, then a zero off-diagonal
    value) or None, and the positions that sort the triplets by (i, j)."""
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
        return None, order
    k = int(np.argmax(fault))
    i, j = int(qi[k]), int(qj[k])
    if outside[k]:
        return NotSymmetricStorage(f"triplet ({i}, {j}) outside the upper triangle"), order
    if repeat[k]:
        return NotSymmetricStorage(f"duplicate triplet ({i}, {j})"), order
    return NotSymmetricStorage(f"zero-valued off-diagonal ({i}, {j})"), order


def validate(instance: Instance) -> np.ndarray:
    """Check diagonal dominance; return the residual diagonal D of the
    split (see SupportGraph), D_i = Q_ii - sum_{j != i} |Q_ij|, as a
    read-only float64 array.

    Raises NotDiagonallyDominant at the first variable whose residual D_i
    falls below -1e-9. Residuals in [-1e-9, 0) are clamped to zero.
    """
    n = instance.n
    qi, qj, qv = instance.qi, instance.qj, instance.qv
    on_diag = qi == qj
    diag = np.zeros(n)
    diag[qi[on_diag]] = qv[on_diag]
    off = ~on_diag
    # ufunc.at adds in index order: both endpoints of each triplet in
    # storage order, as a loop of += over the triplets would
    absrow = np.zeros(n)
    np.add.at(absrow, np.stack((qi[off], qj[off]), axis=1).ravel(), np.repeat(np.abs(qv[off]), 2))
    residual = diag - absrow
    below = residual < -DD_TOL
    if below.any():
        i = int(np.argmax(below))
        raise NotDiagonallyDominant(i, float(residual[i]))
    residual = np.maximum(residual, 0.0)
    residual.setflags(write=False)
    return residual


def support_graph(instance: Instance) -> SupportGraph:
    """Edges (i, j, |Q_ij|, sign Q_ij) of the nonzero off-diagonals, in the Instance's (i, j) order."""
    qi, qj, qv = instance.qi, instance.qj, instance.qv
    nz = qi != qj
    v = qv[nz]
    return SupportGraph(n=instance.n, i=qi[nz], j=qj[nz], w=np.abs(v), sign=np.where(v > 0, 1, -1))


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator so the draw sequence is reproducible across
    # platforms and documented for reimplementation
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2**128:
        raise InputError(f"seed {seed} is out of range 0 .. 2**128 - 1")
    return np.random.Generator(np.random.Philox(key=seed))


def _build(n, a, c, diag, i, j, v, offset=0.0, meta=None) -> Instance:
    """Instance with diagonal `diag` and off-diagonal triplets (i, j, v),
    exact zeros dropped; the Instance sorts them by (i, j)."""
    keep = v != 0.0
    return Instance(
        n=n,
        a=a,
        c=c,
        qi=np.concatenate((np.arange(n), i[keep])),
        qj=np.concatenate((np.arange(n), j[keep])),
        qv=np.concatenate((diag, v[keep])),
        offset=offset,
        meta=meta or {},
    )


def gen_tridiagonal(n: int, seed: int) -> Instance:
    """Random diagonally-dominant tridiagonal instance.

    Draw order: c ~ U[-10, 3]^n, a ~ U[0, 1]^n, off ~ U[-2, 2]^(n-1),
    slack ~ U[0, 4]^n; Q_ii = |off_{i-1}| + |off_i| + slack_i.
    """
    n = _integer(n, "n")
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
    n = _integer(n, "n")
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
    # an extreme sigma overflows here; the Instance constructor reports it
    # as the one error
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
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
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
    # an extreme sigma overflows here; the Instance constructor reports it
    # as the one error
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
