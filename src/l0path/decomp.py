"""Dual-decomposition solver for sparse diagonally-dominant instances.

A permutation puts a chosen path cover on the three central diagonals;
every other pairwise square w*(x_i + sign*x_j)^2 is replaced by its
biconjugate envelope and dualized with a triple (alpha, beta_i, beta_j).
For fixed duals the remainder splits into independent tridiagonal
segments that the shortest-path solver handles exactly, so every dual
evaluation is a certified lower bound; evaluating the true objective at
the inner minimizer gives the matching upper bound. Subgradient ascent
closes the gap between the two.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import segments_kernel
from .cover import Ordering, path_cover
from .errors import (
    InfeasiblePair,
    InputError,
    NumericalError,
    SegmentNotPD,
    SingularSupport,
    TemplateMismatch,
)
# subgradient runs f_star_subgradient's branches as array code and never
# calls it; the name stays bound here for the benchmark's call counters
from .fenchel import f_star, f_star_subgradient  # noqa: F401
from .instance import Instance, Term, _check_point, _freeze, _integer, _shape, _terms, support_graph, validate
from .oracle import fixed_z_qp
# h_eval solves its segments with segments_kernel and never calls
# solve_tridiag; the name stays bound here for the benchmark's tracer
from .tridiag import solve as solve_tridiag  # noqa: F401

logger = logging.getLogger(__name__)

GAP_DIV_GUARD = 1e-8

# relative amount by which the best lower bound may exceed the best upper
# bound before run raises; rounding alone stays below 1e-15
CROSS_TOL = 1e-9

# base of the geometric step sequence GEOMETRIC_RATIO^(1-k)
GEOMETRIC_RATIO = 1.01


@dataclass(frozen=True, eq=False)
class Relaxation:
    """Ordered, segmented view of one instance with the relaxed terms.

    `instance` is the Instance the relaxation was split from; `run`
    certifies bounds only for that object. Everything positional lives in
    permuted coordinates; pi[t] is the original index at position t, as
    the path cover's Ordering puts it, and the retained terms are that
    cover's edges of support_graph(instance). Segment k is [bounds[k],
    bounds[k+1]). The retained terms are folded into one tridiagonal
    template over all positions: diag (length n) and off (length n - 1),
    where off[p] is the signed coupling of the retained term (p, p + 1)
    and zero at every cut between segments. The relaxed terms, the
    graph's other edges, are the arrays rel_i, rel_j, rel_w and rel_sign,
    sorted by (i, j). All arrays are read-only copies.

    `segments`, `retained` and `relaxed` are tuple views of these arrays,
    built at first use. No solve step reads them: they exist for the
    benchmark's tracer and the tests, and go with `Term` once the tracer
    reads the arrays.
    """

    instance: Instance
    pi: np.ndarray
    a_ord: np.ndarray
    c_ord: np.ndarray
    bounds: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    rel_i: np.ndarray
    rel_j: np.ndarray
    rel_w: np.ndarray
    rel_sign: np.ndarray

    def __post_init__(self):
        _freeze(self, pi=np.int64, a_ord=np.float64, c_ord=np.float64, bounds=np.int64, diag=np.float64,
                off=np.float64, rel_i=np.int64, rel_j=np.int64, rel_w=np.float64, rel_sign=np.int64)

    @cached_property
    def segments(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist()))

    @cached_property
    def retained(self) -> tuple[Term, ...]:
        p = np.flatnonzero(self.off)
        return _terms(p, p + 1, np.abs(self.off[p]), np.where(self.off[p] > 0, 1, -1))

    @cached_property
    def relaxed(self) -> tuple[Term, ...]:
        return _terms(self.rel_i, self.rel_j, self.rel_w, self.rel_sign)


@dataclass(frozen=True, eq=False)
class RunConfig:
    schedule: str = "geometric"
    eps: float = 1e-4
    max_iter: int = 100


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One ascent iteration, as scalars only, so a run's memory does not
    grow with its iteration count. lower/upper are the best bounds so
    far; h is this iteration's dual value."""

    k: int
    lower: float
    upper: float
    gap: float
    step: float
    elapsed_ms: float
    h: float


@dataclass(frozen=True, eq=False)
class RunResult:
    lower: float
    upper: float
    gap: float
    x: np.ndarray
    z: np.ndarray
    iterations: int
    records: tuple[IterationRecord, ...]
    reason: str


def build_relaxation(instance: Instance, ordering: Ordering) -> Relaxation:
    """Split the instance, permute it, separate retained from relaxed terms, and build the template.

    `ordering` is path_cover's Ordering for support_graph(instance), as
    default_relaxation passes it: pi puts every retained edge on
    consecutive positions. The split is validate(instance)'s residual
    diagonal, so NotDiagonallyDominant comes from here, and the edges of
    support_graph(instance), the graph the cover's mask was computed on;
    the Relaxation keeps instance as the one it answers for.
    Each retained weight is added to both incident template diagonals; the
    template off-diagonal is the signed original coupling. Segments are
    the maximal position runs joined by retained terms. The template is
    checked against the split's quadratic form on random points before
    being trusted. One segments_kernel call, as h_eval makes it, raises
    SegmentNotPD for the first segment that fails a pivot; the sweep's
    pivots read only the template, so no h_eval on it fails them later.
    The arrays are read-only copies of the inputs.
    """
    D = validate(instance)
    g = support_graph(instance)
    n = instance.n
    pi = ordering.pi
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n, dtype=np.int64)

    kept = ordering.retained
    p, q = np.minimum(inv[g.i], inv[g.j]), np.maximum(inv[g.i], inv[g.j])
    ret = np.flatnonzero(kept)
    ret = ret[np.argsort(p[ret])]
    rel = np.flatnonzero(~kept)
    rel = rel[np.lexsort((q[rel], p[rel]))]

    a_ord = instance.a[pi]
    c_ord = instance.c[pi]
    ret_p, ret_w, ret_sign = p[ret], g.w[ret], g.sign[ret]
    diag = D[pi]
    # ufunc.at adds in index order: both endpoints of each retained term,
    # in term order, as a loop of += over the terms would
    np.add.at(diag, np.stack((ret_p, ret_p + 1), axis=1).ravel(), np.repeat(ret_w, 2))
    off = np.zeros(n - 1)
    off[ret_p] = ret_sign * ret_w
    # retained weights are nonzero, so the cuts are the zeros of off
    bounds = np.concatenate(([0], np.flatnonzero(off == 0) + 1, [n]))
    rel_i, rel_j = p[rel], q[rel]
    rel_w, rel_sign = g.w[rel], g.sign[rel]

    # off is zero between segments, so the templates are one tridiagonal
    # form over all positions
    rng = np.random.Generator(np.random.Philox(key=0xD0))
    for _ in range(3):
        x = rng.standard_normal(n)
        x_ord = x[pi]
        pair = x[g.i] + g.sign * x[g.j]
        lhs = 0.5 * float(D @ (x * x)) + 0.5 * float(g.w @ (pair * pair))
        pair = x_ord[rel_i] + rel_sign * x_ord[rel_j]
        rhs = 0.5 * float(diag @ (x_ord * x_ord)) + float(off @ (x_ord[:-1] * x_ord[1:]))
        rhs += 0.5 * float(rel_w @ (pair * pair))
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
            raise TemplateMismatch(
                f"segment templates do not reproduce the quadratic form "
                f"({lhs} vs {rhs})"
            )

    fail = segments_kernel(bounds, a_ord, c_ord, diag, off)[3]
    if fail >= 0:
        raise SegmentNotPD(int(bounds[fail]), int(bounds[fail + 1]))

    return Relaxation(
        instance=instance,
        pi=pi,
        a_ord=a_ord,
        c_ord=c_ord,
        bounds=bounds,
        diag=diag,
        off=off,
        rel_i=rel_i,
        rel_j=rel_j,
        rel_w=rel_w,
        rel_sign=rel_sign,
    )


def default_relaxation(instance: Instance) -> Relaxation:
    """Run the path-cover pipeline on the instance's support graph and
    build the instance's relaxation on that cover, whose edge mask indexes
    the edges build_relaxation reads from support_graph(instance)."""
    return build_relaxation(instance, path_cover(support_graph(instance)))


def _check_duals(r: Relaxation, duals) -> None:
    """InputError unless duals holds one (alpha, beta_i, beta_j) row per relaxed term."""
    if _shape(duals) != (r.rel_w.size, 3):
        raise InputError(f"duals must have shape ({r.rel_w.size}, 3), not {_shape(duals)}")


def assemble_psi(r: Relaxation, duals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the dual triples into the ordered linear coefficients.

    Per relaxed term with weight w: the alphas shift c at both endpoints
    (signed at the second), the betas shift a downward. The shifts go in
    through ufunc.at on the interleaved (i, j) endpoints, which applies
    them one at a time in term order, so every entry rounds exactly as a
    loop of `+=` over the terms would. Raises InputError unless duals has
    shape (len(r.rel_w), 3).
    """
    _check_duals(r, duals)
    alpha, beta1, beta2 = np.asarray(duals, dtype=np.float64).T
    half_w = 0.5 * r.rel_w
    ends = np.stack((r.rel_i, r.rel_j), axis=1).ravel()
    a_psi = r.a_ord.copy()
    c_psi = r.c_ord.copy()
    np.subtract.at(a_psi, ends, np.stack((half_w * beta1, half_w * beta2), axis=1).ravel())
    np.add.at(c_psi, ends, np.stack((half_w * alpha, half_w * r.rel_sign * alpha), axis=1).ravel())
    return a_psi, c_psi


def h_eval(r: Relaxation, duals: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Dual function value and the inner minimizer, in original indices.

    h = -(1/2) sum of w*f_star(triple) + sum of segment optima under the
    shifted coefficients; always a lower bound on the optimal value.
    Raises InputError through assemble_psi on duals of the wrong shape,
    SegmentNotPD when a segment's template fails a pivot, and
    NumericalError when a segment optimum or h is not finite, as on data
    whose magnitudes overflow the label sweep.
    The shifted coefficients come from the array form of assemble_psi.
    The conjugate sum still calls f_star once per relaxed term, on Python
    floats and in term order, so it rounds exactly as a sum over numpy
    scalars would. One segments_kernel call solves every segment on the
    relaxation's template, exactly as tridiag.solve would one by one.
    """
    a_psi, c_psi = assemble_psi(r, duals)
    conj = 0.0
    for (alpha, b1, b2), w in zip(np.asarray(duals, dtype=np.float64).tolist(), r.rel_w.tolist()):
        conj += w * f_star(alpha, b1, b2)

    x_pos, z_pos, obj, fail = segments_kernel(r.bounds, a_psi, c_psi, r.diag, r.off)
    if fail >= 0:
        raise SegmentNotPD(int(r.bounds[fail]), int(r.bounds[fail + 1]))

    h = -0.5 * conj
    for s, e, o in zip(r.bounds[:-1].tolist(), r.bounds[1:].tolist(), obj.tolist()):
        if not math.isfinite(o):
            raise NumericalError(f"segment [{s}, {e}) has a non-finite optimum {o}")
        h += o
    if not math.isfinite(h):
        raise NumericalError(f"the dual value {h} is not finite")
    xbar = np.zeros(r.instance.n)
    zbar = np.zeros(r.instance.n)
    xbar[r.pi] = x_pos
    zbar[r.pi] = z_pos
    return float(h), xbar, zbar


def subgradient(
    r: Relaxation, duals: np.ndarray, xbar: np.ndarray, zbar: np.ndarray
) -> np.ndarray:
    """Ascent direction at the current duals, one row per relaxed term.

    rho = (1/2)w * (-conjugate subgradient + the primal pairing terms);
    the (1/2)w scaling is folded here rather than into the step size.
    The conjugate subgradient is fenchel.f_star_subgradient in masked
    form: the same branches in the same order, the same tie rule, and
    the same floating-point operations per term. Raises InputError on
    duals, xbar or zbar of the wrong shape.
    """
    _check_duals(r, duals)
    _check_point(r.instance.n, xbar, zbar)
    alpha, beta1, beta2 = np.asarray(duals, dtype=np.float64).T
    top = 0.25 * (alpha * alpha)
    flat = (beta1 > top) & (beta2 > top)
    both = ~flat & (beta1 < 0) & (beta2 < 0)
    # outside the flat piece exactly one beta is decremented, or both;
    # on the tie beta1 == beta2 it is beta2
    dec2 = both | (~flat & (beta1 >= beta2))
    dec1 = both | (~flat & ~(beta1 >= beta2))
    xi0 = np.where(flat, 0.0, 0.5 * alpha)
    xi1 = np.where(dec1, -1.0, 0.0)
    xi2 = np.where(dec2, -1.0, 0.0)
    # endpoints in original indices
    p, q = r.pi[r.rel_i], r.pi[r.rel_j]
    half_w = 0.5 * r.rel_w
    rho = np.empty((r.rel_w.size, 3))
    rho[:, 0] = half_w * (-xi0 + (xbar[p] + r.rel_sign * xbar[q]))
    rho[:, 1] = half_w * (-xi1 - zbar[p])
    rho[:, 2] = half_w * (-xi2 - zbar[q])
    return rho


def upper_bound(instance: Instance, xbar: np.ndarray, zbar: np.ndarray) -> float:
    """Objective value at an inner minimizer; valid since (xbar, zbar)
    is feasible for the original problem. Raises InputError unless both
    have shape (n,)."""
    _check_point(instance.n, xbar, zbar)
    xbar = np.asarray(xbar, dtype=np.float64)
    zbar = np.asarray(zbar, dtype=np.float64)
    if np.any((zbar == 0) & (xbar != 0)):
        raise InfeasiblePair("x is nonzero outside the support of z")
    return float(instance.objective(xbar, zbar))


def run(instance: Instance, r: Relaxation, config: RunConfig) -> RunResult:
    """Projection-free subgradient ascent on the dual function.

    Duals start at zero, so iteration 1 is the plain segment relaxation
    with every coupling term dropped. Geometric steps GEOMETRIC_RATIO^(1-k)
    move along the normalized direction; harmonic steps 1/k are applied raw.
    Every inner minimizer is evaluated as an incumbent, and each newly
    seen support, whatever its size, additionally gets its restricted QP
    re-solved by fixed_z_qp, a sparse LDL' factorisation of Q on the
    support (singular supports are skipped).
    The refit can only tighten the upper bound and never feeds the dual
    update. Stops when the certified gap reaches
    config.eps, the direction vanishes (dual-stationary), or max_iter is
    hit. Raises InputError up front when r was not built from this
    instance object (r.instance), and NumericalError when the best lower
    bound exceeds the best upper one by more than CROSS_TOL relative to
    max(1, |upper|); a smaller crossing is rounding and reads as gap 0.
    """
    if config.schedule not in ("geometric", "harmonic"):
        raise InputError(f"unknown step schedule {config.schedule!r}")
    if not config.eps > 0:
        raise InputError("eps must be positive")
    max_iter = _integer(config.max_iter, "max_iter")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")
    if r.instance is not instance:
        raise InputError("the relaxation was not built from this instance")

    # one (alpha, beta_i, beta_j) row per relaxed term, plus the best
    # certified bounds seen so far
    duals = np.zeros((r.rel_w.size, 3))
    best_lower, best_upper = -math.inf, math.inf
    best_x = best_z = None
    records: list[IterationRecord] = []
    reason = "max_iter"
    polished: set[bytes] = set()
    t0 = time.perf_counter()

    for k in range(1, max_iter + 1):
        h, xbar, zbar = h_eval(r, duals)
        h = float(h)
        if h > best_lower:
            best_lower = h
        ub = upper_bound(instance, xbar, zbar)
        xcand = xbar
        # refit x on each support the inner solve proposes; any feasible
        # pair is a valid incumbent and the refit only improves it. zbar
        # is 0/1 of fixed length n, so its packed bits name the support
        # in n/8 bytes instead of 8n
        key = np.packbits(zbar != 0).tobytes()
        if key not in polished:
            polished.add(key)
            try:
                xfit, vfit = fixed_z_qp(instance, zbar)
                if vfit < ub:
                    ub = vfit
                    xcand = xfit
            except SingularSupport:
                pass
        if ub < best_upper:
            best_upper = ub
            best_x = xcand
            best_z = zbar

        # bounds can cross by rounding noise once they coincide, and only
        # by that: a wider crossing means a bound is not valid
        if best_lower - best_upper > CROSS_TOL * max(1.0, abs(best_upper)):
            raise NumericalError(
                f"the lower bound {best_lower!r} exceeds the upper bound {best_upper!r}"
            )
        if config.schedule == "geometric":
            step = GEOMETRIC_RATIO ** (1 - k)
        else:
            step = 1.0 / k
        # below CROSS_TOL the certified gap is clamped, never negative
        gap = max(
            0.0,
            (best_upper - best_lower) / max(abs(best_upper), GAP_DIV_GUARD),
        )
        records.append(
            IterationRecord(
                k=k,
                lower=best_lower,
                upper=best_upper,
                gap=gap,
                step=step,
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
                h=h,
            )
        )
        if gap <= config.eps:
            reason = "gap"
            break
        if k == max_iter:
            break

        rho = subgradient(r, duals, xbar, zbar)
        norm = float(np.linalg.norm(rho))
        if norm == 0.0:
            reason = "stationary"
            break
        if config.schedule == "geometric":
            duals = duals + step * rho / norm
        else:
            duals = duals + step * rho

    m_box = instance.meta.get("M")
    if m_box is not None and best_x is not None:
        worst = float(np.max(np.abs(best_x)))
        if worst > float(m_box) + 1e-9:
            logger.warning(
                "incumbent exceeds the big-M box: max |x| = %.6g > M = %.6g",
                worst,
                float(m_box),
            )

    last = records[-1]
    return RunResult(
        lower=best_lower,
        upper=best_upper,
        gap=last.gap,
        x=best_x,
        z=best_z,
        iterations=len(records),
        records=tuple(records),
        reason=reason,
    )


def write_iteration_log(records, path) -> None:
    """CSV log, one row per iteration; h is that iteration's dual value,
    and the timing column stays last."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lower", "upper", "gap", "step", "h", "elapsed_ms"])
        for rec in records:
            writer.writerow(
                [rec.k, repr(rec.lower), repr(rec.upper), repr(rec.gap), repr(rec.step), repr(rec.h), f"{rec.elapsed_ms:.3f}"]
            )
