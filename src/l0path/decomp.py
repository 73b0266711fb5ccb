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
from .cover import path_cover
from .errors import InfeasiblePair, InputError, NumericalError, SegmentNotPD, TemplateMismatch
# subgradient runs f_star_subgradient's branches as array code and never
# calls it; the name stays bound here for the benchmark's call counters
from .fenchel import f_star, f_star_subgradient  # noqa: F401
from .instance import DDForm, Instance, Term, _frozen, _terms, support_graph, validate
from .oracle import fixed_z_qp
# h_eval solves its segments with segments_kernel and never calls
# solve_tridiag; the name stays bound here for the benchmark's tracer
from .tridiag import TridiagProblem, solve as solve_tridiag  # noqa: F401
from .errors import NotPositiveDefinite, SingularSupport

logger = logging.getLogger(__name__)

GAP_DIV_GUARD = 1e-8


@dataclass(frozen=True, eq=False)
class Relaxation:
    """Ordered, segmented view of an instance with the relaxed terms.

    Everything positional lives in permuted coordinates; pi[t] is the
    original index at position t. Segment k is [bounds[k], bounds[k+1]).
    The retained terms are folded into one tridiagonal template over all
    positions: diag (length n) and off (length n - 1), where off[p] is
    the signed coupling of the retained term (p, p + 1) and zero at every
    cut between segments. The relaxed terms are the arrays rel_i, rel_j,
    rel_w and rel_sign, sorted by (i, j). All arrays are read-only.

    `segments`, `retained` and `relaxed` are tuple views of these arrays,
    built at first use. No solve step reads them: they exist for the
    benchmark's tracer and the tests, and go with `Term` once the tracer
    reads the arrays.
    """

    n: int
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
    ratio: float = 1.01
    eps: float = 1e-4
    max_iter: int = 100


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One ascent iteration. lower/upper are the best bounds so far;
    h is this iteration's dual value and duals the point it was
    evaluated at (before the update)."""

    k: int
    lower: float
    upper: float
    gap: float
    step: float
    elapsed_ms: float
    h: float
    duals: np.ndarray


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


def build_relaxation(
    instance: Instance,
    dd: DDForm,
    ordering: np.ndarray,
    retained: np.ndarray | list[tuple[int, int]],
) -> Relaxation:
    """Permute, split retained from relaxed, and build the template.

    Retained pairs (original indices) must sit on consecutive positions
    under the ordering. Each retained weight is added to both incident
    template diagonals; the template off-diagonal is the signed original
    coupling. Segments are the maximal position runs joined by retained
    terms. The template is checked against the original quadratic form
    on random points, and each segment's block for positive
    definiteness, before being trusted.
    """
    n = instance.n
    pi = np.asarray(ordering, dtype=np.int64)
    if pi.shape != (n,) or len(np.unique(pi)) != n or pi.min() < 0 or pi.max() >= n:
        raise InputError("ordering is not a permutation of 0..n-1")
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n, dtype=np.int64)

    ti, tj = dd.term_i, dd.term_j
    # terms are sorted by (i, j), so their keys i * n + j are ascending
    tkey = ti * n + tj
    pairs = np.array(retained, dtype=np.int64).reshape(-1, 2)
    ri, rj = pairs.min(axis=1), pairs.max(axis=1)
    rkey = ri * n + rj
    at = np.searchsorted(tkey, rkey)
    known = (ri >= 0) & (rj < n) & (at < tkey.size)
    known[known] = tkey[at[known]] == rkey[known]
    if not known.all():
        # name the pair a scan over the set of retained pairs meets first
        term_set = set(zip(ti.tolist(), tj.tolist()))
        for pair in {(min(i, j), max(i, j)) for i, j in pairs.tolist()}:
            if pair not in term_set:
                raise InputError(f"retained pair {pair} is not a coupling of the instance")
    kept = np.zeros(ti.size, dtype=bool)
    kept[at[known]] = True

    p, q = np.minimum(inv[ti], inv[tj]), np.maximum(inv[ti], inv[tj])
    apart = kept & (q != p + 1)
    if apart.any():
        k = int(np.argmax(apart))
        raise InputError(f"retained pair ({ti[k]}, {tj[k]}) not consecutive under the ordering")
    ret = np.flatnonzero(kept)
    ret = ret[np.argsort(p[ret])]
    rel = np.flatnonzero(~kept)
    rel = rel[np.lexsort((q[rel], p[rel]))]

    a_ord = instance.a[pi].copy()
    c_ord = instance.c[pi].copy()
    ret_p, ret_w, ret_sign = p[ret], dd.term_w[ret], dd.term_sign[ret]
    diag = dd.D[pi]
    # ufunc.at adds in index order: both endpoints of each retained term,
    # in term order, as a loop of += over the terms would
    np.add.at(diag, np.stack((ret_p, ret_p + 1), axis=1).ravel(), np.repeat(ret_w, 2))
    off = np.zeros(n - 1)
    off[ret_p] = ret_sign * ret_w
    # retained weights are nonzero, so the cuts are the zeros of off
    bounds = np.concatenate(([0], np.flatnonzero(off == 0) + 1, [n]))
    rel_i, rel_j = p[rel], q[rel]
    rel_w, rel_sign = dd.term_w[rel], dd.term_sign[rel]

    # off is zero between segments, so the templates are one tridiagonal
    # form over all positions
    rng = np.random.Generator(np.random.Philox(key=0xD0))
    for _ in range(3):
        x = rng.standard_normal(n)
        x_ord = x[pi]
        lhs = dd.quad(x)
        pair = x_ord[rel_i] + rel_sign * x_ord[rel_j]
        rhs = 0.5 * float(diag @ (x_ord * x_ord)) + float(off @ (x_ord[:-1] * x_ord[1:]))
        rhs += 0.5 * float(rel_w @ (pair * pair))
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
            raise TemplateMismatch(
                f"segment templates do not reproduce the quadratic form "
                f"({lhs} vs {rhs})"
            )

    for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        try:
            TridiagProblem(m=e - s, a=a_ord[s:e], c=c_ord[s:e], diag=diag[s:e], off=off[s : e - 1])
        except NotPositiveDefinite as exc:
            raise SegmentNotPD(s, e) from exc

    return Relaxation(
        n=n,
        pi=pi,
        a_ord=a_ord,
        c_ord=c_ord,
        bounds=_frozen(bounds),
        diag=_frozen(diag),
        off=_frozen(off),
        rel_i=_frozen(rel_i),
        rel_j=_frozen(rel_j),
        rel_w=_frozen(rel_w),
        rel_sign=_frozen(rel_sign),
    )


def default_relaxation(instance: Instance) -> Relaxation:
    """Validate, run the path-cover pipeline, and build the relaxation."""
    dd = validate(instance)
    ordering = path_cover(support_graph(instance))
    return build_relaxation(instance, dd, ordering.pi, ordering.retained)


def assemble_psi(r: Relaxation, duals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the dual triples into the ordered linear coefficients.

    Per relaxed term with weight w: the alphas shift c at both endpoints
    (signed at the second), the betas shift a downward. The shifts go in
    through ufunc.at on the interleaved (i, j) endpoints, which applies
    them one at a time in term order, so every entry rounds exactly as a
    loop of `+=` over the terms would.
    """
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
    Raises SegmentNotPD when a segment's template fails a pivot, and
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
    xbar = np.zeros(r.n)
    zbar = np.zeros(r.n)
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
    the same floating-point operations per term.
    """
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
    is feasible for the original problem."""
    xbar = np.asarray(xbar, dtype=np.float64)
    zbar = np.asarray(zbar, dtype=np.float64)
    if np.any((zbar == 0) & (xbar != 0)):
        raise InfeasiblePair("x is nonzero outside the support of z")
    return float(instance.objective(xbar, zbar))


def run(instance: Instance, r: Relaxation, config: RunConfig) -> RunResult:
    """Projection-free subgradient ascent on the dual function.

    Duals start at zero, so iteration 1 is the plain segment relaxation
    with every coupling term dropped. Geometric steps ratio^(1-k) move
    along the normalized direction; harmonic steps 1/k are applied raw.
    Every inner minimizer is evaluated as an incumbent, and each newly
    seen support, whatever its size, additionally gets its restricted QP
    re-solved by fixed_z_qp, a sparse LDL' factorisation of Q on the
    support (singular supports are skipped).
    The refit can only tighten the upper bound and never feeds the dual
    update. Stops when the certified gap reaches
    config.eps, the direction vanishes (dual-stationary), or max_iter is
    hit.
    """
    if config.schedule not in ("geometric", "harmonic"):
        raise InputError(f"unknown step schedule {config.schedule!r}")
    if not config.eps > 0:
        raise InputError("eps must be positive")
    if config.max_iter < 1:
        raise InputError("max_iter must be at least 1")
    if config.schedule == "geometric" and not config.ratio > 0:
        raise InputError("ratio must be positive")

    # one (alpha, beta_i, beta_j) row per relaxed term, plus the best
    # certified bounds seen so far
    duals = np.zeros((r.rel_w.size, 3))
    best_lower, best_upper = -math.inf, math.inf
    best_x = best_z = None
    records: list[IterationRecord] = []
    reason = "max_iter"
    polished: set[bytes] = set()
    t0 = time.perf_counter()

    for k in range(1, config.max_iter + 1):
        h, xbar, zbar = h_eval(r, duals)
        h = float(h)
        if h > best_lower:
            best_lower = h
        ub = upper_bound(instance, xbar, zbar)
        xcand = xbar
        # refit x on each support the inner solve proposes; any feasible
        # pair is a valid incumbent and the refit only improves it
        key = zbar.tobytes()
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

        if config.schedule == "geometric":
            step = config.ratio ** (1 - k)
        else:
            step = 1.0 / k
        # bounds can cross by rounding noise once they coincide; the
        # certified gap is never negative
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
                duals=duals.copy(),
            )
        )
        if gap <= config.eps:
            reason = "gap"
            break
        if k == config.max_iter:
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
        worst = float(np.max(np.abs(best_x))) if r.n else 0.0
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
