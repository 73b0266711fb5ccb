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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cover import path_cover
from .errors import InfeasiblePair, InputError, SegmentNotPD, TemplateMismatch
from .fenchel import DualTriple, f_star, f_star_subgradient
from .instance import DDForm, Instance, Term, support_graph, validate
from .oracle import fixed_z_qp
from .tridiag import TridiagProblem, solve as solve_tridiag
from ._kernels import PIVOT_TOL
from .errors import NotPositiveDefinite, SingularSupport

logger = logging.getLogger(__name__)

GAP_DIV_GUARD = 1e-8
POLISH_SUPPORT_CAP = 600  # dense refit is cubic in the support size


@dataclass(frozen=True, eq=False)
class Relaxation:
    """Ordered, segmented view of an instance with the relaxed terms.

    Everything positional (a_ord, c_ord, d_ord, segments, terms) lives in
    permuted coordinates; pi[t] is the original index at position t.
    Retained terms join consecutive positions and are already folded into
    the per-segment templates (seg_diag, seg_off).
    """

    n: int
    pi: np.ndarray
    inv: np.ndarray
    a_ord: np.ndarray
    c_ord: np.ndarray
    d_ord: np.ndarray
    segments: tuple[tuple[int, int], ...]
    seg_diag: tuple[np.ndarray, ...]
    seg_off: tuple[np.ndarray, ...]
    retained: tuple[Term, ...]
    relaxed: tuple[Term, ...]


@dataclass(frozen=True, eq=False)
class RunConfig:
    schedule: str = "geometric"
    ratio: float = 1.01
    eps: float = 1e-4
    max_iter: int = 100
    threads: int = 1


@dataclass(eq=False)
class DualState:
    """Loop-owned mutable state: one (alpha, beta_i, beta_j) row per
    relaxed term, plus the best certified bounds seen so far."""

    duals: np.ndarray
    k: int = 0
    best_lower: float = -math.inf
    best_upper: float = math.inf
    best_x: np.ndarray | None = None
    best_z: np.ndarray | None = None


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
    retained: tuple[tuple[int, int], ...] | list[tuple[int, int]],
) -> Relaxation:
    """Permute, split retained from relaxed, and build segment templates.

    Retained pairs (original indices) must sit on consecutive positions
    under the ordering. Each retained weight is added to both incident
    template diagonals; the template off-diagonal is the signed original
    coupling. Segments are the maximal position runs joined by retained
    terms, and each template is checked against the original quadratic
    form on random points before being trusted.
    """
    n = instance.n
    pi = np.asarray(ordering, dtype=np.int64)
    if pi.shape != (n,) or len(np.unique(pi)) != n or pi.min() < 0 or pi.max() >= n:
        raise InputError("ordering is not a permutation of 0..n-1")
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n, dtype=np.int64)

    keep = {(min(i, j), max(i, j)) for i, j in retained}
    known = {(t.i, t.j) for t in dd.terms}
    for pair in keep:
        if pair not in known:
            raise InputError(f"retained pair {pair} is not a coupling of the instance")

    ret_pos: list[Term] = []
    rel_pos: list[Term] = []
    for t in dd.terms:
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

    a_ord = instance.a[pi].copy()
    c_ord = instance.c[pi].copy()
    d_ord = dd.D[pi].copy()

    diag = d_ord.copy()
    off = np.zeros(max(n - 1, 0))
    joined = np.zeros(max(n - 1, 0), dtype=bool)
    for t in ret_pos:
        diag[t.i] += t.w
        diag[t.j] += t.w
        off[t.i] = t.sign * t.w
        joined[t.i] = True

    segments: list[tuple[int, int]] = []
    start = 0
    for t in range(1, n + 1):
        if t == n or not joined[t - 1]:
            segments.append((start, t))
            start = t
    if n == 0:
        segments = []

    seg_diag = tuple(diag[s:e].copy() for s, e in segments)
    seg_off = tuple(off[s : e - 1].copy() for s, e in segments)

    rng = np.random.Generator(np.random.Philox(key=0xD0))
    for _ in range(3):
        x = rng.standard_normal(n)
        x_ord = x[pi]
        lhs = dd.quad(x)
        rhs = 0.0
        for (s, e), dg, of in zip(segments, seg_diag, seg_off):
            xs = x_ord[s:e]
            rhs += 0.5 * (dg @ xs**2) + of @ (xs[:-1] * xs[1:])
        for t in rel_pos:
            rhs += 0.5 * t.w * (x_ord[t.i] + t.sign * x_ord[t.j]) ** 2
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
            raise TemplateMismatch(
                f"segment templates do not reproduce the quadratic form "
                f"({lhs} vs {rhs})"
            )

    for (s, e), dg, of in zip(segments, seg_diag, seg_off):
        piv = dg[0]
        if piv <= PIVOT_TOL:
            raise SegmentNotPD(s, e)
        for t in range(1, e - s):
            piv = dg[t] - of[t - 1] ** 2 / piv
            if piv <= PIVOT_TOL:
                raise SegmentNotPD(s, e)

    return Relaxation(
        n=n,
        pi=pi,
        inv=inv,
        a_ord=a_ord,
        c_ord=c_ord,
        d_ord=d_ord,
        segments=tuple(segments),
        seg_diag=seg_diag,
        seg_off=seg_off,
        retained=tuple(ret_pos),
        relaxed=tuple(rel_pos),
    )


def default_relaxation(instance: Instance) -> Relaxation:
    """Validate, run the path-cover pipeline, and build the relaxation."""
    dd = validate(instance)
    ordering = path_cover(support_graph(instance))
    return build_relaxation(instance, dd, ordering.pi, ordering.retained)


def assemble_psi(r: Relaxation, duals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the dual triples into the ordered linear coefficients.

    Per relaxed term with weight w: the alphas shift c at both endpoints
    (signed at the second), the betas shift a downward.
    """
    a_psi = r.a_ord.copy()
    c_psi = r.c_ord.copy()
    for t, term in enumerate(r.relaxed):
        alpha, b1, b2 = duals[t]
        half_w = 0.5 * term.w
        a_psi[term.i] -= half_w * b1
        a_psi[term.j] -= half_w * b2
        c_psi[term.i] += half_w * alpha
        c_psi[term.j] += half_w * term.sign * alpha
    return a_psi, c_psi


def _solve_segment(r, k, a_psi, c_psi):
    s, e = r.segments[k]
    try:
        p = TridiagProblem(
            m=e - s,
            a=a_psi[s:e],
            c=c_psi[s:e],
            diag=r.seg_diag[k],
            off=r.seg_off[k],
        )
        return solve_tridiag(p)
    except NotPositiveDefinite as exc:
        raise SegmentNotPD(s, e) from exc


def h_eval(
    r: Relaxation, duals: np.ndarray, threads: int = 1
) -> tuple[float, np.ndarray, np.ndarray]:
    """Dual function value and the inner minimizer, in original indices.

    h = -(1/2) sum of w*f_star(triple) + sum of segment optima under the
    shifted coefficients; always a lower bound on the optimal value.
    """
    a_psi, c_psi = assemble_psi(r, duals)
    conj = 0.0
    for t, term in enumerate(r.relaxed):
        alpha, b1, b2 = duals[t]
        conj += term.w * f_star(DualTriple(alpha, b1, b2, term.sign))

    idx = range(len(r.segments))
    if threads > 1 and len(r.segments) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            sols = list(ex.map(lambda k: _solve_segment(r, k, a_psi, c_psi), idx))
    else:
        sols = [_solve_segment(r, k, a_psi, c_psi) for k in idx]

    h = -0.5 * conj
    x_pos = np.zeros(r.n)
    z_pos = np.zeros(r.n)
    for (s, e), sol in zip(r.segments, sols):
        h += sol.objective
        x_pos[s:e] = sol.x
        z_pos[s:e] = sol.z
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
    """
    rho = np.zeros((len(r.relaxed), 3))
    for t, term in enumerate(r.relaxed):
        xi = f_star_subgradient(DualTriple(*duals[t], sign=term.sign))
        p, q = r.pi[term.i], r.pi[term.j]
        half_w = 0.5 * term.w
        rho[t, 0] = half_w * (-xi[0] + (xbar[p] + term.sign * xbar[q]))
        rho[t, 1] = half_w * (-xi[1] - zbar[p])
        rho[t, 2] = half_w * (-xi[2] - zbar[q])
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
    seen support additionally gets its restricted QP re-solved, which can
    only tighten the upper bound. Stops when the certified gap reaches
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

    state = DualState(duals=np.zeros((len(r.relaxed), 3)))
    records: list[IterationRecord] = []
    reason = "max_iter"
    polished: set[bytes] = set()
    t0 = time.perf_counter()

    for k in range(1, config.max_iter + 1):
        state.k = k
        h, xbar, zbar = h_eval(r, state.duals, threads=config.threads)
        h = float(h)
        if h > state.best_lower:
            state.best_lower = h
        ub = upper_bound(instance, xbar, zbar)
        xcand = xbar
        # refit x on each support the inner solve proposes; any feasible
        # pair is a valid incumbent and the refit only improves it
        key = zbar.tobytes()
        if key not in polished and np.count_nonzero(zbar) <= POLISH_SUPPORT_CAP:
            polished.add(key)
            try:
                xfit, vfit = fixed_z_qp(instance, zbar)
                if vfit < ub:
                    ub = vfit
                    xcand = xfit
            except SingularSupport:
                pass
        if ub < state.best_upper:
            state.best_upper = ub
            state.best_x = xcand
            state.best_z = zbar

        if config.schedule == "geometric":
            step = config.ratio ** (1 - k)
        else:
            step = 1.0 / k
        # bounds can cross by rounding noise once they coincide; the
        # certified gap is never negative
        gap = max(
            0.0,
            (state.best_upper - state.best_lower)
            / max(abs(state.best_upper), GAP_DIV_GUARD),
        )
        records.append(
            IterationRecord(
                k=k,
                lower=state.best_lower,
                upper=state.best_upper,
                gap=gap,
                step=step,
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
                h=h,
                duals=state.duals.copy(),
            )
        )
        if gap <= config.eps:
            reason = "gap"
            break
        if k == config.max_iter:
            break

        rho = subgradient(r, state.duals, xbar, zbar)
        norm = float(np.linalg.norm(rho))
        if norm == 0.0:
            reason = "stationary"
            break
        if config.schedule == "geometric":
            state.duals = state.duals + step * rho / norm
        else:
            state.duals = state.duals + step * rho

    m_box = instance.meta.get("M")
    if m_box is not None and state.best_x is not None:
        worst = float(np.max(np.abs(state.best_x))) if r.n else 0.0
        if worst > float(m_box) + 1e-9:
            logger.warning(
                "incumbent exceeds the big-M box: max |x| = %.6g > M = %.6g",
                worst,
                float(m_box),
            )

    last = records[-1]
    return RunResult(
        lower=state.best_lower,
        upper=state.best_upper,
        gap=last.gap,
        x=state.best_x,
        z=state.best_z,
        iterations=len(records),
        records=tuple(records),
        reason=reason,
    )


def write_iteration_log(records, path) -> None:
    """CSV log, one row per iteration."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lower", "upper", "gap", "step", "elapsed_ms"])
        for rec in records:
            writer.writerow(
                [rec.k, repr(rec.lower), repr(rec.upper), repr(rec.gap), repr(rec.step), f"{rec.elapsed_ms:.3f}"]
            )
