"""Exact solver for path-structured instances.

The minimum over (x, z) of a . z + c . x + (1/2) x'Qx with tridiagonal
positive definite Q equals the shortest path from node 0 to node m+1 in a
DAG whose arc (i, j) carries the optimal value of the continuous
subproblem on variables i+1 .. j-1 (those strictly between the endpoints;
the path's visited interior nodes are exactly the zeros of z). All arc
weights out of one node are produced by a single forward-elimination
recurrence, giving the O(m^2) time / O(m) memory labeling pass; x is then
recovered by one tridiagonal solve with the couplings cut at the zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import PIVOT_TOL, labels_kernel, thomas_kernel
from .errors import InputError, NotPositiveDefinite
from .instance import Instance, _assign_last


@dataclass(frozen=True, eq=False)
class TridiagProblem:
    """Path-structured subproblem: minimize a.z + c.x + (1/2) x'Qx with
    Q tridiagonal (diagonal `diag`, superdiagonal `off`).

    Zero entries in `off` are legal; they decouple the problem into
    independent blocks and the recurrences handle them exactly.
    """

    m: int
    a: np.ndarray
    c: np.ndarray
    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for name in ("a", "c", "diag", "off"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.a.shape == self.c.shape == self.diag.shape == (self.m,)):
            raise ValueError("a, c, diag must have length m")
        if self.off.shape != (max(self.m - 1, 0),):
            raise ValueError("off must have length m - 1")
        # forward-elimination pivots of the full matrix; these are the
        # leading-minor ratios, so all > 0 is exactly positive definiteness
        diag = self.diag.tolist()
        piv = diag[0]
        if piv <= PIVOT_TOL:
            raise NotPositiveDefinite(f"pivot {piv:.3g} at position 0")
        for t, o in enumerate(self.off.tolist(), start=1):
            piv = diag[t] - o * o / piv
            if piv <= PIVOT_TOL:
                raise NotPositiveDefinite(f"pivot {piv:.3g} at position {t}")

    def objective(self, x: np.ndarray, z: np.ndarray) -> float:
        """Direct evaluation of a.z + c.x + (1/2) x'Qx."""
        val = float(self.a @ z + self.c @ x + 0.5 * self.diag @ (x * x))
        if self.m > 1:
            val += float(self.off @ (x[:-1] * x[1:]))
        return val


@dataclass(frozen=True, eq=False)
class SPSolution:
    """Optimal point: `visited` lists the zero positions (the interior
    nodes of the shortest path, 0-based)."""

    objective: float
    z: np.ndarray
    x: np.ndarray
    visited: tuple[int, ...]


def _stationary_x(p: TridiagProblem, z: np.ndarray) -> np.ndarray:
    """The stationary point of every support block of z, zero off it.

    One Thomas pass over the whole chain: cutting the couplings at the
    zeros of z and pinning those rows to 1 * x = 0 leaves every block to
    the same floating-point operations as a solve of its own.
    """
    cut = z == 0
    diag = np.where(cut, 1.0, p.diag)
    off = np.where(cut[:-1] | cut[1:], 0.0, p.off)
    rhs = np.where(cut, 0.0, -p.c)
    x, fail = thomas_kernel(diag, off, rhs)
    if fail >= 0:
        raise NotPositiveDefinite(f"pivot failed at position {int(fail)}")
    x[cut] = 0.0
    return x


def solve(p: TridiagProblem) -> SPSolution:
    """Global optimum via the shortest-path labeling pass.

    Labels are updated in topological order; ties break toward the
    smaller predecessor, so the result is deterministic.
    """
    labels, preds, fail = labels_kernel(p.a, p.c, p.diag, p.off)
    if fail >= 0:
        raise NotPositiveDefinite(f"pivot failed while weighting column {int(fail)}")
    # backtrack the predecessor chain from the sink m+1 to the source 0
    chain = [p.m + 1]
    while chain[-1] != 0:
        chain.append(int(preds[chain[-1]]))
    chain.reverse()
    visited = tuple(v - 1 for v in chain[1:-1])
    z = np.ones(p.m, dtype=np.int64)
    z[list(visited)] = 0
    x = _stationary_x(p, z)
    return SPSolution(objective=float(labels[p.m + 1]), z=z, x=x, visited=visited)


def solve_fixed_z(p: TridiagProblem, zbar) -> tuple[np.ndarray, float]:
    """Minimize over x with the support fixed to zbar.

    Each maximal run of ones is one tridiagonal block; at its stationary
    point the objective collapses to sum(a) + (1/2) c . x over the support.
    """
    zbar = np.asarray(zbar)
    if zbar.shape != (p.m,):
        raise ValueError("zbar must have length m")
    x = _stationary_x(p, zbar)
    on = zbar != 0
    value = float(np.sum(p.a[on]) + 0.5 * p.c[on] @ x[on])
    return x, value


def to_tridiagonal(instance: Instance) -> TridiagProblem:
    """View an instance whose stored order is already a path as a
    TridiagProblem; rejects any entry beyond the first off-diagonal,
    naming the first one in storage order."""
    qi, qj, qv = instance.qi, instance.qj, instance.qv
    beyond = np.flatnonzero(qj - qi > 1)
    if beyond.size:
        k = beyond[0]
        raise InputError(
            f"Q entry ({int(qi[k])}, {int(qj[k])}) is off the tridiagonal band; "
            "reorder the instance (see the decompose command) first"
        )
    on = qi == qj
    diag = _assign_last(instance.n, qi[on], qv[on])
    off = _assign_last(max(instance.n - 1, 0), qi[~on], qv[~on])
    return TridiagProblem(m=instance.n, a=instance.a, c=instance.c, diag=diag, off=off)
