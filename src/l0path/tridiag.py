"""Exact solver for path-structured instances.

The minimum over (x, z) of a . z + c . x + (1/2) x'Qx with tridiagonal
positive definite Q equals the shortest path from node 0 to node m+1 in a
DAG whose arc (i, j) carries the optimal value of the continuous
subproblem on variables i+1 .. j-1 (those strictly between the endpoints;
the path's visited interior nodes are exactly the zeros of z). All arc
weights out of one node are produced by a single forward-elimination
recurrence, giving the O(m^2) time / O(m) memory labeling pass, which
backtracks the path into z; x is then recovered by one tridiagonal solve
with the couplings cut at the zeros. The decomposition's segment kernel
runs the same two compiled steps. The sweep's first row eliminates the
whole chain, so the sweep alone decides positive definiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import labels_kernel, thomas_kernel
from .errors import InputError, NotPositiveDefinite
from .instance import Instance, _freeze


@dataclass(frozen=True, eq=False)
class TridiagProblem:
    """Path-structured subproblem: minimize a.z + c.x + (1/2) x'Qx with
    Q tridiagonal (diagonal `diag`, superdiagonal `off`).

    Zero entries in `off` are legal; they decouple the problem into
    independent blocks and the recurrences handle them exactly. Any
    finite chain is accepted; the solves decide positive definiteness.
    The arrays are read-only copies, checked after the copy, so nothing
    a caller holds can change checked data.
    """

    m: int
    a: np.ndarray
    c: np.ndarray
    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise InputError("m must be >= 1")
        _freeze(self, a=np.float64, c=np.float64, diag=np.float64, off=np.float64)
        for name in ("a", "c", "diag", "off"):
            # NaN would pass the kernels' pivot tests (NaN <= tol is false)
            if not np.isfinite(getattr(self, name)).all():
                raise InputError(f"{name} has a non-finite entry")
        if not (self.a.shape == self.c.shape == self.diag.shape == (self.m,)):
            raise InputError("a, c, diag must have length m")
        if self.off.shape != (max(self.m - 1, 0),):
            raise InputError("off must have length m - 1")

    def objective(self, x: np.ndarray, z: np.ndarray) -> float:
        """Direct evaluation of a.z + c.x + (1/2) x'Qx."""
        val = float(self.a @ z + self.c @ x + 0.5 * self.diag @ (x * x))
        if self.m > 1:
            val += float(self.off @ (x[:-1] * x[1:]))
        return val


@dataclass(frozen=True, eq=False)
class SPSolution:
    """Optimal point: the zeros of `z` are the interior nodes of the
    shortest path, 0-based."""

    objective: float
    z: np.ndarray
    x: np.ndarray


def _stationary_x(p: TridiagProblem, z) -> np.ndarray:
    """The stationary point of every support block of z, zero off it.

    One Thomas pass over the whole chain, which the kernel cuts at the
    zeros of z (int, bool or float), so every block takes the same
    floating-point operations as a solve of its own.
    """
    x, fail = thomas_kernel(p.diag, p.off, p.c, np.ascontiguousarray(z, dtype=np.float64))
    if fail >= 0:
        raise NotPositiveDefinite(f"not positive definite at position {int(fail)}")
    return x


def solve(p: TridiagProblem) -> SPSolution:
    """Global optimum via the shortest-path labeling pass.

    Labels are updated in topological order; ties break toward the
    smaller predecessor, so the result is deterministic. The sweep's
    failing column j names the first failing pivot, at position j - 2.
    """
    labels, _, z, fail = labels_kernel(p.a, p.c, p.diag, p.off)
    if fail >= 0:
        raise NotPositiveDefinite(f"not positive definite at position {int(fail) - 2}")
    x = _stationary_x(p, z)
    return SPSolution(objective=float(labels[p.m + 1]), z=z.astype(np.int64), x=x)


def solve_fixed_z(p: TridiagProblem, zbar) -> tuple[np.ndarray, float]:
    """Minimize over x with the support fixed to zbar.

    Each maximal run of ones is one tridiagonal block; at its stationary
    point the objective collapses to sum(a) + (1/2) c . x over the support.
    Raises InputError when zbar does not have length m.
    """
    zbar = np.asarray(zbar)
    if zbar.shape != (p.m,):
        raise InputError("zbar must have length m")
    x = _stationary_x(p, zbar)
    on = zbar != 0
    value = float(np.sum(p.a[on]) + 0.5 * p.c[on] @ x[on])
    return x, value


def to_tridiagonal(instance: Instance) -> TridiagProblem:
    """View an instance whose stored order is already a path as a
    TridiagProblem.

    Rejects any entry beyond the first off-diagonal, naming the first one
    in the Instance's (i, j) order.
    """
    qi, qj, qv = instance.qi, instance.qj, instance.qv
    beyond = np.flatnonzero(qj - qi > 1)
    if beyond.size:
        k = beyond[0]
        raise InputError(
            f"Q entry ({int(qi[k])}, {int(qj[k])}) is off the tridiagonal band; "
            "solve-decomp accepts any sparse diagonally dominant Q, and certifies "
            "a path stored in another order at its first iteration"
        )
    on = qi == qj
    # an Instance stores every cell at most once, so plain assignment
    # places it
    diag = np.zeros(instance.n)
    diag[qi[on]] = qv[on]
    off = np.zeros(max(instance.n - 1, 0))
    off[qi[~on]] = qv[~on]
    return TridiagProblem(m=instance.n, a=instance.a, c=instance.c, diag=diag, off=off)
