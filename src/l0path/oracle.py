"""Exhaustive certified solver for small instances.

Enumerates all 2^n supports, solving the restricted equality system for
each; used as the ground truth in tests and exposed through the CLI for
desk-scale certification.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from ._kernels import PIVOT_TOL, enumerate_kernel
from .errors import SingularSupport, TooLarge
from .instance import Instance

logger = logging.getLogger(__name__)

MAX_ENUM_VARS = 20


@dataclass(frozen=True, eq=False)
class OracleResult:
    value: float
    x: np.ndarray
    z: np.ndarray
    supports_enumerated: int


def fixed_z_qp(instance: Instance, z) -> tuple[np.ndarray, float]:
    """Minimize over x with the support fixed to z.

    Solves Q_S x_S = -c_S on the support S = {i : z_i = 1}; at that
    stationary point the objective collapses to sum(a_S) + (1/2) c_S . x_S.
    Q_S is assembled from the triplets as a sparse matrix and factored by
    a sparse LU under a symmetric fill-reducing order, so the cost follows
    the nonzeros of Q_S rather than |S|^3. Raises SingularSupport when a
    pivot of that factor is at or below PIVOT_TOL.
    """
    z = np.asarray(z)
    sel = np.flatnonzero(z)
    x = np.zeros(instance.n)
    if sel.size == 0:
        return x, 0.0
    pos = np.full(instance.n, -1, dtype=np.int64)
    pos[sel] = np.arange(sel.size)
    qi, qj = pos[instance.qi], pos[instance.qj]
    on = (qi >= 0) & (qj >= 0)
    qi, qj, qv = qi[on], qj[on], instance.qv[on]
    off = qi != qj  # mirror the upper-triangle couplings
    rows = np.concatenate([qi, qj[off]])
    cols = np.concatenate([qj, qi[off]])
    q = csc_array(
        (np.concatenate([qv, qv[off]]), (rows, cols)), shape=(sel.size, sel.size)
    )
    try:
        lu = splu(
            q,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularSupport(str(exc)) from exc
    piv = lu.U.diagonal()
    if np.any(piv <= PIVOT_TOL):
        raise SingularSupport(f"pivot {piv.min():.3g} in the factor of Q_S")
    xs = lu.solve(-instance.c[sel])
    x[sel] = xs
    value = float(np.sum(instance.a[sel]) + 0.5 * instance.c[sel] @ xs)
    return x, value


def enumerate_supports(instance: Instance) -> OracleResult:
    """Minimize over every support; ties go to the lexicographically
    smallest z. Supports with a singular restriction are skipped."""
    n = instance.n
    if n > MAX_ENUM_VARS:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {MAX_ENUM_VARS}")
    q = instance.dense_q()
    best_val, best_mask, skipped = enumerate_kernel(
        np.ascontiguousarray(instance.a),
        np.ascontiguousarray(instance.c),
        np.ascontiguousarray(q),
    )
    if skipped:
        logger.debug("skipped %d singular supports out of %d", skipped, 1 << n)
    z = np.array([(best_mask >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.int64)
    x, value = fixed_z_qp(instance, z)
    return OracleResult(value=float(value), x=x, z=z, supports_enumerated=1 << n)
