"""Exhaustive certified solver for small instances, and the refit of x on
a fixed support.

`enumerate_supports` enumerates all 2^n supports, up to n =
MAX_ENUM_VARS, and refits the best with `fixed_z_qp`; it is the ground
truth in tests and is exposed through the CLI for desk-scale
certification. The compiled enumeration walks the supports depth first,
extending the parent's L D L' factor by one row per child, so a support
costs O(|S|^2) and n = 20 takes about 0.1 s. `fixed_z_qp` solves one
support's system at any size with the compiled sparse LDL' kernel, under
the fill-reducing order SuperLU computes once per instance
(`fill_reducing_order`, which imports scipy inside itself, so scipy
loads at the first refit); the decomposition refits every support it
proposes with it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._kernels import MAX_ENUM_VARS, PIVOT_TOL, enumerate_kernel, ldl_kernel
from .errors import InputError, SingularSupport, TooLarge
from .instance import Instance

logger = logging.getLogger(__name__)

PSD_TOL = 1e-9  # relative eigenvalue tolerance of enumerate_supports' semidefiniteness check
# relative size of c's component in Q's numerical null space above which
# enumerate_supports reports the objective unbounded below; eigenvectors
# within PSD_TOL of that space are accurate to about 2e-16 / PSD_TOL
NULL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class OracleResult:
    value: float
    x: np.ndarray
    z: np.ndarray
    supports_enumerated: int


def fill_reducing_order(instance: Instance) -> np.ndarray:
    """Position of each variable in one fill-reducing elimination order of
    Q's pattern: SuperLU's MMD_AT_PLUS_A column order for the matrix with
    that pattern, diagonal degree + 1 and off-diagonals -1, which is
    positive definite whatever Q's values. Entry j is the position of
    variable j, as SuperLU's perm_c gives it."""
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    n = instance.n
    off = instance.qi != instance.qj
    i, j = instance.qi[off], instance.qj[off]
    adj = csc_array((np.ones(2 * i.size), (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    degree_plus_one = csc_array((np.diff(adj.indptr) + 1.0, (np.arange(n), np.arange(n))), shape=(n, n))
    lu = splu(
        degree_plus_one - adj,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu.perm_c


def fixed_z_qp(instance: Instance, z) -> tuple[np.ndarray, float]:
    """Minimize over x with the support fixed to z.

    Solves Q_S x_S = -c_S on the support S = {i : z_i = 1}; at that
    stationary point the objective collapses to sum(a_S) + (1/2) c_S . x_S.
    Q_S is factored as L D L' by the compiled sparse kernel
    (`_kernels.ldl_kernel`), in the order that the instance's
    fill-reducing order (`Instance.fill_order`, computed at the first
    refit) induces on S; so the cost follows the nonzeros of the factor
    rather than |S|^3. Raises SingularSupport when a pivot of that factor
    is at or below PIVOT_TOL, and InputError when z does not have
    length n.
    """
    z = np.asarray(z)
    if z.shape != (instance.n,):
        raise InputError("z must have length n")
    sel = np.flatnonzero(z)
    x = np.zeros(instance.n)
    if sel.size == 0:
        return x, 0.0
    # the support in elimination order, and each variable's place in it
    sub = sel[np.argsort(instance.fill_order[sel])]
    pos = np.full(instance.n, -1, dtype=np.int64)
    pos[sub] = np.arange(sub.size)
    qi, qj = pos[instance.qi], pos[instance.qj]
    on = (qi >= 0) & (qj >= 0)
    qi, qj, qv = qi[on], qj[on], instance.qv[on]
    # the upper triangle, in elimination positions, by columns
    row, col = np.minimum(qi, qj), np.maximum(qi, qj)
    order = np.argsort(col, kind="stable")
    colptr = np.zeros(sub.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=sub.size), out=colptr[1:])
    xs = -instance.c[sub]
    fail = ldl_kernel(sub.size, colptr, row[order], qv[order], xs)
    if fail >= 0:
        raise SingularSupport(f"pivot at or below {PIVOT_TOL:g} at variable {sub[fail]} of the support")
    x[sub] = xs
    xs = x[sel]
    value = float(np.sum(instance.a[sel]) + 0.5 * instance.c[sel] @ xs)
    return x, value


def enumerate_supports(instance: Instance) -> OracleResult:
    """Minimize over every support; ties go to the lexicographically
    smallest z. Supports with a singular restriction are skipped.

    Raises InputError when the objective is unbounded below, where the
    enumeration, skipping every support with a pivot at or below
    PIVOT_TOL, would report a finite value: when an eigenvalue of Q lies
    below -PSD_TOL times the largest eigenvalue magnitude, or when c has
    a relative component above NULL_TOL along the eigenvectors of the
    eigenvalues at or below that tolerance. For positive semidefinite Q,
    null(Q_S) = {v in null(Q) : supp v in S}, so some support is
    unbounded exactly when c has a component in null(Q).

    `enumerate_kernel` finds the best support, depth first; its value
    rounds as that walk does, so the winner is refitted with `fixed_z_qp`,
    and x and the value come from there.
    """
    n = instance.n
    if n > MAX_ENUM_VARS:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {MAX_ENUM_VARS}")
    q = instance.dense_q()
    eig, vec = np.linalg.eigh(q)
    tol = PSD_TOL * np.abs(eig).max()
    if eig[0] < -tol:
        raise InputError(f"Q is not positive semidefinite: least eigenvalue {eig[0]:.6g}")
    along_null = np.linalg.norm(vec[:, eig <= tol].T @ instance.c)
    if along_null > NULL_TOL * np.linalg.norm(instance.c):
        raise InputError(
            f"objective unbounded below: c has a component of size {along_null:.6g} in the null space of Q"
        )
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
