"""Closed-form conjugate of the rank-one perspective term and its
subgradients.

The underlying term is (x1 + sign * x2)^2 / min{1, z1 + z2} over
x in R^2, z in [0,1]^2. Its conjugate in the dual triple (alpha, beta1,
beta2) has the closed form

    f*(alpha, beta1, beta2)
        = max{0, alpha^2/4 - min(beta1, beta2)} - min{max(beta1, beta2), 0}

independently of the sign (the substitution x2 -> -x2 maps one sign case
onto the other without touching the duals).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DualTriple:
    """One multiplier triple for a relaxed pairwise term."""

    alpha: float
    beta1: float
    beta2: float
    sign: int = -1


def f_star(d: DualTriple) -> float:
    """Closed-form conjugate value."""
    lo = min(d.beta1, d.beta2)
    hi = max(d.beta1, d.beta2)
    return max(0.0, 0.25 * d.alpha**2 - lo) - min(hi, 0.0)


def f_star_subgradient(d: DualTriple) -> tuple[float, float, float]:
    """One subgradient of f* at d.

    The conjugate is a pointwise max of smooth pieces; each branch below
    returns the gradient of a piece active on that region. On the tie
    beta1 == beta2 both single-beta pieces are active and either gradient
    is valid; this routine decrements beta2 there (the choice that
    reproduces the reference iteration trajectory, see the decomposition
    tests).
    """
    q = 0.25 * d.alpha**2
    if d.beta1 > q and d.beta2 > q:
        return (0.0, 0.0, 0.0)
    if d.beta1 < 0 and d.beta2 < 0:
        return (0.5 * d.alpha, -1.0, -1.0)
    if d.beta1 >= d.beta2:
        return (0.5 * d.alpha, 0.0, -1.0)
    return (0.5 * d.alpha, -1.0, 0.0)
