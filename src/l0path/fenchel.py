"""Closed-form conjugate of the rank-one perspective term and its
subgradients.

The underlying term is (x1 + sign * x2)^2 / min{1, z1 + z2} over
x in R^2, z in [0,1]^2. Its conjugate in the dual triple (alpha, beta1,
beta2) has the closed form

    f*(alpha, beta1, beta2)
        = max{0, alpha^2/4 - min(beta1, beta2)} - min{max(beta1, beta2), 0}

independently of the sign (the substitution x2 -> -x2 maps one sign case
onto the other without touching the duals), so both functions take the
three duals alone.

These scalar functions are the specification: the decomposition's array
form of the subgradient (`decomp.subgradient`) is tested against
f_star_subgradient for bitwise equality, term by term. How alpha^2 is
rounded is part of that contract. f_star squares with `**`, which is
libm's pow for Python floats and numpy scalars alike; f_star_subgradient
squares by multiplication, as numpy's array square does. The two differ
in the last place on about 0.1% of inputs, and squaring by multiplication
in f_star moves some of h_eval's conjugate sums, and with them some
ascent trajectories, in the last bits.
"""

from __future__ import annotations

import math


def f_star(alpha: float, beta1: float, beta2: float) -> float:
    """Closed-form conjugate value."""
    lo = min(beta1, beta2)
    hi = max(beta1, beta2)
    try:
        sq = alpha**2
    except OverflowError:  # Python floats raise where numpy scalars give inf
        sq = math.inf
    return max(0.0, 0.25 * sq - lo) - min(hi, 0.0)


def f_star_subgradient(alpha: float, beta1: float, beta2: float) -> tuple[float, float, float]:
    """One subgradient of f* at (alpha, beta1, beta2).

    The conjugate is a pointwise max of smooth pieces; each branch below
    returns the gradient of a piece active on that region. On the tie
    beta1 == beta2 both single-beta pieces are active and either gradient
    is valid; this routine decrements beta2 there (the choice that
    reproduces the reference iteration trajectory, see the decomposition
    tests).
    """
    q = 0.25 * (alpha * alpha)
    if beta1 > q and beta2 > q:
        return (0.0, 0.0, 0.0)
    if beta1 < 0 and beta2 < 0:
        return (0.5 * alpha, -1.0, -1.0)
    if beta1 >= beta2:
        return (0.5 * alpha, 0.0, -1.0)
    return (0.5 * alpha, -1.0, 0.0)
