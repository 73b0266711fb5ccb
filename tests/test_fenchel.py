import numpy as np

from l0path.fenchel import f_star, f_star_subgradient

from conftest import rng_for


def f_star_bruteforce(
    alpha: float,
    beta1: float,
    beta2: float,
    xmax: float = 10.0,
    xstep: float = 1e-3,
    zstep: float = 1e-2,
) -> float:
    """Grid evaluation of the defining supremum; a lower bound on f_star
    within O(xstep).

    The objective depends on x only through t = x1 + sign * x2 and on z
    only through (z1, z2, min{1, z1 + z2}), so the grid maximum factors:
    first the best t for every distinct denominator, then the best
    (z1, z2) pair.
    """
    t = np.arange(-xmax, xmax + 0.5 * xstep, xstep)
    zg = np.linspace(0.0, 1.0, round(1.0 / zstep) + 1)
    sums = zg[:, None] + zg[None, :]
    denom = np.minimum(1.0, sums)
    steps = np.unique(np.round(denom / zstep).astype(np.int64))
    steps = steps[steps > 0]
    mu = steps * zstep
    # best of alpha*t - t^2/mu per distinct denominator mu
    best_t = np.max(alpha * t[None, :] - t[None, :] ** 2 / mu[:, None], axis=1)
    lookup = np.full(int(steps.max()) + 1, -np.inf)
    lookup[steps] = best_t
    idx = np.round(denom / zstep).astype(np.int64)
    vals = np.where(
        sums > 0.0,
        lookup[idx] - beta1 * zg[:, None] - beta2 * zg[None, :],
        0.0,  # z = 0 forces t = 0, leaving no dual contribution
    )
    return float(max(vals.max(), 0.0))


def persp(x1, x2, z1, z2, sign):
    s = x1 + sign * x2
    m = min(1.0, z1 + z2)
    if m <= 0.0:
        return 0.0 if s == 0.0 else float("inf")
    return s * s / m


def dual_value(d, sign, x1, x2, z1, z2):
    alpha, beta1, beta2 = d
    s = x1 + sign * x2
    return alpha * s - beta1 * z1 - beta2 * z2 - f_star(*d)


def random_triple(rng):
    """Three duals (alpha, beta1, beta2) and a coupling sign; the
    conjugate depends on the duals alone."""
    t = rng.uniform(-5.0, 5.0, 3)
    sign = -1 if rng.uniform() < 0.5 else 1
    return (float(t[0]), float(t[1]), float(t[2])), sign


def subgradient_plane_holds(p, q):
    """f*(p) >= f*(q) + xi . (p - q) for the subgradient xi at q."""
    xi = f_star_subgradient(*q)
    rhs = f_star(*q) + xi[0] * (p[0] - q[0]) + xi[1] * (p[1] - q[1]) + xi[2] * (p[2] - q[2])
    return f_star(*p) >= rhs - 1e-9


def test_conjugate_pinned_values():
    assert f_star(0, 0, 0) == 0.0
    assert f_star(2, -1, -2) == 4.0
    assert f_star(0, 1, 1) == 0.0
    assert f_star(2, 0, 1) == 1.0


def test_conjugate_symmetric_in_betas():
    rng = rng_for(40)
    for _ in range(200):
        (alpha, beta1, beta2), _ = random_triple(rng)
        assert f_star(alpha, beta1, beta2) == f_star(alpha, beta2, beta1)


def test_conjugate_convex():
    rng = rng_for(41)
    for _ in range(2000):
        (p, _), (q, _) = random_triple(rng), random_triple(rng)
        mid = [0.5 * (u + v) for u, v in zip(p, q)]
        assert f_star(*mid) <= 0.5 * (f_star(*p) + f_star(*q)) + 1e-12


def test_subgradient_pinned_values():
    assert f_star_subgradient(0, 1, 1) == (0.0, 0.0, 0.0)
    assert f_star_subgradient(2, 0, 0) == (1.0, 0.0, -1.0)
    assert f_star_subgradient(2, -1, -2) == (1.0, -1.0, -1.0)


def test_subgradient_inequality():
    rng = rng_for(42)
    for _ in range(500):
        (p, _), (q, _) = random_triple(rng), random_triple(rng)
        assert subgradient_plane_holds(p, q)


def test_weak_duality():
    # any dual triple minorizes the ratio term over the whole domain
    rng = rng_for(44)
    for _ in range(2000):
        d, sign = random_triple(rng)
        x1, x2 = rng.uniform(-3.0, 3.0, 2)
        z1, z2 = rng.uniform(0.0, 1.0, 2)
        if z1 + z2 == 0.0:
            continue
        assert persp(x1, x2, z1, z2, sign) >= dual_value(d, sign, x1, x2, z1, z2) - 1e-9


def test_bruteforce_bounds_exact_value():
    rng = rng_for(45)
    for _ in range(40):
        d, _ = random_triple(rng)
        grid = f_star_bruteforce(*d)
        exact = f_star(*d)
        assert grid <= exact + 1e-12
        assert exact - grid <= 2e-3


def test_bruteforce_coarse_grid_still_lower():
    coarse = f_star_bruteforce(1.7, -0.3, 0.4, xstep=0.05, zstep=0.1)
    assert coarse <= f_star(1.7, -0.3, 0.4) + 1e-12
