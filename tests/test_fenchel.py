import numpy as np

from l0path.fenchel import DualTriple, f_star, f_star_subgradient

from conftest import rng_for


def f_star_bruteforce(
    d: DualTriple, xmax: float = 10.0, xstep: float = 1e-3, zstep: float = 1e-2
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
    best_t = np.max(d.alpha * t[None, :] - t[None, :] ** 2 / mu[:, None], axis=1)
    lookup = np.full(int(steps.max()) + 1, -np.inf)
    lookup[steps] = best_t
    idx = np.round(denom / zstep).astype(np.int64)
    vals = np.where(
        sums > 0.0,
        lookup[idx] - d.beta1 * zg[:, None] - d.beta2 * zg[None, :],
        0.0,  # z = 0 forces t = 0, leaving no dual contribution
    )
    return float(max(vals.max(), 0.0))


def persp(x1, x2, z1, z2, sign):
    s = x1 + sign * x2
    m = min(1.0, z1 + z2)
    if m <= 0.0:
        return 0.0 if s == 0.0 else float("inf")
    return s * s / m


def dual_value(d, x1, x2, z1, z2):
    s = x1 + d.sign * x2
    return d.alpha * s - d.beta1 * z1 - d.beta2 * z2 - f_star(d)


def random_triple(rng):
    t = rng.uniform(-5.0, 5.0, 3)
    sign = -1 if rng.uniform() < 0.5 else 1
    return DualTriple(float(t[0]), float(t[1]), float(t[2]), sign)


def test_conjugate_pinned_values():
    assert f_star(DualTriple(0, 0, 0)) == 0.0
    assert f_star(DualTriple(2, -1, -2)) == 4.0
    assert f_star(DualTriple(0, 1, 1)) == 0.0
    assert f_star(DualTriple(2, 0, 1)) == 1.0


def test_conjugate_symmetric_in_betas():
    rng = rng_for(40)
    for _ in range(200):
        d = random_triple(rng)
        swapped = DualTriple(d.alpha, d.beta2, d.beta1, d.sign)
        assert f_star(d) == f_star(swapped)


def test_conjugate_convex():
    rng = rng_for(41)
    for _ in range(2000):
        p, q = random_triple(rng), random_triple(rng)
        mid = DualTriple(
            0.5 * (p.alpha + q.alpha),
            0.5 * (p.beta1 + q.beta1),
            0.5 * (p.beta2 + q.beta2),
        )
        assert f_star(mid) <= 0.5 * (f_star(p) + f_star(q)) + 1e-12


def test_subgradient_pinned_values():
    assert f_star_subgradient(DualTriple(0, 1, 1)) == (0.0, 0.0, 0.0)
    assert f_star_subgradient(DualTriple(2, 0, 0)) == (1.0, 0.0, -1.0)
    assert f_star_subgradient(DualTriple(2, -1, -2)) == (1.0, -1.0, -1.0)


def test_subgradient_inequality():
    rng = rng_for(42)
    for _ in range(500):
        p, q = random_triple(rng), random_triple(rng)
        xi = f_star_subgradient(q)
        lhs = f_star(DualTriple(p.alpha, p.beta1, p.beta2, q.sign))
        rhs = (
            f_star(q)
            + xi[0] * (p.alpha - q.alpha)
            + xi[1] * (p.beta1 - q.beta1)
            + xi[2] * (p.beta2 - q.beta2)
        )
        assert lhs >= rhs - 1e-9


def test_weak_duality():
    # any dual triple minorizes the ratio term over the whole domain
    rng = rng_for(44)
    for _ in range(2000):
        d = random_triple(rng)
        x1, x2 = rng.uniform(-3.0, 3.0, 2)
        z1, z2 = rng.uniform(0.0, 1.0, 2)
        if z1 + z2 == 0.0:
            continue
        assert persp(x1, x2, z1, z2, d.sign) >= dual_value(d, x1, x2, z1, z2) - 1e-9


def test_bruteforce_bounds_exact_value():
    rng = rng_for(45)
    for _ in range(40):
        d = random_triple(rng)
        grid = f_star_bruteforce(d)
        exact = f_star(d)
        assert grid <= exact + 1e-12
        assert exact - grid <= 2e-3


def test_bruteforce_coarse_grid_still_lower():
    d = DualTriple(1.7, -0.3, 0.4, -1)
    coarse = f_star_bruteforce(d, xstep=0.05, zstep=0.1)
    assert coarse <= f_star(d) + 1e-12
