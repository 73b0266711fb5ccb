"""The benchmark's workloads: instance recipes, timed solves, correctness gates.

Each workload turns an instance seed into one generated `Instance`, solves
it through the public entry points of l0path, and checks the result
against an evaluation the solver did not produce. Entry points are looked
up as module attributes at call time (`tridiag.solve`, `decomp.run`, ...)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from l0path import decomp, oracle, tridiag
from l0path.instance import Instance, gen_lattice2d, gen_tridiagonal

BOUND_TOL = 1e-8  # absolute slack on bound comparisons, as in acceptance test a4
REL_TOL = 1e-9  # two evaluations of one objective must agree to this share


def instance_seed(seed: int, k: int) -> int:
    """Philox key of the k-th instance of a run started with `seed`."""
    return (seed << 32) | k


def random_dd_instance(rng: np.random.Generator, n: int, density: float) -> Instance:
    """Random sparse diagonally dominant instance with a strict margin.

    Same draw order as the test suite's `random_dd_instance`, so the
    family matches the one acceptance test a4 certifies.
    """
    offdiag = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < density:
                v = float(rng.uniform(-2.0, 2.0))
                if v != 0.0:
                    offdiag[(i, j)] = v
    rowsum = np.zeros(n)
    for (i, j), v in offdiag.items():
        rowsum[i] += abs(v)
        rowsum[j] += abs(v)
    entries = [(i, i, rowsum[i] + rng.uniform(0.5, 3.0)) for i in range(n)]
    entries += [(i, j, v) for (i, j), v in sorted(offdiag.items())]
    a = rng.uniform(0.0, 2.0, n)
    c = rng.uniform(-10.0, 5.0, n)
    return Instance(
        n=n,
        a=a,
        c=c,
        qi=np.array([e[0] for e in entries], dtype=np.int64),
        qj=np.array([e[1] for e in entries], dtype=np.int64),
        qv=np.array([e[2] for e in entries], dtype=np.float64),
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def certified_gap(res: decomp.RunResult) -> float:
    """Relative gap recomputed from the returned bounds, not read from the
    solver's own `gap` field."""
    return max(0.0, (res.upper - res.lower) / max(abs(res.upper), decomp.GAP_DIV_GUARD))


# -- path_exact -------------------------------------------------------------


def _solve_path(inst: Instance):
    p = tridiag.to_tridiagonal(inst)
    return p, tridiag.solve(p)


def _check_path(inst: Instance, out) -> str | None:
    p, sol = out
    if sol.x.shape != (inst.n,) or sol.z.shape != (inst.n,):
        return "solution has the wrong length"
    direct = p.objective(sol.x, sol.z)
    if not _close(sol.objective, direct):
        return f"objective {sol.objective!r} != direct evaluation {direct!r}"
    _, fixed = tridiag.solve_fixed_z(p, sol.z)
    if not _close(sol.objective, fixed):
        return f"objective {sol.objective!r} != fixed-support refit {fixed!r}"
    return None


# -- decomposition workloads ------------------------------------------------


def _decomp_solver(config: decomp.RunConfig):
    def solve(inst: Instance):
        return decomp.run(inst, decomp.default_relaxation(inst), config)

    return solve


def _check_bounds(inst: Instance, res: decomp.RunResult, eps: float) -> str | None:
    if not res.lower <= res.upper + BOUND_TOL:
        return f"lower {res.lower!r} above upper {res.upper!r}"
    if res.x is None or res.z is None:
        return "no incumbent returned"
    if not np.all((res.z == 0) | (res.z == 1)):
        return "z is not binary"
    if np.any(res.x[res.z == 0] != 0):
        return "x is nonzero off the support of z"
    direct = inst.objective(res.x, res.z)
    if not _close(res.upper, direct):
        return f"upper {res.upper!r} != objective at the incumbent {direct!r}"
    if res.reason == "gap" and not certified_gap(res) <= eps:
        return f"stopped on gap but the bounds give gap {certified_gap(res)!r} > {eps}"
    return None


def _lattice_checker(eps: float):
    return lambda inst, res: _check_bounds(inst, res, eps)


def _gap_certified(eps: float):
    return lambda res: certified_gap(res) <= eps


def _small_solver(config: decomp.RunConfig):
    run_decomp = _decomp_solver(config)

    def solve(inst: Instance):
        return oracle.enumerate_supports(inst), run_decomp(inst)

    return solve


def _small_checker(eps: float):
    def check(inst: Instance, out) -> str | None:
        ref, res = out
        err = _check_bounds(inst, res, eps)
        if err:
            return err
        direct = inst.objective(ref.x, ref.z)
        if not _close(ref.value, direct):
            return f"oracle value {ref.value!r} != objective at its point {direct!r}"
        if not res.lower - BOUND_TOL <= ref.value <= res.upper + BOUND_TOL:
            return f"oracle optimum {ref.value!r} outside [{res.lower!r}, {res.upper!r}]"
        return None

    return check


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    make: instance seed -> instance (not timed).
    tiny: a small instance for the set-up probe's warm-up call; it goes
        through the same entry points as the timed instances.
    solve: the timed call; returns what `check` and `certified` read.
    check: None when the result is correct, else the reason it is not.
    certified: whether the certified gap reached the workload's target.
    """

    name: str
    make: Callable[[int], Instance]
    tiny: Callable[[], Instance]
    solve: Callable[[Instance], object]
    check: Callable[[Instance, object], str | None]
    certified: Callable[[object], bool]

    def instance(self, seed: int, k: int) -> Instance:
        """The k-th instance of a run started with `seed`."""
        return self.make(instance_seed(seed, k))


def _workloads() -> dict[str, Workload]:
    cover_eps, tight_eps, small_eps = 0.01, 0.001, 0.05
    harmonic = lambda eps: decomp.RunConfig("harmonic", eps=eps, max_iter=300)  # noqa: E731
    tiny_lattice = lambda: gen_lattice2d(3, 3, 0.3, 0.1, 0)  # noqa: E731
    philox = lambda s: np.random.Generator(np.random.Philox(key=s))  # noqa: E731
    return {
        w.name: w
        for w in (
            Workload(
                name="path_exact",
                make=lambda s: gen_tridiagonal(4000, s),
                tiny=lambda: gen_tridiagonal(8, 0),
                solve=_solve_path,
                check=_check_path,
                certified=lambda out: True,  # exact: a result that passes the gate has gap 0
            ),
            Workload(
                name="lattice_cover",
                make=lambda s: gen_lattice2d(40, 40, 0.3, 0.1, s),
                tiny=tiny_lattice,
                solve=_decomp_solver(harmonic(cover_eps)),
                check=_lattice_checker(cover_eps),
                certified=_gap_certified(cover_eps),
            ),
            Workload(
                name="lattice_tight",
                make=lambda s: gen_lattice2d(20, 20, 0.3, 0.1, s),
                tiny=tiny_lattice,
                solve=_decomp_solver(harmonic(tight_eps)),
                check=_lattice_checker(tight_eps),
                certified=_gap_certified(tight_eps),
            ),
            Workload(
                name="small_certify",
                make=lambda s: random_dd_instance(philox(s), 12, 0.4),
                # dense enough to hold a triangle, so the warm-up reaches the
                # general matching gadget as the timed instances do
                tiny=lambda: random_dd_instance(philox(0), 4, 1.0),
                solve=_small_solver(harmonic(small_eps)),
                check=_small_checker(small_eps),
                certified=lambda out: _gap_certified(small_eps)(out[1]),
            ),
        )
    }


WORKLOADS = _workloads()
