"""l0path benchmark: wall time to a certified result on generated workloads.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One workload runs as a closed loop with one client: instance k+1 is
generated only after instance k is solved and checked, until --seconds
have passed. Instances come from --seed alone; the solver receives only
the generated `Instance`. Every result goes through the workload's
correctness gate, and any failure makes the command exit 1.

--trace 0 prints the end-to-end metrics. Their times are scaled to a
reference host speed by a fixed reference loop timed between instances
(see HostSpeed); the unscaled times are printed too. --trace 1
alternates untraced and traced solves of each instance and prints the
per-layer metrics, medians over instances, from spans recorded around
the calls into each module. The metric names and units are the ones BENCHMARK.json declares.
--workload all runs every workload in its own fresh process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
P90_MIN_SAMPLES = 100  # p90 needs ten samples beyond it
CHILD_TIMEOUT_S = 180
REF_NOMINAL_S = 0.010  # reference-loop time that defines the speed times are reported at
REF_SHARE = 0.1  # reference-loop seconds per solve second, and before each set-up probe


def git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """Versions and kernel backend, so that a backend swap shows in results."""
    import networkx
    import scipy
    from l0path import _kernels

    def qualified(fn):
        return f"{fn.__module__}.{fn.__qualname__} ({type(fn).__name__})"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "have_numba": _kernels.HAVE_NUMBA,
        "labels_kernel": qualified(_kernels.labels_kernel),
        "thomas_kernel": qualified(_kernels.thomas_kernel),
        "enumerate_kernel": qualified(_kernels.enumerate_kernel),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def timed_solve(wl, inst, scope=None):
    """Solve one instance inside `scope`; returns (seconds, error, certified)."""
    t0 = time.perf_counter()
    try:
        with scope or nullcontext():
            out = wl.solve(inst)
    except Exception:  # a solve that raises is a failed instance, not a crashed run
        traceback.print_exc()
        return time.perf_counter() - t0, "raised", False
    elapsed = time.perf_counter() - t0
    err = wl.check(inst, out)
    return elapsed, err, err is None and wl.certified(out)


class Tally:
    """Outcomes of the instances attempted in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.certified = 0

    def record(self, k: int, err: str | None, certified: bool) -> None:
        self.attempted += 1
        self.certified += certified
        if err is not None:
            self.failed += 1
            print(f"instance {k}: {err}", file=sys.stderr)


def reference_loop() -> float:
    """Fixed work that never calls l0path, in the solver's mix: numpy
    operations on short slices inside a Python loop (like the label
    sweep), elimination steps on a 300x300 matrix (like the dense refit),
    then scalar Python with dict, heap and array-element traffic (like
    the cover and the enumeration)."""
    a = np.linspace(1.0, 2.0, 500)
    acc = np.zeros(500)
    total = 0.0
    for j in range(1, 500):
        v = a[:j] * 0.5 + acc[:j] / a[:j]
        acc[:j] = v
        total += float(v[int(np.argmin(v))])
    m = np.full((300, 300), 1e-3) + 300.0 * np.eye(300)
    for p in range(0, 300, 10):
        m[p + 1 :, p:] -= np.outer(m[p + 1 :, p] / m[p, p], m[p, p:])
    total += float(m.trace())
    heap, seen = [], {}
    for i in range(2500):
        key = (i * 7919) % 3001
        seen[key] = seen.get(key, 0) + i
        heapq.heappush(heap, (seen[key], key))
    while heap:
        total += heapq.heappop(heap)[1]
    g = np.zeros((12, 13))
    for p in range(12):
        for t in range(12):
            g[p, t] = p * 0.5 + t
    return total + float(g.sum())


class HostSpeed:
    """Reference-loop timings taken between the instances of a run.

    On a shared host the same program runs 15-25% faster or slower from
    one minute to the next. The reference loop slows down with it, so a
    run rescales its times to the speed at which the loop takes
    REF_NOMINAL_S, which makes runs taken at different moments comparable.
    """

    def __init__(self):
        self.times: list[float] = []

    def sample(self, seconds: float) -> None:
        """Time reference loops for at least `seconds`, and at least one."""
        spent = 0.0
        while spent < seconds or spent == 0.0:
            t0 = time.perf_counter()
            reference_loop()
            self.times.append(time.perf_counter() - t0)
            spent += self.times[-1]

    def factor(self) -> float:
        """Multiplier from this run's wall seconds to reference seconds."""
        return REF_NOMINAL_S / statistics.median(self.times)


def keep_going(start: float, seconds: float, spent: list[float]) -> bool:
    """Start another instance only while it is expected to end in the run.

    The first instance always runs; later ones are predicted to take the
    median so far, so a run of long instances does not overshoot by one.
    """
    if not spent:
        return True
    return time.perf_counter() - start + statistics.median(spent) <= seconds


def setup_seconds(name: str) -> float:
    """Median cold start of the workload over fresh interpreters, scaled
    by reference loops timed next to them."""
    host = HostSpeed()
    vals = []
    for _ in range(SETUP_PROBES):
        host.sample(REF_SHARE)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        vals.append(float(proc.stdout.split()[-1]))
    setup = statistics.median(vals)
    print(f"setup_s unscaled {setup!r}, reference loop factor {host.factor()!r}")
    return setup * host.factor()


def end_to_end(wl, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup = setup_seconds(wl.name)
    host = HostSpeed()
    times = []
    start = time.perf_counter()
    while keep_going(start, seconds, times):
        k = len(times)
        inst = wl.instance(seed, k)
        dt, err, cert = timed_solve(wl, inst)
        times.append(dt)
        tally.record(k, err, cert)
        host.sample(REF_SHARE * dt)
    f = host.factor()
    print(f"solve_s_p50 unscaled {statistics.median(times)!r}, reference loop factor {f!r}")
    if len(times) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1] * f
        print(f"solve_s_p90 {p90!r} s over {len(times)} instances")
    print(f"certified_frac {tally.certified / tally.attempted!r} over {tally.attempted} instances")
    return {
        "solve_s_p50": statistics.median(times) * f,
        "instances_per_s": len(times) / (sum(times) * f),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    import spans  # only the traced run loads the wrappers

    tracer = spans.Tracer()
    plain, traced = [], []

    def solve_traced(k, inst):
        with spans.installed(tracer):
            return timed_solve(wl, inst, tracer.instance(k))

    start = time.perf_counter()
    while keep_going(start, seconds, [a + b for a, b in zip(plain, traced)]):
        k = len(plain)
        inst = wl.instance(seed, k)
        sides = [(lambda: timed_solve(wl, inst), plain), (lambda: solve_traced(k, inst), traced)]
        # alternate which side runs first, so warm caches favour neither
        for solve, times in sides if k % 2 == 0 else sides[::-1]:
            dt, err, cert = solve()
            times.append(dt)
            tally.record(k, err, cert)
    rows = spans.instance_metrics(tracer).values()
    out = {name: statistics.median(r[name] for r in rows) for name in next(iter(rows))}
    out["trace.solve_s_p50"] = statistics.median(traced)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return out


def run_one(wl, args) -> int:
    print("environment " + json.dumps(environment()))
    # lazy imports and first-call costs are paid here, not by instance 0;
    # setup_s measures them in fresh interpreters
    wl.solve(wl.tiny())
    tally = Tally()
    if args.trace:
        values, units = per_layer(wl, args.seed, args.seconds, tally), declared_units("per_layer")
    else:
        values, units = end_to_end(wl, args.seed, args.seconds, tally), declared_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"workload {wl.name}  seed {args.seed}  instances {tally.attempted}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(names, args) -> int:
    """Each workload in its own fresh process; prints their outputs and a
    combined result with metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        status = status or proc.returncode
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(combined))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "l0path" / "__init__.py").is_file():
        print(f"error: no l0path sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(workloads.WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
