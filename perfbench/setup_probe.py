"""Time one cold start of a workload's entry points.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds from `import l0path` to the end of one warm-up solve
of the workload's small instance, in this fresh interpreter. Kernel
compilation or loading lands here.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

t0 = time.perf_counter()
import l0path  # noqa: E402,F401
import workloads  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[1]]
inst = wl.tiny()
wl.solve(inst)
print(repr(time.perf_counter() - t0))
