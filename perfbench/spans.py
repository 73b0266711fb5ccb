"""Span tracing for the benchmark's traced run.

`installed(tracer)` binds a wrapper onto each l0path module attribute at
the place its caller looks it up (`decomp.h_eval` for `run`,
`tridiag.labels_kernel` for `solve`, ...) and restores the originals on
exit. A wrapper records a span (name, start, end, parent, instance) and,
for a few entry points, counters read from its arguments or result. The
per-term conjugate calls only count, to keep the overhead small. Spans
stay in memory; `instance_metrics` turns them into per-layer numbers
after the run. Outside `Tracer.instance` a wrapper calls straight
through, so correctness checks made between instances leave no spans.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from l0path import cover, decomp, oracle, tridiag
from l0path.errors import SingularSupport

# metric name -> span name whose inclusive time it sums
TIMED = {
    "instance.validate_s": "instance.validate",
    "instance.support_graph_s": "instance.support_graph",
    "cover.path_cover_s": "cover.path_cover",
    "cover.b2_subgraph_s": "cover.b2_subgraph",
    "cover.break_cycles_s": "cover.break_cycles",
    "cover.make_ordering_s": "cover.make_ordering",
    "decomp.build_relaxation_s": "decomp.build_relaxation",
    "decomp.run_s": "decomp.run",
    "decomp.h_eval_s": "decomp.h_eval",
    "decomp.assemble_psi_s": "decomp.assemble_psi",
    "decomp.subgradient_s": "decomp.subgradient",
    "decomp.upper_bound_s": "decomp.upper_bound",
    "tridiag.solve_s": "tridiag.solve",
    "tridiag.to_tridiagonal_s": "tridiag.to_tridiagonal",
    "kernels.labels_s": "kernels.labels",
    "kernels.thomas_s": "kernels.thomas",
    "kernels.enumerate_s": "kernels.enumerate",
    "oracle.enumerate_supports_s": "oracle.enumerate_supports",
    "oracle.fixed_z_qp_s": "oracle.fixed_z_qp",
}

# metric name -> span name whose calls it counts
CALLS = {
    "tridiag.solve_calls": "tridiag.solve",
    "kernels.thomas_calls": "kernels.thomas",
    "oracle.fixed_z_qp_calls": "oracle.fixed_z_qp",
}

# counters the observers accumulate per instance and report as they are
COUNTS = (
    "fenchel.f_star_calls",
    "fenchel.f_star_subgradient_calls",
    "kernels.labels_cells",
    "oracle.supports_enumerated",
    "oracle.refit_singular",
    "oracle.refit_support_max",
    "decomp.iterations",
    "decomp.segments",
    "decomp.segment_len_max",
    "decomp.relaxed_terms",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    inst: int


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.inst: int | None = None
        self._stack: list[int] = []
        # per-instance state the refit observers need
        self._last_upper = math.inf
        self._proposed: set[bytes] = set()
        self._refit: set[bytes] = set()
        self.refit_skipped: dict[int, int] = {}

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.inst))
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextmanager
    def instance(self, k: int):
        """Root span of instance k; wrappers record only inside it."""
        self.inst = k
        self._last_upper = math.inf
        self._proposed, self._refit = set(), set()
        self._open("instance")
        try:
            yield
        finally:
            self._close()
            self.refit_skipped[k] = len(self._proposed - self._refit)
            self.inst = None

    def add(self, name: str, value: float) -> None:
        self.counts[self.inst][name] += value

    def peak(self, name: str, value: float) -> None:
        row = self.counts[self.inst]
        row[name] = max(row[name], value)

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(args, result) runs after a return."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inst is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that it only counts calls."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inst is not None:
                self.counts[self.inst][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers: counters read from arguments and results ---------------

    def _labels(self, args, out):
        m = args[0].shape[0]
        self.add("kernels.labels_cells", m * (m + 1) // 2)

    def _enumerated(self, args, out):
        self.add("oracle.supports_enumerated", out.supports_enumerated)

    def _relaxation(self, args, r):
        self.add("decomp.segments", len(r.segments))
        self.peak("decomp.segment_len_max", max((e - s for s, e in r.segments), default=0))
        self.add("decomp.relaxed_terms", len(r.relaxed))
        self.add("cover.retained_weight", sum(t.w for t in r.retained))
        self.add("cover.total_weight", sum(t.w for t in r.retained + r.relaxed))

    def _run(self, args, res):
        self.add("decomp.iterations", res.iterations)
        lowers = [-math.inf] + [rec.lower for rec in res.records]
        self.add("decomp.lower_raised", sum(b > a for a, b in zip(lowers, lowers[1:])))

    def _h_eval(self, args, out):
        self._proposed.add(out[2].tobytes())

    def _upper(self, args, ub):
        self._last_upper = ub

    def _fixed_z_qp(self, args, out):
        z = args[1]
        self._refit.add(z.tobytes())
        self.peak("oracle.refit_support_max", int((z != 0).sum()))
        if out[1] < self._last_upper:
            self.add("oracle.refit_improved", 1)

    def _singular_counted(self, fn):
        @functools.wraps(fn)
        def wrapper(instance, z):
            try:
                return fn(instance, z)
            except SingularSupport:
                if self.inst is not None:
                    self._refit.add(z.tobytes())
                    self.add("oracle.refit_singular", 1)
                raise

        return wrapper


def _bindings(t: Tracer):
    """(module, attribute, wrapper factory) for every traced call site."""
    return [
        (decomp, "validate", lambda f: t.span("instance.validate", f)),
        (decomp, "support_graph", lambda f: t.span("instance.support_graph", f)),
        (decomp, "path_cover", lambda f: t.span("cover.path_cover", f)),
        (cover, "b2_subgraph_bipartite", lambda f: t.span("cover.b2_subgraph", f)),
        (cover, "b2_subgraph_general", lambda f: t.span("cover.b2_subgraph", f)),
        (cover, "break_cycles", lambda f: t.span("cover.break_cycles", f)),
        (cover, "make_ordering", lambda f: t.span("cover.make_ordering", f)),
        (decomp, "build_relaxation", lambda f: t.span("decomp.build_relaxation", f, t._relaxation)),
        (decomp, "run", lambda f: t.span("decomp.run", f, t._run)),
        (decomp, "h_eval", lambda f: t.span("decomp.h_eval", f, t._h_eval)),
        (decomp, "assemble_psi", lambda f: t.span("decomp.assemble_psi", f)),
        (decomp, "subgradient", lambda f: t.span("decomp.subgradient", f)),
        (decomp, "upper_bound", lambda f: t.span("decomp.upper_bound", f, t._upper)),
        (decomp, "fixed_z_qp", lambda f: t.span("oracle.fixed_z_qp", t._singular_counted(f), t._fixed_z_qp)),
        (decomp, "f_star", lambda f: t.counter("fenchel.f_star_calls", f)),
        (decomp, "f_star_subgradient", lambda f: t.counter("fenchel.f_star_subgradient_calls", f)),
        (decomp, "solve_tridiag", lambda f: t.span("tridiag.solve", f)),
        (tridiag, "solve", lambda f: t.span("tridiag.solve", f)),
        (tridiag, "to_tridiagonal", lambda f: t.span("tridiag.to_tridiagonal", f)),
        (tridiag, "labels_kernel", lambda f: t.span("kernels.labels", f, t._labels)),
        (tridiag, "thomas_kernel", lambda f: t.span("kernels.thomas", f)),
        (oracle, "enumerate_supports", lambda f: t.span("oracle.enumerate_supports", f, t._enumerated)),
        (oracle, "enumerate_kernel", lambda f: t.span("kernels.enumerate", f)),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Bind the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for mod, attr, wrap in _bindings(tracer):
            original = getattr(mod, attr)
            setattr(mod, attr, wrap(original))
            saved.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[idx], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def instance_metrics(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each traced instance (times in seconds)."""
    selfs = self_times(tracer.spans)
    per: dict[int, dict[str, float]] = {}
    for s, own in zip(tracer.spans, selfs):
        row = per.setdefault(s.inst, defaultdict(float))
        row["span:" + s.name] += s.end - s.start
        row["calls:" + s.name] += 1
        row["self:" + s.name] += own
    out = {}
    for k, row in per.items():
        c = tracer.counts[k]
        m = {name: row["span:" + span] for name, span in TIMED.items()}
        m.update({name: row["calls:" + span] for name, span in CALLS.items()})
        m["decomp.h_eval_self_s"] = row["self:decomp.h_eval"]
        m["decomp.iter_s"] = m["decomp.run_s"] / c["decomp.iterations"] if c["decomp.iterations"] else 0.0
        m["decomp.lower_raised_frac"] = (
            c["decomp.lower_raised"] / c["decomp.iterations"] if c["decomp.iterations"] else 0.0
        )
        m["decomp.refit_skipped"] = tracer.refit_skipped.get(k, 0)
        refits = m["oracle.fixed_z_qp_calls"]
        m["oracle.refit_improved_frac"] = c["oracle.refit_improved"] / refits if refits else 0.0
        m["cover.retained_weight_frac"] = (
            c["cover.retained_weight"] / c["cover.total_weight"] if c["cover.total_weight"] else 0.0
        )
        m.update({name: c[name] for name in COUNTS})
        m["wall_s"] = row["span:instance"]
        m["self_sum_s"] = sum(v for key, v in row.items() if key.startswith("self:"))
        out[k] = m
    return out
