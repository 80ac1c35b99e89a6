"""In-memory spans recorded around calls into the library's layers.

Nothing under ``src/`` is instrumented.  A traced round installs thin
wrappers over the public functions that sit on each layer boundary
(``measure_spec``, ``TestBench``, ``Simulator.run``, ``evaluate_run``,
``fit_with_inference`` ...), rebinding them in the namespaces that call
them, and removes every wrapper when the round ends.  An untraced round
installs nothing, so it runs the library exactly as a user does.

Spans stay in memory (name, start, end, parent, run id) and are written
out once, at the end, as JSONL and as Chrome trace-event JSON.  All
spans recorded under one ``measure_spec`` call carry that spec's digest
as their run id.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "self_times",
    "union_length",
    "Instrumentation",
    "install_layers",
    "ProfilingTracer",
    "module_self_shares",
    "SELF_SHARE_MODULES",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._runs: List[str] = []

    @contextmanager
    def span(self, name: str, run: Optional[str] = None):
        """Record ``name`` around the body; ``run`` opens a new run id
        that every span nested inside inherits."""
        if not self.enabled:
            yield
            return
        if run is not None:
            self._runs.append(run)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._runs[-1] if self._runs else "")
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if run is not None:
                self._runs.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, prefix: str) -> bool:
        """Whether a span whose name starts with ``prefix`` is open."""
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- reading -------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of ``name`` spans; a span nested inside
        another span of the same name is not counted again."""
        return sum(
            s.duration for s in self.spans
            if s.name == name and not self._has_ancestor(s, name)
        )

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    # -- export --------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start_s": s.start,
                            "end_s": s.end,
                            "parent": s.parent,
                            "run": s.run,
                        }
                    )
                    + "\n"
                )

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (complete events), which Perfetto and
        chrome://tracing open directly."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": os.getpid(),
                "tid": 1,
                "args": {"id": i, "parent": s.parent, "run": s.run},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span), so overlapping children are not
    subtracted twice."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(i, [])
            if min(b, s.end) > max(a, s.start)
        ]
        out.append(s.duration - union_length(clipped))
    return out


# ----------------------------------------------------------------------
# instrumentation of layer boundaries
# ----------------------------------------------------------------------
class Instrumentation:
    """Rebinds attributes to traced wrappers; :meth:`remove` restores
    every original, in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


def install_layers(tracer: Tracer, inst: Instrumentation, simulated: bool) -> None:
    """Spans and counters at the layer boundaries a workload crosses.
    The live driver's layers report through the ``RunResult`` instead
    (send lag, health, client probe), so live gets only the guards."""
    import repro.guards.api as guards_api

    # guards: the audit run inside every measure_spec.
    inst.patch(guards_api, "evaluate_run", tracer.wrap("guards.evaluate", guards_api.evaluate_run))
    if simulated:
        _install_sim_layers(tracer, inst)


def _install_sim_layers(tracer: Tracer, inst: Instrumentation) -> None:
    import numpy as np

    import repro.core.attribution as attribution
    import repro.core.treadmill as treadmill
    import repro.measure.simbackend as simbackend
    import repro.scenarios.runtime as runtime
    import repro.sim.engine as engine
    import repro.sim.partition as partition
    import repro.stats.inference as inference

    # exec: the executor call the study makes (its self time, outside
    # the measure_spec spans nested in it, is the executor's overhead).
    inst.patch(attribution, "execute_specs", tracer.wrap("exec.execute_specs", attribution.execute_specs))

    # core: bench construction, per-instance reports, aggregation.
    inst.patch(simbackend, "TestBench", tracer.wrap("core.build", simbackend.TestBench))
    inst.patch(runtime, "ScenarioBench", tracer.wrap("core.build", runtime.ScenarioBench))
    inst.patch(
        treadmill.TreadmillInstance,
        "report",
        tracer.wrap("core.report", treadmill.TreadmillInstance.report),
    )
    for module in (simbackend, runtime):
        inst.patch(
            module,
            "aggregate_quantile",
            tracer.wrap("core.report", module.aggregate_quantile),
        )
    inst.patch(runtime, "grouped_quantiles", tracer.wrap("core.report", runtime.grouped_quantiles))
    inst.patch(
        attribution,
        "subsample_latencies",
        tracer.wrap("core.subsample", attribution.subsample_latencies),
    )

    # sim: every entry into the event loop.
    for method in ("run", "run_until", "run_window"):
        inst.patch(
            engine.Simulator,
            method,
            tracer.wrap("sim.run", getattr(engine.Simulator, method)),
        )

    # sim.partition: the conservative-window driver and its stats.
    original_drive = partition.drive_partitioned

    def drive_partitioned(build):
        with tracer.span("partition.drive"):
            stats = original_drive(build)
        tracer.count("partition.windows", stats.windows)
        tracer.count("partition.boundary_events", stats.boundary_events)
        tracer.count("partition.executed", stats.executed)
        return stats

    inst.patch(partition, "drive_partitioned", drive_partitioned)

    # stats: one span per fit_with_inference call (one per tau), with
    # exact counts of the quantile and quantreg calls made inside it.
    original_fit = attribution.fit_with_inference

    def fit_with_inference(experiments, names, tau, *args, **kwargs):
        with tracer.span(f"stats.fit.{tau:g}"):
            return original_fit(experiments, names, tau, *args, **kwargs)

    inst.patch(attribution, "fit_with_inference", fit_with_inference)
    original_solve = inference.fit_quantile_regression

    def fit_quantile_regression(*args, **kwargs):
        tracer.count("stats.quantreg_solves")
        return original_solve(*args, **kwargs)

    inst.patch(inference, "fit_quantile_regression", fit_quantile_regression)
    original_quantile = np.quantile

    def quantile(*args, **kwargs):
        if tracer.inside("stats.fit."):
            tracer.count("stats.quantile_calls")
        return original_quantile(*args, **kwargs)

    inst.patch(np, "quantile", quantile)


# ----------------------------------------------------------------------
# profiler self-time shares inside the kernel
# ----------------------------------------------------------------------
class ProfilingTracer(Tracer):
    """Records no spans; runs ``profile`` only inside spans called
    ``target``, so the shares cover the kernel and not the fit."""

    def __init__(self, profile: cProfile.Profile, target: str):
        super().__init__(enabled=False)
        self.profile = profile
        self.target = target

    @contextmanager
    def span(self, name: str, run: Optional[str] = None):
        if name != self.target:
            yield
            return
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()


#: share name -> source files (relative to the ``repro`` package) whose
#: functions' self time it sums.
SELF_SHARE_MODULES: Dict[str, Tuple[str, ...]] = {
    "engine": ("sim/engine.py",),
    "cpu": ("sim/cpu.py",),
    "network": ("sim/network.py",),
    "machine": ("sim/machine.py",),
    "memory": ("sim/memory.py",),
    "nic": ("sim/nic.py",),
    "rng": ("sim/rng.py",),
    "controllers": ("core/controllers.py",),
    "phases": ("core/phases.py",),
    "treadmill": ("core/treadmill.py",),
    "histogram": ("stats/histogram.py",),
    "workloads": ("workloads/",),
}


def module_self_shares(profile: cProfile.Profile, package_dir: str) -> Dict[str, float]:
    """Share of all profiled self time spent in each listed module."""
    stats = pstats.Stats(profile).stats
    total = 0.0
    by_share = {name: 0.0 for name in SELF_SHARE_MODULES}
    prefix = os.path.join(os.path.realpath(package_dir), "")
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        total += tottime
        path = os.path.realpath(filename) if filename.startswith(os.sep) else filename
        if not path.startswith(prefix):
            continue
        rel = path[len(prefix):].replace(os.sep, "/")
        for name, patterns in SELF_SHARE_MODULES.items():
            if any(rel == p or (p.endswith("/") and rel.startswith(p)) for p in patterns):
                by_share[name] += tottime
                break
    return {name: (v / total if total > 0 else 0.0) for name, v in by_share.items()}
