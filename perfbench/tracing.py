"""Span wrappers around the public entry points of each ``repro`` layer.

Two recorders live here:

* :class:`RunRecorder` wraps ``Simulator.run`` only.  It is installed in
  every benchmark process because ``sim_s_per_host_s`` is defined by it:
  simulated seconds advanced and host seconds spent inside ``run``, plus
  the deltas of the engine's own deterministic ``SimStats`` counters.
  It costs two clock reads and two small dict copies per ``run`` call.
* :class:`Tracer` wraps one entry point per layer (see :data:`SPANS`)
  and is installed only in the traced run (``--trace 1``).  It keeps
  per-name totals in memory: call count, total seconds and self seconds
  (a span's duration minus the part of it covered by its child spans).

Nested calls under an already-open span of the same name (a subclass
calling ``super()``, ``report_run_dir`` calling ``Trace.load``) are not
spans of their own, so no interval is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable

#: (span name, module, class or None for a module-level function, attribute)
SPANS: tuple[tuple[str, str, str | None, str], ...] = (
    ("sim.run", "repro.sim.engine", "Simulator", "run"),
    ("cluster.resolve", "repro.cluster.ratemodel", "ClusterRateModel", "resolve_incremental"),
    ("cluster.resolve", "repro.cluster.ratemodel", "ArrayRateModel", "resolve_incremental"),
    ("cluster.accrue", "repro.cluster.ratemodel", "ClusterRateModel", "accrue"),
    ("cluster.accrue", "repro.cluster.ratemodel", "ArrayRateModel", "accrue"),
    ("network.solve", "repro.network.flows", "FlowSolver", "solve"),
    ("storage.solve", "repro.storage.filesystem", "SharedFilesystem", "solve"),
    # the 1 Hz sampling callback the engine invokes (the SimStats
    # "monitoring" timer covers the same body)
    ("monitoring.tick", "repro.monitoring.service", "MetricService", "_tick"),
    ("obs.collect", "repro.obs.spans", "SpanCollector", "on_process_start"),
    ("obs.collect", "repro.obs.spans", "SpanCollector", "on_segment_start"),
    ("obs.collect", "repro.obs.spans", "SpanCollector", "on_segment_end"),
    ("obs.collect", "repro.obs.spans", "SpanCollector", "on_process_end"),
    ("obs.collect", "repro.obs.spans", "SpanCollector", "on_resolve"),
    ("obs.write", "repro.obs.stream", "JsonlStreamWriter", "on_span_close"),
    ("obs.write", "repro.obs.stream", "JsonlStreamWriter", "on_instant"),
    ("obs.write", "repro.obs.stream", "ChromeStreamWriter", "on_span_close"),
    ("obs.write", "repro.obs.stream", "ChromeStreamWriter", "on_instant"),
    ("obs.write", "repro.obs.stream", "ChromeStreamWriter", "close"),
    ("obs.write", "repro.obs.stream", "MetricJsonlStreamWriter", "on_metric_sample"),
    ("obs.write", "repro.obs.stream", "CounterStreamWriter", "on_metric_sample"),
    ("obs.write", "repro.obs.stream", "_FileSink", "flush"),
    ("obs.write", "repro.obs.stream", "_FileSink", "close"),
    ("obs.load", "repro.obs.report", None, "report_run_dir"),
    ("obs.load", "repro.obs.analyze", "Trace", "load"),
    ("analytics.features", "repro.analytics.diagnosis", "DiagnosisDataset", "from_runs"),
    ("analytics.train", "repro.analytics.diagnosis", "DiagnosisPipeline", "evaluate"),
    ("service.store", "repro.service._store", "ResultStore", "get"),
    ("service.store", "repro.service._store", "ResultStore", "put"),
    ("traces.generate", "repro.traces.generators", None, "generate_trace"),
    ("traces.dumps", "repro.traces.schema", None, "dumps"),
    ("traces.loads", "repro.traces.schema", None, "loads"),
    # where fig9/fig10 look up their monitored-run generator
    ("experiments.generate_runs", "repro.experiments.fig9_f1", None, "generate_runs"),
)


def _owner(module: str, cls: str | None) -> object:
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


class _Patcher:
    """Replace attributes and put the originals back on :meth:`uninstall`."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, wrap: Callable) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: object = classmethod(wrap(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


class RunRecorder(_Patcher):
    """Host seconds, simulated seconds and counter deltas per ``Simulator.run``."""

    def __init__(self) -> None:
        super().__init__()
        #: one entry per run() call: (sim seconds, host seconds, counters, timings)
        self.runs: list[tuple[float, float, dict[str, int], dict[str, float]]] = []

    def install(self) -> "RunRecorder":
        from repro.sim.engine import Simulator

        runs = self.runs
        perf = time.perf_counter

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def run(sim, *args, **kwargs):
                now0 = sim.now
                counters0 = dict(sim.stats.counters)
                timings0 = dict(sim.stats.timings)
                t0 = perf()
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    host = perf() - t0
                    counters = sim.stats.counters
                    timings = sim.stats.timings
                    runs.append(
                        (
                            sim.now - now0,
                            host,
                            {
                                k: v - counters0.get(k, 0)
                                for k, v in counters.items()
                                if v != counters0.get(k, 0)
                            },
                            {k: v - timings0.get(k, 0.0) for k, v in timings.items()},
                        )
                    )

            return run

        self.patch(Simulator, "run", wrap)
        return self

    def mark(self) -> int:
        return len(self.runs)

    def counters(self, start: int = 0, stop: int | None = None) -> dict[str, int]:
        """Summed counter deltas of the runs in ``[start, stop)``."""
        total: dict[str, int] = defaultdict(int)
        for _, _, counters, _ in self.runs[start:stop]:
            for key, value in counters.items():
                total[key] += value
        return dict(sorted(total.items()))

    def per_run_counters(self, start: int, stop: int) -> list[tuple]:
        return [tuple(sorted(c.items())) for _, _, c, _ in self.runs[start:stop]]

    def timing(self, name: str, start: int = 0) -> float:
        return sum(t.get(name, 0.0) for _, _, _, t in self.runs[start:])

    def speed(self, start: int = 0) -> tuple[float, float]:
        """(simulated seconds, host seconds inside run) since ``start``."""
        runs = self.runs[start:]
        return sum(r[0] for r in runs), sum(r[1] for r in runs)


class Tracer(_Patcher):
    """Per-layer call counts, total and self seconds (traced run only)."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: analytics windows built and monitored runs generated
        self.windows = 0
        self.sim_runs: list[tuple] = []
        self._stack: list[list[float]] = []
        self._open: set[str] = set()

    def reset(self) -> None:
        self.calls.clear()
        self.total.clear()
        self.self_s.clear()
        self.windows = 0
        self.sim_runs.clear()

    def install(self) -> "Tracer":
        for name, module, cls, attr in SPANS:
            self.patch(_owner(module, cls), attr, self._spanner(name))
        return self

    def _spanner(self, name: str) -> Callable[[Callable], Callable]:
        stack, open_names = self._stack, self._open
        calls, total, self_s = self.calls, self.total, self.self_s
        perf = time.perf_counter
        on_result = {
            "analytics.features": self._count_windows,
            "experiments.generate_runs": self._count_runs,
        }.get(name)

        def wrap(fn: Callable) -> Callable:
            signature = inspect.signature(fn) if on_result is not None else None

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if name in open_names:
                    return fn(*args, **kwargs)
                open_names.add(name)
                frame = [0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf() - t0
                    stack.pop()
                    open_names.discard(name)
                    calls[name] += 1
                    total[name] += duration
                    self_s[name] += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                if on_result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    on_result(bound.arguments, result)
                return result

            return traced

        return wrap

    def _count_windows(self, arguments: dict, dataset) -> None:
        self.windows += len(dataset.y)

    def _count_runs(self, arguments: dict, runs) -> None:
        # One monitored run per (app, label) under these generator knobs.
        knobs = tuple(
            (k, repr(v))
            for k, v in sorted(arguments.items())
            if k not in ("apps", "labels", "jobs")
        )
        self.sim_runs.extend((knobs, run.app, run.label) for run in runs)
