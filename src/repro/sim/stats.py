"""Performance-observability counters for the simulation hot path.

:class:`SimStats` is a passive counter/timer block owned by the
:class:`~repro.sim.engine.Simulator` and shared with its
:class:`~repro.sim.engine.RateModel` (and, through the cluster model, the
:class:`~repro.network.flows.FlowSolver`).  It answers "where did the wall
time go and how much work did the incremental machinery skip" — events
dispatched, resolves, nodes re-solved vs. reused, flow solves vs. memo
hits, and wall-seconds per subsystem.

Wall-clock reads here are deliberate and safe: timings are *observability
output only* and never feed back into simulated state, so determinism is
unaffected (the file is allowlisted for lint rule RL002 via
``wallclock-allowed`` in pyproject.toml).  Counter values, by contrast,
are deterministic and asserted in tests.
"""

from __future__ import annotations

import time


class SimStats:
    """Counters and subsystem wall-time accumulators for one simulation.

    Counters are plain integers keyed by name (``stats.count("resolves")``)
    and deterministic for a given simulation script.  Timings accumulate
    host wall seconds per named subsystem and are *not* deterministic —
    they exist to show where host time goes (``--profile``).
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timings: dict[str, float] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def timer(self, name: str) -> "_Timer":
        """Accumulate the wall time of the ``with`` body under ``name``."""
        return _Timer(self, name)

    def reset(self) -> None:
        self.counters.clear()
        self.timings.clear()

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot: counters plus ``t_<name>`` wall seconds."""
        out: dict[str, object] = dict(sorted(self.counters.items()))
        for name in sorted(self.timings):
            out[f"t_{name}"] = self.timings[name]
        return out

    def describe(self) -> list[str]:
        """Human-readable lines for the CLI ``--profile`` report."""
        lines = ["profile:"]
        for name in sorted(self.counters):
            lines.append(f"  {name} = {self.counters[name]}")
        for name in sorted(self.timings):
            lines.append(f"  t_{name} = {self.timings[name]:.4f}s")
        return lines


class _Timer:
    """One ``with stats.timer(name)`` entry.

    A fresh object per ``with``, so nesting the same name adds the inner
    and the outer body each once; the time is added on exit also when the
    body raises (the exception propagates).  A slotted class costs less
    than half of a ``@contextmanager`` generator per entry.
    """

    __slots__ = ("_stats", "_name", "_t0")

    def __init__(self, stats: SimStats, name: str) -> None:
        self._stats = stats
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._t0
        timings = self._stats.timings
        timings[self._name] = timings.get(self._name, 0.0) + elapsed
