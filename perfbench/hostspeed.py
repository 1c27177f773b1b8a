"""How fast the host runs the benchmark's own core, sampled while it works.

On a shared host the same code runs up to 2.7x slower when another tenant
loads the physical core under the benchmark's virtual one, and that load
comes and goes within seconds.  A sampling thread, pinned to the core the
benchmark runs on, times a short fixed loop every ``INTERVAL_S`` (run once
untimed first, so the benchmark's own cache footprint does not count); the
mean sample over an interval says how much slower than the reference speed
the core ran then.  The benchmark's workloads, with larger working sets,
slow down more than the sampler does: their time grows as the sampler's
slowdown to the power ``EXPONENT``.  Host seconds are therefore multiplied
by ``(REF_S / mean sample) ** EXPONENT``, so they read as if the whole
interval had run at the reference speed.

On a 2-core Xeon VM the pass times of one run correlate with the mean
sample at 0.98, and the log-log slope of pass time against it was 1.27
(diagnosis_campaign) and 1.39 (scale_contention).  With an exponent of 1,
ten runs of each workload spread (quartile distance over median) 9-10% in
their median pass time, against 20-30% without rescaling; on ten fresh
runs each, in a period when raw pass times varied 2x, ``EXPONENT = 1.3``
left 3-5%.

The thread holds the GIL only while it runs its loop (about 3% of the
time), and only the standard library is imported here, so it can start
before the imports that ``setup_s`` measures.
"""

from __future__ import annotations

import heapq
import json
import os
import statistics
import threading
import time

#: seconds between two samples
INTERVAL_S = 0.02
#: seconds the sample loop takes at the reference speed: its fastest time, run
#: back to back, on a 2-core Xeon VM (Python 3.11)
REF_S = 230e-6
#: workload slowdown = sampler slowdown ** EXPONENT (fitted, see above)
EXPONENT = 1.3

_DOC = [{"id": i, "name": f"rank{i}", "deps": [i - 1, i - 2], "work": i * 0.5} for i in range(20)]


def sample_loop() -> float:
    """Seconds of a fixed mix of JSON, heap and interpreter work."""
    t0 = time.perf_counter()
    json.loads(json.dumps(_DOC, sort_keys=True))
    heap: list[tuple[int, int]] = []
    for i in range(100):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    while heap:
        heapq.heappop(heap)
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """A sampling thread on the calling thread's core; ``stop`` joins it."""

    def __init__(self) -> None:
        #: (perf_counter at the sample's start, seconds the sample took)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def start(self) -> "HostSpeed":
        # The sampler must share the core it measures: pin this thread to one
        # core before starting it (new threads and child processes inherit it).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t = time.perf_counter()
            sample_loop()
            self.samples.append((t, sample_loop()))

    def scale(self, t0: float, t1: float) -> float:
        """``(REF_S / mean sample taken in [t0, t1]) ** EXPONENT``.

        Host seconds spent in the interval, times this, are seconds at the
        reference speed.  An interval shorter than ``INTERVAL_S`` uses the
        sample nearest its end.
        """
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if not inside:
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - t1))[1]]
        return (REF_S / statistics.fmean(inside)) ** EXPONENT
