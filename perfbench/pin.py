#!/usr/bin/env python3
"""Regenerate ``pins.json``: the outputs each pinned input seed must give.

Run from the repository root when a workload's size or the pinned seed
count changes (never to make a failing check pass)::

    python3 perfbench/pin.py                      # every workload
    python3 perfbench/pin.py scale_contention     # just one

Each pinned seed runs one untimed pass with every other check enabled;
any failed check aborts without writing.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"


def pin(name: str) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.setup()
    recorder = tracing.RunRecorder().install()
    workdir = ROOT / ".perfbench" / f"pin-{os.getpid()}"
    seeds = {}
    try:
        for seed in range(workloads.PINNED_SEEDS):
            ctx = workloads.Context(workdir=workdir, input_seed=seed, pins=None,
                                    recorder=recorder)
            state = workload.prepare(ctx, 0)
            outcome = workload.check(ctx, state, workload.run(ctx, state))
            if outcome.failures:
                sys.exit(f"{name} seed {seed}: {outcome.failures}")
            seeds[str(seed)] = outcome.observed
            print(f"{name} seed {seed}: {outcome.observed}", flush=True)
    finally:
        recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"config": workload.config(), "seeds": seeds}


def main(argv: list[str]) -> int:
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = argv or sorted(workloads.WORKLOADS)
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for name in names:
        pins[name] = pin(name)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
