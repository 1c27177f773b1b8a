#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py           # every workload (~3 minutes)
    python3 perfbench/selftest.py --quick   # skip diagnosis_campaign

Each test runs ``run.py`` in a fresh process with ``--seconds 0`` (the
minimum number of passes) and checks one property:

* a planted perturbation of a simulated result makes the run fail
  (``failed`` above 0, ``correct`` false, exit code 1);
* a held-out input seed (no pinned digests) passes every other check;
* the metric names and units of a traced and an untraced run match the
  ``per_layer`` and ``end_to_end`` lists of ``BENCHMARK.json`` exactly;
* two processes running the same seed report identical work counters;
* a directory holding only ``BENCHMARK.json`` and the benchmark's files
  makes the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, *flags: str, seed: int = 0, trace: int = 0, cwd: Path = ROOT):
    """Run the benchmark; returns (exit code, stdout lines, parsed result or None)."""
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *flags]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, lines, result


def counters_line(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("counters "))


def main(argv: list[str]) -> int:
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    if "--quick" in argv:
        workloads = [w for w in workloads if w != "diagnosis_campaign"]
    failures: list[str] = []

    def expect(name: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}", flush=True)
        if not ok:
            failures.append(name)

    for workload in workloads:
        code, _, result = bench(workload, "--plant")
        expect(f"{workload}: planted perturbation fails the run",
               code == 1 and result is not None and result["failed"] > 0
               and not result["correct"])
        code, _, result = bench(workload, "--held-out", seed=1)
        expect(f"{workload}: held-out seed passes the unpinned checks",
               code == 0 and result is not None and result["correct"])

    cheap = "trace_replay_stream"
    for trace, key in ((1, "per_layer"), (0, "end_to_end")):
        _, _, result = bench(cheap, trace=trace)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: m["unit"] for k, m in (result or {}).get("metrics", {}).items()}
        expect(f"--trace {trace} metrics match BENCHMARK.json {key}", got == declared)

    _, first, _ = bench("scale_contention", seed=2)
    _, second, _ = bench("scale_contention", seed=2)
    expect("work counters repeat across processes",
           counters_line(first) == counters_line(second))

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, _, result = bench(cheap, cwd=bare)
    shutil.rmtree(bare)
    expect("without src/ the benchmark exits non-zero and prints no result",
           code != 0 and result is None)

    print(f"{len(failures)} self-test(s) failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
