#!/usr/bin/env python3
"""The repro benchmark: three user workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload diagnosis_campaign --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``            median host seconds of a pass's timed part
* ``setup_s``           host seconds from interpreter start until the first
                        pass is ready (imports, client, clusters); the median
                        of this process and four fresh set-up processes
* ``sim_s_per_host_s``  simulated seconds per host second inside
                        ``Simulator.run`` (median over passes)
* ``peak_rss_mb``       peak resident memory of this process

Host seconds are given at the reference speed of ``hostspeed.py``: each
pass's and each set-up's seconds are rescaled by how fast a sampling
thread on the same core ran meanwhile, because another tenant's load on
the physical core slows the same code by up to 2.7x within seconds.  The
raw pass times are printed beside them.

``--trace 1`` runs an untraced warm-up pass, then alternates traced and
untraced passes, and reports the per-layer metrics (see ``tracing.py``)
of the traced ones, plus the tracing overhead: traced minus untraced
``wall_s``, leaving out the warm-up pass, whose lazy first-use costs
would otherwise hide the overhead.  ``tracing.wall_s`` and the overhead
are rescaled like ``wall_s``; the span times are raw host seconds.

Load model: one process pinned to one core, one caller, a closed loop;
jobs run inline (``Client(shards=0)``, ``jobs=1``).  ``REPRO_BACKEND`` is
removed from the environment so the default backend is measured.  Every pass checks its
outputs; a pass's operations (simulated runs, jobs, replays) whose checks
fail count as failed, and ``failed/attempted`` is the run's failure
share.  Work counters must repeat exactly between passes of one run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable summary, the run metadata and the work counters.
The full report is also written to ``.perfbench/results/``.

``--held-out`` runs an input seed outside the pinned set (every check
except the pinned digests); ``--plant`` perturbs a simulated result before
it is checked, so the run must fail.  Both exist for ``selftest.py``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: extra fresh processes timed for ``setup_s`` (this process is one more)
SETUP_PROBES = 4
#: passes per run, at least (a traced run adds a warm-up and a traced pass)
MIN_PASSES = 3
#: no new pass starts when it would likely end after this many seconds
HARD_LIMIT_S = 140.0

#: (name, unit) of the end-to-end metrics, printed with tracing off
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mb", "MB"),
)

#: the stress each workload was chosen for, confirmed from the traced run
STRESS = {
    "diagnosis_campaign": (
        "analytics.*_s + cluster.node_s > network.solve_s",
        lambda m: m["analytics.features_s"] + m["analytics.train_s"] + m["cluster.node_s"]
        > m["network.solve_s"],
    ),
    "scale_contention": (
        "network.solve_s + cluster.accrue_s is the largest share of sim.run_s",
        lambda m: m["network.solve_s"] + m["cluster.accrue_s"]
        > max(
            m["cluster.node_s"],
            m["storage.solve_s"],
            m["monitoring.s"],
            m["obs.collect_s"] + m["obs.write_s"],
            m["sim.self_s"],
        ),
    ),
    "trace_replay_stream": (
        "storage.solve_s and obs.write_s each exceed network.solve_s",
        lambda m: min(m["storage.solve_s"], m["obs.write_s"]) > m["network.solve_s"],
    ),
}


def _ratio(num: float, den: float) -> float:
    """``num/den``, or 0 when nothing was attempted (``den`` is 0)."""
    return num / den if den else 0.0


def layer_metrics(tracer, recorder, mark: int, counts: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass (``tracing.overhead_s`` is added later)."""
    total, self_s, calls = tracer.total, tracer.self_s, tracer.calls
    c = recorder.counters(mark)
    events = c.get("events_dispatched", 0)
    resolves = c.get("resolves", 0)
    solved, reused = c.get("nodes_solved", 0), c.get("nodes_reused", 0)
    hits, flow_solves = c.get("flow_memo_hits", 0), c.get("flow_solves", 0)
    runs, jobs = tracer.sim_runs, counts.get("jobs", 0)
    return {
        "sim.run_s": total["sim.run"],
        "sim.events": events,
        "sim.self_s": self_s["sim.run"],
        "sim.host_us_per_event": _ratio(1e6 * total["sim.run"], events),
        "cluster.resolve_s": total["cluster.resolve"],
        "cluster.resolves": resolves,
        "cluster.us_per_resolve": _ratio(1e6 * total["cluster.resolve"], resolves),
        "cluster.accrue_s": total["cluster.accrue"],
        "cluster.node_s": self_s["cluster.resolve"],
        "cluster.nodes_solved": solved,
        "cluster.node_reuse_ratio": _ratio(reused, solved + reused),
        "network.solve_s": total["network.solve"],
        "network.solves": calls["network.solve"],
        "network.memo_hit_ratio": _ratio(hits, hits + flow_solves),
        "storage.solve_s": total["storage.solve"],
        "storage.solves": calls["storage.solve"],
        "monitoring.s": recorder.timing("monitoring", mark),
        "monitoring.samples": calls["monitoring.tick"],
        "obs.collect_s": total["obs.collect"],
        "obs.write_s": total["obs.write"],
        "obs.records": counts.get("obs_records", 0),
        "obs.bytes": counts.get("obs_bytes", 0),
        "obs.load_s": total["obs.load"],
        "analytics.features_s": total["analytics.features"],
        "analytics.windows": tracer.windows,
        "analytics.train_s": total["analytics.train"],
        "service.store_s": total["service.store"],
        "service.jobs": jobs,
        "service.cache_hit_ratio": _ratio(counts.get("cache_hits", 0), jobs),
        "experiments.sim_runs": len(runs),
        "experiments.sim_run_reuse_ratio": _ratio(len(set(runs)), len(runs)),
        "traces.generate_s": total["traces.generate"],
        "traces.dumps_s": total["traces.dumps"],
        "traces.loads_s": total["traces.loads"],
        "traces.records": counts.get("trace_records", 0),
        "tracing.wall_s": wall,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name == "monitoring.s":
        return "s"
    if "us_per" in name:
        return "us"
    return "bytes" if name.endswith(".bytes") else "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--plant", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def input_seed(args: argparse.Namespace) -> int:
    import workloads

    n = workloads.PINNED_SEEDS
    return args.seed % n + (n if args.held_out else 0)


def probe_setup(args: argparse.Namespace) -> list[float]:
    """``setup_s`` of fresh processes doing only this workload's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.held_out:
        cmd.append("--held-out")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (host speed reference)."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def metadata() -> dict:
    import numpy

    from repro.sim.engine import default_backend

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": default_backend(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
        "calibration_s": calibrate(),
    }


def run_passes(args, workload, ctx, first, tracer, speed) -> list[dict]:
    """Closed loop of passes until ``--seconds`` (traced ones interleaved)."""
    from workloads import Outcome

    min_passes = 3 if args.trace else MIN_PASSES
    recorder = ctx.recorder
    passes: list[dict] = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        state = first if index == 0 else workload.prepare(ctx, index)
        if traced:
            tracer.reset()
            tracer.install()
        gc.collect()  # every pass starts from a swept heap
        mark = recorder.mark()
        t0 = time.perf_counter()
        try:
            out = workload.run(ctx, state)
            error = None
        except Exception as exc:  # a failed operation, not a crash of the benchmark
            traceback.print_exc()
            out, error = None, exc
        wall = time.perf_counter() - t0
        scale = speed.scale(t0, t0 + wall)
        if traced:
            tracer.uninstall()
        sim_s, host_s = recorder.speed(mark)
        counters = recorder.counters(mark)
        if error is None:
            try:
                outcome = workload.check(ctx, state, out)
            except Exception as exc:
                traceback.print_exc()
                error = exc
        if error is not None:
            outcome = Outcome(attempted=workload.ops)
            for op in range(workload.ops):
                outcome.check("operation raised", False, f"{type(error).__name__}: {error}", op)
        record = {
            "traced": traced,
            "wall_s": wall,
            "scale": scale,
            "sim_s": sim_s,
            "host_s": host_s,
            "counters": {**counters, **outcome.counts},
            "outcome": outcome,
        }
        if traced:
            record["layers"] = layer_metrics(
                tracer, recorder, mark, outcome.counts, wall * scale
            )
        passes.append(record)
        index += 1
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and (
            elapsed >= args.seconds or elapsed + 1.5 * wall > HARD_LIMIT_S
        ):
            return passes


def summarise(args, passes: list[dict], setup_samples: list[float]) -> dict:
    """Metrics, failure counts and the cross-pass counter check."""
    attempted = failed = 0
    failures: list[str] = []
    for p in passes:
        attempted += p["outcome"].attempted
        failed += p["outcome"].failed_ops
        failures += p["outcome"].failures
    reference = passes[0]["counters"]
    for i, p in enumerate(passes[1:], start=1):
        if p["counters"] != reference:
            diff = sorted(
                k for k in set(reference) | set(p["counters"])
                if reference.get(k) != p["counters"].get(k)
            )
            failures.append(f"pass {i} work counters differ from pass 0: {diff}")
            failed = min(attempted, failed + p["outcome"].attempted)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        values["tracing.overhead_s"] = values["tracing.wall_s"] - statistics.median(
            p["wall_s"] * p["scale"] for p in plain[1:]
        )
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in plain),
            "setup_s": statistics.median(setup_samples),
            "sim_s_per_host_s": statistics.median(
                _ratio(p["sim_s"], p["host_s"] * p["scale"]) for p in plain
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    seed = input_seed(args)
    pins = None
    if not args.held_out:
        pinned = json.loads((HERE / "pins.json").read_text())[args.workload]
        if pinned["config"] != workload.config():
            print(f"perfbench: pins.json was made for {pinned['config']}, the workload "
                  f"is {workload.config()}; rerun pin.py", file=sys.stderr)
            return 2
        pins = pinned["seeds"][str(seed)]
    workdir = OUT / f"work-{os.getpid()}"
    speed = hostspeed.HostSpeed().start()
    recorder = tracing.RunRecorder()
    ctx = workloads.Context(workdir=workdir, input_seed=seed, pins=pins,
                            recorder=recorder, plant=args.plant)
    try:
        workload.setup()
        first = workload.prepare(ctx, 0)
        ready = time.perf_counter()
        setup_s = (ready - _T0) * speed.scale(_T0, ready)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        recorder.install()
        passes = run_passes(args, workload, ctx, first, tracing.Tracer(), speed)
    finally:
        speed.stop()
        recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples = [setup_s] + ([] if args.trace else probe_setup(args))
    result = summarise(args, passes, setup_samples)
    meta = metadata()
    report_lines(args, seed, meta, passes, setup_samples, result)
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "input_seed": seed,
        "trace": args.trace, "meta": meta, **result,
        "setup_samples_s": setup_samples,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "scale": p["scale"],
             "counters": p["counters"],
             "checks": p["outcome"].checks, "failures": p["outcome"].failures}
            for p in passes
        ],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def report_lines(args, seed, meta, passes, setup_samples, result) -> None:
    """The human-readable summary printed before the result line."""
    plain = [p for p in passes if not p["traced"]]
    print(f"perfbench {args.workload}  seed {args.seed} (input seed {seed}"
          f"{', held out' if args.held_out else ''})  trace {args.trace}  "
          f"passes {len(passes)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("counters " + json.dumps(passes[0]["counters"], sort_keys=True))
    print(f"raw pass wall_s (n={len(plain)}) "
          + " ".join(f"{p['wall_s']:.4f}" for p in plain)
          + "   speed scale " + " ".join(f"{p['scale']:.3f}" for p in plain))
    print("setup samples " + " ".join(f"{s:.4f}" for s in setup_samples))
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'failed_frac':<34} {failed_frac:>14.6g} ratio"
          f"   ({result['failed']} of {result['attempted']} operations)")
    if args.trace:
        claim, holds = STRESS[args.workload]
        values = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"stress {'confirmed' if holds(values) else 'NOT confirmed'}: {claim}")
    checks = sorted({c for p in passes for c in p["outcome"].checks})
    print("checks " + "; ".join(checks))
    for failure in result["failures"]:
        print(f"FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
