"""The benchmark's three workloads, each run as a user runs it.

A workload is prepared (untimed; the first preparation counts as set-up),
run (timed: this is ``wall_s``) and checked (untimed).  One run of a
workload with a fixed input seed is a *pass*; the benchmark repeats
passes and reports medians.  Every pass returns the operations it
attempted, the checks that failed, and its deterministic work counts.

Inputs derive only from the input seed.  Pinned outputs (digests, the
simulated runtime, the replay fingerprint) live in ``pins.json`` keyed by
input seed; ``pin.py`` regenerates them when a workload's size changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

#: input seeds with pinned outputs; ``--seed n`` selects ``n % PINNED_SEEDS``
PINNED_SEEDS = 10


@dataclass
class Outcome:
    """What one pass did: operations, failed checks and work counts."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    #: values checked against pins.json, as observed (what pin.py records)
    observed: dict[str, str] = field(default_factory=dict)
    _failed_ops: set[int] = field(default_factory=set)

    def check(self, name: str, ok: bool, detail: str = "", op: int = 0) -> None:
        """Record check ``name`` on operation ``op`` (an index below ``attempted``)."""
        self.checks.append(name)
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
            self._failed_ops.add(op)

    @property
    def failed_ops(self) -> int:
        return len(self._failed_ops)


@dataclass
class Context:
    """Per-process inputs shared by every pass of one workload."""

    workdir: Path
    input_seed: int
    #: pinned outputs for this input seed, or None on a held-out seed
    pins: dict | None
    recorder: object
    plant: bool = False


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_pinned(
    outcome: Outcome, ctx: Context, key: str, observed: str, op: int = 0
) -> None:
    """Compare against the pinned value; held-out seeds have none to compare."""
    outcome.observed[key] = observed
    if ctx.pins is None:
        return
    expected = ctx.pins.get(key)
    outcome.check(
        f"pinned {key}",
        observed == expected,
        f"got {observed[:24]}, pinned {str(expected)[:24]}",
        op,
    )


class DiagnosisCampaign:
    """fig9, then fig10, then fig9 again (a cache hit) through the client.

    The paper's Sec. 5 diagnosis figures at a reduced size: 48 monitored
    runs per figure at 1 Hz, windowed features and 3-fold CV training.
    Jobs run inline (``Client(shards=0)``) against a fresh state dir.
    """

    name = "diagnosis_campaign"
    ops = 3
    #: short runs (about 5 s a pass), so a run holds enough passes for a
    #: steady median
    overrides = {"iterations": 2, "window": 10, "stride": 5}

    def config(self) -> dict:
        return dict(self.overrides)

    def setup(self) -> None:
        from repro.api import Client

        self.Client = Client

    def prepare(self, ctx: Context, index: int) -> object:
        # The work dir is new in every process, so each pass starts cold.
        return self.Client(state_dir=ctx.workdir / f"state{index}", shards=0)

    def run(self, ctx: Context, client) -> dict:
        marks = [ctx.recorder.mark()]
        statuses = []
        for name in ("fig9", "fig10", "fig9"):
            handle = client.submit(name, seed=ctx.input_seed, overrides=self.overrides)
            statuses.append(client.wait(handle.job_id))
            marks.append(ctx.recorder.mark())
        return {"statuses": statuses, "marks": marks}

    def check(self, ctx: Context, client, out: dict) -> Outcome:
        outcome = Outcome(attempted=self.ops)
        results = []
        for op, status in enumerate(out["statuses"]):
            if status.state != "done":
                outcome.check(
                    f"job {status.name}", False, f"{status.state} {status.reason}", op
                )
                results.append(None)
            else:
                results.append(client.result(status.job_id))
        client.close()
        fresh9, fresh10, again9 = results
        if ctx.plant and fresh9 is not None:
            fresh9 = _planted(fresh9)
        if fresh9 is not None:
            _check_pinned(outcome, ctx, "fig9_sha256", _sha(fresh9.text))
        if fresh10 is not None:
            _check_pinned(outcome, ctx, "fig10_sha256", _sha(fresh10.text), op=1)
        if fresh9 is not None and again9 is not None:
            outcome.check("fig9 resubmit is a cache hit", again9.cached, op=2)
            outcome.check(
                "cache hit byte-equal to fresh",
                again9.artifacts == fresh9.artifacts,
                op=2,
            )
        # fig10 re-simulates fig9's monitored runs: same specs, same seeds,
        # so every run's work counters must repeat exactly.
        m0, m1, m2, m3 = out["marks"]
        outcome.check(
            "fig10 runs repeat fig9 runs' counters",
            ctx.recorder.per_run_counters(m0, m1) == ctx.recorder.per_run_counters(m1, m2),
            op=1,
        )
        outcome.check("cache hit simulates nothing", m3 == m2, op=2)
        outcome.counts = {
            "jobs": 3,
            "cache_hits": sum(1 for s in out["statuses"] if s.cached),
            "sim_runs": m3 - m0,
        }
        return outcome


def _planted(result):
    """The fresh fig9 result with one rendered digit changed (self-test)."""
    import dataclasses

    text = result.artifacts.text
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    bumped = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]
    artifacts = dataclasses.replace(result.artifacts, text=bumped)
    return dataclasses.replace(result, artifacts=artifacts)


class ScaleContention:
    """One miniGhost job on every node of a 32-node Voltrino under contention.

    A memory-bandwidth hog on node0 and a netoccupy pair across the fabric;
    no monitoring, no observability.  Stresses the network stage (flow
    solver) and accrual over every running rank.
    """

    name = "scale_contention"
    ops = 1
    nodes = 32
    iterations = 2
    ranks_per_node = 4

    def config(self) -> dict:
        return {"nodes": self.nodes, "iterations": self.iterations,
                "ranks_per_node": self.ranks_per_node}

    def setup(self) -> None:
        from repro.apps import AppJob, get_app
        from repro.cluster import Cluster
        from repro.core import MemBw, NetOccupy

        self.AppJob, self.get_app = AppJob, get_app
        self.Cluster, self.MemBw, self.NetOccupy = Cluster, MemBw, NetOccupy

    def prepare(self, ctx: Context, index: int) -> object:
        cluster = self.Cluster.voltrino(num_nodes=self.nodes)
        app = self.get_app("miniGhost").scaled(iterations=self.iterations)
        job = self.AppJob(
            app,
            cluster,
            nodes=list(range(self.nodes)),
            ranks_per_node=self.ranks_per_node,
            seed=ctx.input_seed,
        )
        job.launch()
        self.MemBw().launch(cluster, "node0", core=8)
        self.NetOccupy.launch_pair(
            cluster, src="node1", dst=f"node{self.nodes // 2 + 1}", ranks=4
        )
        return job

    def run(self, ctx: Context, job) -> float:
        return job.run(timeout=1e7)

    def check(self, ctx: Context, job, runtime: float) -> Outcome:
        outcome = Outcome(attempted=1)
        if ctx.plant:
            runtime = math.nextafter(runtime, math.inf)
        outcome.check("app finished", job.finished)
        _check_pinned(outcome, ctx, "runtime", float(runtime).hex())
        outcome.counts = {"sim_runs": 1, "ranks": self.nodes * self.ranks_per_node}
        return outcome


class TraceReplayStream:
    """Generate, serialise, parse and replay a checkpoint trace, streaming it.

    A 16-rank ``checkpoint_burst`` trace goes through ``dumps``/``loads``,
    is replayed on its Chameleon cluster with ``Observability.stream_to``
    writing the run directory, and is read back with ``report_run_dir``.
    Stresses the storage stage, engine dispatch and obs encoding.
    """

    name = "trace_replay_stream"
    ops = 1
    ranks = 16
    steps = 12

    def config(self) -> dict:
        return {"ranks": self.ranks, "steps": self.steps}

    def setup(self) -> None:
        import repro.obs.report as report
        import repro.traces.generators as generators
        import repro.traces.schema as schema
        from repro.obs import Observability
        from repro.traces import TraceReplayApp, build_replay_cluster

        self.report, self.generators, self.schema = report, generators, schema
        self.Observability = Observability
        self.TraceReplayApp, self.build_replay_cluster = TraceReplayApp, build_replay_cluster

    def prepare(self, ctx: Context, index: int) -> Path:
        return ctx.workdir / f"stream{index}"

    def run(self, ctx: Context, directory: Path) -> dict:
        # Module attributes are looked up per call so traced wrappers apply.
        trace = self.generators.generate_trace(
            "checkpoint_burst", seed=ctx.input_seed, ranks=self.ranks, steps=self.steps
        )
        text = self.schema.dumps(trace)
        loaded = self.schema.loads(text)
        cluster = self.build_replay_cluster(loaded)
        obs = self.Observability(cluster).attach()
        obs.stream_to(directory, chrome=True)
        self.TraceReplayApp(loaded, cluster).run()
        obs.close_streams()
        report = self.report.report_run_dir(directory)
        return {
            "trace": trace,
            "text": text,
            "loaded": loaded,
            "cluster": cluster,
            "obs": obs,
            "report": report,
        }

    def check(self, ctx: Context, directory: Path, out: dict) -> Outcome:
        from repro.check.harness import fingerprint_cluster
        from repro.monitoring.export import to_jsonl_text
        from repro.obs.export import chrome_trace, jsonl_lines

        outcome = Outcome(attempted=1)
        obs, service = out["obs"], out["obs"].service
        if ctx.plant:
            path = directory / "trace.jsonl"
            data = path.read_bytes()
            path.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
        cluster = out["cluster"]
        outcome.check("replay finished", all(p.state.terminal for p in cluster.sim.processes))
        outcome.check(
            "dumps(loads(text)) == text", self.schema.dumps(out["loaded"]) == out["text"]
        )
        _check_pinned(
            outcome, ctx, "fingerprint_sha256", _sha(fingerprint_cluster(cluster))
        )
        batch = {
            "trace.jsonl": "\n".join(jsonl_lines(obs.collector)) + "\n",
            "trace.json": json.dumps(chrome_trace(obs.collector), sort_keys=True, indent=1)
            + "\n",
        }
        for node in sorted(service.data):
            batch[f"metrics/{node}.jsonl"] = to_jsonl_text(service, node)
        differ = [
            name for name, text in batch.items()
            if not (directory / name).is_file() or (directory / name).read_text() != text
        ]
        outcome.check("streamed files == batch export", not differ, f"differ: {differ}")
        report = out["report"]
        outcome.check(
            "report samples match the run",
            report.samples == {node: len(service.times) for node in sorted(service.data)},
        )
        files = [p for p in sorted(directory.rglob("*")) if p.is_file()]
        outcome.counts = {
            "sim_runs": 1,
            "replays": 1,
            "trace_records": len(out["trace"].records),
            "trace_bytes": len(out["text"].encode()),
            "obs_records": sum(p.read_bytes().count(b"\n") for p in files),
            "obs_bytes": sum(p.stat().st_size for p in files),
            "monitoring_samples": len(service.times),
        }
        shutil.rmtree(directory, ignore_errors=True)
        return outcome


WORKLOADS = {w.name: w for w in (DiagnosisCampaign, ScaleContention, TraceReplayStream)}
