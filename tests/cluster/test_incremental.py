"""Incremental resolution must be invisible: same numbers, less work.

The scenario mixes every contended subsystem — CPU time-sharing, memory
bandwidth, network flows and a shared filesystem — and asserts, on both
rate-model backends, that the incremental resolver (node-solve reuse,
flow-solve memoization, the storage-stage signature skip) produces
*exactly* the results of from-scratch resolution, while its reuse
counters prove it actually avoided work.
"""

import pytest

from repro.apps import AppJob, IORBenchmark, get_app
from repro.cluster import Cluster
from repro.core import CpuOccupy, IOBandwidth, MemBw, NetOccupy
from repro.monitoring import MetricService
from repro.units import MB10


BACKENDS = ("object", "array")


def _run_mixed_scenario(incremental: bool, backend: str):
    """CPU + membw + network + storage contention on a Chameleon cluster."""
    cluster = Cluster.chameleon(num_nodes=6, backend=backend)
    cluster.model.incremental = incremental
    service = MetricService(cluster)
    service.attach(end=100_000)

    app = get_app("miniMD").scaled(iterations=8)
    job = AppJob(app, cluster, nodes=[0, 1], ranks_per_node=4, seed=3)
    job.launch()

    CpuOccupy(utilization=100).launch(cluster, "node0", core=0)
    MemBw().launch(cluster, "node0", core=4)
    NetOccupy.launch_pair(cluster, src="node1", dst="node3", ranks=2)
    ior = IORBenchmark(file_bytes=200 * MB10, access_files=200)
    ior.launch(cluster, node="node4", start=2.0)
    IOBandwidth().launch(cluster, "node2", core=0)

    runtime = job.run(timeout=100_000)
    cluster.sim.run(until=cluster.sim.now + 500.0)
    service.detach()

    fingerprint = {
        "app_runtime": runtime,
        "ior": ior.phase_bandwidth(),
        "end_times": tuple(p.end_time for p in cluster.sim.processes),
        "counters": tuple(
            tuple(sorted(p.counters.items())) for p in cluster.sim.processes
        ),
        "node0_series": service.matrix("node0").tobytes(),
    }
    return fingerprint, dict(cluster.sim.stats.as_dict())


@pytest.fixture(scope="module")
def runs():
    """``backend -> (full, incremental, incremental stats)``."""
    out = {}
    for backend in BACKENDS:
        full, _ = _run_mixed_scenario(incremental=False, backend=backend)
        incr, stats = _run_mixed_scenario(incremental=True, backend=backend)
        out[backend] = (full, incr, stats)
    return out


class TestEquivalence:
    @staticmethod
    def _identical(runs, field):
        for backend, (full, incr, _) in runs.items():
            assert incr[field] == full[field], f"{field} differs on {backend}"

    def test_app_runtime_identical(self, runs):
        self._identical(runs, "app_runtime")

    def test_ior_bandwidths_identical(self, runs):
        self._identical(runs, "ior")

    def test_process_end_times_identical(self, runs):
        self._identical(runs, "end_times")

    def test_usage_counters_identical(self, runs):
        self._identical(runs, "counters")

    def test_monitoring_series_byte_identical(self, runs):
        self._identical(runs, "node0_series")


class TestWorkAvoidance:
    @staticmethod
    def _counted(runs, counter):
        for backend, (_, _, stats) in runs.items():
            assert stats.get(counter, 0) > 0, f"{counter} == 0 on {backend}"

    def test_nodes_were_reused(self, runs):
        self._counted(runs, "nodes_reused")
        self._counted(runs, "nodes_solved")

    def test_flow_solves_were_memoized(self, runs):
        # FlowSolver's memo is the only network reuse layer: repeat
        # traffic must hit it on either backend.
        self._counted(runs, "flow_memo_hits")

    def test_reschedules_were_skipped(self, runs):
        self._counted(runs, "reschedules_skipped")

    def test_storage_stage_was_skipped_sometimes(self, runs):
        self._counted(runs, "storage_stage_skips")

    def test_network_stage_skipped_for_disjoint_changes(self):
        # A CPU-only change on node6 leaves the flow demand set untouched,
        # so the network stage is served from the flow memo: the stream
        # solves once, and the CpuOccupy end re-prices it with one hit.
        for backend in BACKENDS:
            cluster = Cluster.voltrino(num_nodes=8, backend=backend)
            NetOccupy.launch_pair(cluster, src="node0", dst="node4", ranks=2)
            CpuOccupy(utilization=70, duration=50).launch(cluster, "node6", core=0)
            cluster.sim.run(until=100)
            counters = cluster.sim.stats.counters
            assert counters["flow_solves"] == 1, backend
            assert counters["flow_memo_hits"] == 1, backend


class TestForcedFullResolve:
    def test_external_dirty_poke_forces_full_resolve(self):
        # Setting sim._dirty without naming pids (the tracing/test idiom)
        # must trigger a from-scratch resolve, not a stale cache replay.
        cluster = Cluster.chameleon(num_nodes=2)
        sim = cluster.sim
        CpuOccupy(utilization=100, duration=5.0).launch(cluster, "node0", core=0)
        sim.run(until=1.0)
        before = sim.stats.counters.get("full_resolves", 0)
        sim._dirty = True
        sim.schedule(1.5, lambda: None)  # the loop re-checks dirtiness per event
        sim.run(until=2.0)
        assert sim.stats.counters["full_resolves"] > before
