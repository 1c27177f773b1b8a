"""Cluster container: construction, lookup, spawn wiring, OOM kill."""

import math

import pytest

from repro.cluster import Cluster, MachineSpec
from repro.errors import ConfigError
from repro.sim.process import ProcessState, Segment
from repro.units import GB


class TestConstruction:
    def test_nodes_are_named_sequentially(self):
        cluster = Cluster(num_nodes=3)
        assert cluster.node_names == ["node0", "node1", "node2"]

    def test_node_lookup_by_index_and_name(self):
        cluster = Cluster(num_nodes=2)
        assert cluster.node(0) is cluster.node("node0")
        with pytest.raises(ConfigError):
            cluster.node(9)

    def test_topology_must_cover_nodes(self):
        from repro.network.topology import star

        with pytest.raises(ConfigError):
            Cluster(num_nodes=10, topology=star(num_nodes=2))

    def test_voltrino_preset(self):
        cluster = Cluster.voltrino(num_nodes=8)
        assert cluster.spec.name == "voltrino"
        assert cluster.topology is not None
        assert len(cluster.topology.compute_nodes) >= 8

    def test_chameleon_preset_has_nfs(self):
        cluster = Cluster.chameleon(num_nodes=4)
        assert cluster.filesystem("nfs").name == "nfs"
        with pytest.raises(ConfigError):
            cluster.filesystem("lustre")

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigError):
            Cluster(num_nodes=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            Cluster.voltrino(num_nodes=2, backend="bogus")

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ConfigError):
            Cluster.voltrino(num_nodes=2)


class TestSpawn:
    def test_spawn_validates_core(self):
        cluster = Cluster(num_nodes=1)
        with pytest.raises(ConfigError):
            cluster.spawn("p", lambda proc: iter(()), node=0, core=999)

    def test_spawned_process_runs(self):
        cluster = Cluster(num_nodes=1)

        def body(proc):
            yield Segment(work=2.0)

        p = cluster.spawn("p", body, node=0, core=0)
        cluster.sim.run()
        assert p.state is ProcessState.DONE
        assert p.runtime == pytest.approx(2.0)


class TestOOMIntegration:
    def test_oom_kills_largest_process(self):
        cluster = Cluster(num_nodes=1)
        ledger = cluster.node(0).memory

        def hog(proc):
            ledger.alloc(proc.pid, 100 * GB)
            yield Segment(work=math.inf)

        def late_alloc(proc):
            yield Segment(work=1.0)
            ledger.alloc(proc.pid, 50 * GB)
            yield Segment(work=1.0)

        big = cluster.spawn("hog", hog, node=0, core=0)
        small = cluster.spawn("late", late_alloc, node=0, core=1)
        cluster.sim.run(until=10.0)
        assert big.state is ProcessState.KILLED
        assert big.exit_reason == "oom-killed"
        assert small.state is ProcessState.DONE
        # the hog's memory was released
        assert ledger.held_by(big.pid) == 0.0

    def test_memory_released_on_normal_exit(self):
        cluster = Cluster(num_nodes=1)
        ledger = cluster.node(0).memory

        def body(proc):
            ledger.alloc(proc.pid, 10 * GB)
            yield Segment(work=1.0)

        p = cluster.spawn("p", body, node=0, core=0)
        cluster.sim.run()
        assert p.state is ProcessState.DONE
        assert ledger.held_by(p.pid) == 0.0
        assert ledger.free == ledger.capacity - ledger.baseline
