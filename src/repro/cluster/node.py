"""A simulated compute node."""

from __future__ import annotations

from functools import lru_cache

from repro.cluster.specs import MachineSpec
from repro.errors import ConfigError
from repro.memory.capacity import MemoryLedger
from repro.units import GB


class Node:
    """One compute node: cores, caches, memory ledger, and usage counters.

    The node does not model contention itself — the
    :class:`~repro.cluster.ratemodel.ClusterRateModel` does — but it owns
    the state the monitoring samplers read: the memory ledger and the
    cumulative usage counters (CPU seconds, instructions, cache misses,
    NIC traffic, ...) that the rate model integrates between events.
    """

    #: OS + system services memory footprint; Fig. 5 shows ~7 GB in use on
    #: an otherwise idle Voltrino node.
    OS_BASELINE_BYTES = 7 * GB

    def __init__(self, name: str, spec: MachineSpec) -> None:
        if not name:
            raise ConfigError("node name must be non-empty")
        self.name = name
        self.spec = spec
        self.memory = MemoryLedger(
            node=name, capacity=spec.mem_bytes, baseline=self.OS_BASELINE_BYTES
        )
        #: cumulative usage counters, integrated by the rate model;
        #: per-logical-core busy time lives under ``cpu_core{i}_seconds``
        self.counters: dict[str, float] = {
            "cpu_user_seconds": 0.0,
            "cpu_sys_seconds": 0.0,
            "instructions": 0.0,
            "l2_misses": 0.0,
            "l3_misses": 0.0,
            "mem_bytes": 0.0,
            "nic_tx_bytes": 0.0,
            "nic_rx_bytes": 0.0,
            "io_write_bytes": 0.0,
            "io_read_bytes": 0.0,
            "io_meta_ops": 0.0,
        }
        #: counter name of each logical core's busy time, by core index
        self.core_keys = _core_keys(spec.logical_cores)
        for key in self.core_keys.values():
            self.counters[key] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} ({self.spec.name})>"

    def add_counter(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @property
    def logical_cores(self) -> int:
        return self.spec.logical_cores


@lru_cache(maxsize=None)
def _core_keys(logical_cores: int) -> dict[int, str]:
    """``{core: "cpu_core{core}_seconds"}``, one read-only table (and one
    set of key strings) shared by every node of that width."""
    return {core: f"cpu_core{core}_seconds" for core in range(logical_cores)}
