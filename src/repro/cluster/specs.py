"""Hardware specifications for the simulated machines.

Two machines from the paper are provided as presets:

* :meth:`MachineSpec.voltrino` — the Haswell partition of Voltrino, a Cray
  XC40m at Sandia: 2× Intel Xeon E5-2698 v3 (16 cores/socket, 2-way SMT,
  32 KiB L1d / 256 KiB L2 per core, 40 MiB L3 per socket), 125 GB RAM.
* :meth:`MachineSpec.chameleon` — a Chameleon Cloud bare-metal node:
  2× Intel Xeon E5-2670 v3 (12 cores/socket, 30 MiB L3), 125 GB RAM.

Bandwidth and penalty constants are calibration parameters of the fluid
model, not datasheet numbers; they were chosen so the single-machine
baselines (STREAM best rate, OSU peak bandwidth, app IPS) land near the
values visible in the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.errors import ConfigError
from repro.units import GB, GB10, KB, MB


@dataclass(frozen=True)
class CacheSpec:
    """Sizes of the three cache levels.

    ``l1`` and ``l2`` are per physical core (shared by its hyperthreads);
    ``l3`` is per socket (shared by all cores of the socket).
    """

    l1: float = 32 * KB
    l2: float = 256 * KB
    l3: float = 40 * MB

    def __post_init__(self) -> None:
        if not (0 < self.l1 <= self.l2 <= self.l3):
            raise ConfigError("cache sizes must satisfy 0 < L1 <= L2 <= L3")

    def size(self, level: str) -> float:
        """Capacity of ``level`` ("L1" / "L2" / "L3") in bytes."""
        try:
            return {"L1": self.l1, "L2": self.l2, "L3": self.l3}[level]
        except KeyError:
            raise ConfigError(f"unknown cache level {level!r}") from None


#: core tables by (sockets, cores_per_socket, smt); see MachineSpec.core_table
_CORE_TABLES: dict[tuple[int, int, int], dict[int, tuple[int, int | None, int]]] = {}


@dataclass(frozen=True)
class MachineSpec:
    """Full per-node hardware description plus fluid-model calibration.

    Attributes
    ----------
    sockets / cores_per_socket / smt:
        Topology: ``sockets * cores_per_socket`` physical cores, each with
        ``smt`` hardware threads (logical cores).
    cache:
        Cache sizes (see :class:`CacheSpec`).
    mem_bytes:
        Physical memory per node.  No swap — mirroring Voltrino, where
        over-allocating processes are killed.
    mem_bw_per_socket:
        Sustained memory bandwidth of one socket's controllers (bytes/s).
    core_mem_bw:
        Bandwidth a single core can extract by itself (bytes/s); limits
        single-threaded STREAM.
    smt_throughput:
        Combined throughput of two busy hyperthreads relative to one
        (1.3 means each runs at 0.65 when both are active).
    bw_latency_alpha:
        Strength of the latency degradation other traffic imposes on a
        core's achievable memory bandwidth (see
        :mod:`repro.memory.bandwidth`).
    cache_miss_cascade:
        Per-level weights ``(c1, c2, c3)`` translating eviction at
        L1/L2/L3 into extra last-level misses and stall cost; an L3
        eviction costs full memory latency, an L1 eviction mostly hits L2.
    nic_bw:
        Injection bandwidth of the node's NIC (bytes/s).
    os_noise_util:
        Background OS utilization fraction per node (shows up as ``sys``
        in procstat, like real OS jitter).
    """

    name: str = "voltrino"
    sockets: int = 2
    cores_per_socket: int = 16
    smt: int = 2
    cache: CacheSpec = field(default_factory=CacheSpec)
    mem_bytes: float = 125 * GB
    mem_bw_per_socket: float = 32 * GB10
    core_mem_bw: float = 12.5 * GB10
    smt_throughput: float = 1.3
    bw_latency_alpha: float = 1.0
    cache_miss_cascade: tuple[float, float, float] = (0.15, 0.35, 1.0)
    nic_bw: float = 10 * GB10
    os_noise_util: float = 0.004
    #: hardware-dependent scaling of observed miss counts — a smaller,
    #: less-aggressively-prefetching cache shows more misses for the same
    #: eviction fraction (Chameleon in the paper's Fig. 3)
    miss_amplification: float = 1.0

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1 or self.smt < 1:
            raise ConfigError("sockets, cores_per_socket and smt must be >= 1")
        if self.smt > 2:
            raise ConfigError("the SMT model supports at most 2 threads per core")
        if self.mem_bytes <= 0 or self.mem_bw_per_socket <= 0 or self.core_mem_bw <= 0:
            raise ConfigError("memory sizes/bandwidths must be positive")
        if not 1.0 <= self.smt_throughput <= 2.0:
            raise ConfigError("smt_throughput must be in [1, 2]")
        if len(self.cache_miss_cascade) != 3 or any(c < 0 for c in self.cache_miss_cascade):
            raise ConfigError("cache_miss_cascade must be three non-negative weights")

    # -- derived topology ---------------------------------------------------

    @property
    def physical_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def logical_cores(self) -> int:
        return self.physical_cores * self.smt

    def socket_of(self, logical_core: int) -> int:
        """Socket index of a logical core (threads are socket-major)."""
        self._check_core(logical_core)
        return self.physical_core_of(logical_core) // self.cores_per_socket

    def physical_core_of(self, logical_core: int) -> int:
        """Physical core of a logical core.

        Logical core numbering follows Linux on the reference systems:
        logical ``k`` and ``k + physical_cores`` are hyperthread siblings.
        """
        self._check_core(logical_core)
        return logical_core % self.physical_cores

    def sibling_of(self, logical_core: int) -> int | None:
        """The hyperthread sibling of a logical core (None without SMT)."""
        self._check_core(logical_core)
        if self.smt == 1:
            return None
        phys = self.physical_core_of(logical_core)
        return phys + self.physical_cores if logical_core < self.physical_cores else phys

    @cached_property
    def core_table(self) -> dict[int, tuple[int, int | None, int]]:
        """``{logical core: (physical core, sibling or None, socket)}``.

        Lets the rate model's per-node solve index a table instead of
        re-deriving the topology per tenant; read it through
        :meth:`core_entry`, which keeps the range check.  Built once per
        topology and shared (read-only) by every spec that has it.
        """
        shape = (self.sockets, self.cores_per_socket, self.smt)
        table = _CORE_TABLES.get(shape)
        if table is None:
            table = _CORE_TABLES[shape] = {
                core: (
                    self.physical_core_of(core),
                    self.sibling_of(core),
                    self.socket_of(core),
                )
                for core in range(self.logical_cores)
            }
        return table

    def core_entry(self, logical_core: int) -> tuple[int, int | None, int]:
        """``(physical core, sibling or None, socket)`` of a logical core.

        Raises :class:`ConfigError` for a core outside ``[0,
        logical_cores)`` — a negative index never wraps.
        """
        try:
            return self.core_table[logical_core]
        except KeyError:
            self._check_core(logical_core)
            raise ConfigError(
                f"logical core {logical_core!r} is not a core index"
            ) from None

    def _check_core(self, logical_core: int) -> None:
        if not 0 <= logical_core < self.logical_cores:
            raise ConfigError(
                f"logical core {logical_core} out of range [0, {self.logical_cores})"
            )

    def with_overrides(self, **kwargs) -> "MachineSpec":
        """Copy the spec with some fields replaced (for ablations)."""
        return replace(self, **kwargs)

    # -- presets --------------------------------------------------------------

    @classmethod
    def voltrino(cls) -> "MachineSpec":
        """Haswell partition of Voltrino (Cray XC40m, Xeon E5-2698 v3)."""
        return cls()

    @classmethod
    def voltrino_knl(cls) -> "MachineSpec":
        """Knights Landing partition of Voltrino (Xeon Phi 7250).

        Not used by the paper's experiments (they all run on Haswell), but
        included for completeness of the machine description.
        """
        return cls(
            name="voltrino-knl",
            sockets=1,
            cores_per_socket=68,
            smt=2,  # KNL has 4-way SMT; the model supports 2, which the
            # paper's experiments never exercise on KNL anyway.
            # KNL has no shared L3; model MCDRAM-as-cache as a 16 GiB
            # last level so the hierarchy stays three-deep.
            cache=CacheSpec(l1=32 * KB, l2=512 * KB, l3=16 * GB),
            mem_bw_per_socket=90 * GB10,
            core_mem_bw=6 * GB10,
            smt_throughput=1.5,
        )

    @classmethod
    def chameleon(cls) -> "MachineSpec":
        """Chameleon Cloud bare-metal node (Xeon E5-2670 v3)."""
        return cls(
            name="chameleon",
            sockets=2,
            cores_per_socket=12,
            cache=CacheSpec(l1=32 * KB, l2=256 * KB, l3=30 * MB),
            mem_bw_per_socket=28 * GB10,
            nic_bw=1.25 * GB10,  # 10 GbE
            miss_amplification=2.2,
        )
