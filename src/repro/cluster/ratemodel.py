"""The cluster rate model: prices every subsystem's contention each event.

``resolve`` runs three stages whenever the engine's active set changes:

1. **Per node** — cache occupancy (L1/L2 per physical core, L3 per
   socket), processor sharing with an SMT penalty, and per-socket memory
   bandwidth.  The output is a provisional speed per process plus its
   observable rates (instructions/s, L2/L3 misses/s, memory bytes/s).
   On this (object) backend it is one plain-float pass over the tenants,
   with the topology read from the spec's per-core table
   (:attr:`~repro.cluster.specs.MachineSpec.core_table`).  The general
   solvers only run where they can change something: a cache domain
   whose footprints fit evicts exactly nothing, and a socket whose
   degraded demands provably fit under max-min gets them as grants
   (:func:`_fits`); everything else goes through ``solve_occupancy`` /
   ``solve_bandwidth`` unchanged.
2. **Network** — every active flow, scaled by its owner's provisional
   speed, enters the adaptive-routing max-min solver; communication-bound
   processes slow down by their worst flow's grant ratio.
3. **Storage** — filesystem demands are priced by each
   :class:`~repro.storage.filesystem.SharedFilesystem`'s coupled pools.

``accrue`` integrates the rates computed by the last ``resolve`` into
per-process and per-node counters (plain dict updates, per process and
key in a fixed order), which is what the LDMS-style samplers read at
1 Hz.

Resolves are *incremental*, with one reuse layer per stage (see
docs/PERFORMANCE.md): the engine passes the set of pids whose segment
changed and stage 1 re-solves only the nodes hosting a dirty pid (clean
nodes reuse their cached per-node result bit-for-bit); the network stage
re-folds grants on every resolve but the flow solve behind it is
memoized by :class:`~repro.network.flows.FlowSolver`; the storage stage
is skipped outright when its demand signature is unchanged since the
previous resolve.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.cache.model import (
    CacheDemand,
    inclusive_footprints,
    solve_occupancy,
)
from repro.errors import ResourceError
from repro.memory.bandwidth import ShareFn, solve_bandwidth
from repro.network.flows import FlowRequest, FlowSolver
from repro.resources.fairshare import max_min_fair_share, waterfill
from repro.sim.engine import RateModel
from repro.sim.process import CACHE_LEVELS, IODemand, SimProcess
from repro.sim.stats import SimStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


@dataclass
class _NodeSolve:
    """Cached stage-1 outcome for one node (valid while its tenants'
    segments are untouched)."""

    pids: tuple[int, ...]
    speeds: dict[int, float]
    rates: dict[int, dict[str, float]]
    miss_factor: dict[int, float]


@dataclass
class _StageSolve:
    """Cached storage stage outcome, keyed by its demand signature."""

    signature: tuple
    ratios: dict[int, float]
    rates: dict[int, dict[str, float]]


class ClusterRateModel(RateModel):
    """Translates segment demand vectors into speeds and counter rates.

    Parameters
    ----------
    cluster:
        The cluster whose nodes/network/filesystems provide capacities.
    share_fn:
        Bandwidth-sharing discipline for memory (ablation knob).
    cache_sharpness:
        Exponent of the cache-occupancy contest (ablation knob).
    k_paths:
        Paths considered by adaptive routing; 1 = static routing.
    """

    #: L2 misses are more plentiful than L3 misses; this factor converts
    #: the modelled L3 MPKI into an L2 MPKI for the PAPI-style sampler.
    L2_MISS_FACTOR = 2.5

    def __init__(
        self,
        cluster: "Cluster",
        share_fn: ShareFn = max_min_fair_share,
        cache_sharpness: float = 1.0,
        k_paths: int = 4,
        incremental: bool = True,
    ) -> None:
        self.cluster = cluster
        self.share_fn = share_fn
        self.cache_sharpness = cache_sharpness
        #: re-solve only dirty nodes and skip an unchanged storage stage;
        #: setting False re-prices everything on every resolve (the
        #: from-scratch reference path, used by the equivalence tests)
        self.incremental = incremental
        self.stats = SimStats()
        self.flow_solver = (
            FlowSolver(cluster.topology, k_paths=k_paths)
            if cluster.topology is not None
            else None
        )
        if self.flow_solver is not None:
            self.flow_solver.stats = self.stats
        #: per-pid accounting rates from the last resolve
        self._proc_rates: dict[int, dict[str, float]] = {}
        #: per-pid extra node-level rates that land on a *different* node
        #: than the owning process (e.g. rx bytes at a flow's destination)
        self._remote_rates: dict[str, dict[str, float]] = {}
        #: stage caches reused across resolves (incremental mode)
        self._node_cache: dict[str, _NodeSolve] = {}
        self._io_cache: _StageSolve | None = None

    def attach_stats(self, stats: SimStats) -> None:
        self.stats = stats
        if self.flow_solver is not None:
            self.flow_solver.stats = stats

    @property
    def last_rates(self) -> dict[int, dict[str, float]]:
        """Per-pid accounting rates computed by the last resolve.

        Read-only view consumed by the invariant checker
        (:mod:`repro.check`) to verify capacity conservation; the mapping
        is rebuilt on every resolve, so callers must not hold onto it.
        """
        return self._proc_rates

    def resolve(self, running: Sequence[SimProcess], now: float) -> dict[int, float]:
        return self.resolve_incremental(running, now, None)

    def resolve_incremental(
        self,
        running: Sequence[SimProcess],
        now: float,
        dirty: frozenset[int] | None = None,
    ) -> dict[int, float]:
        if not self.incremental:
            dirty = None
        if dirty is None:
            # Full resolve: forget everything so no stale stage survives.
            self._node_cache.clear()
            self._io_cache = None
        self._proc_rates = {p.pid: {} for p in running}
        self._remote_rates = defaultdict(lambda: defaultdict(float))
        speeds: dict[int, float] = {}

        by_node: dict[str, list[SimProcess]] = defaultdict(list)
        for proc in running:
            by_node[proc.node].append(proc)

        miss_factor: dict[int, float] = {}
        with self.stats.timer("node"):
            for node_name, procs in by_node.items():
                pids = tuple(p.pid for p in procs)
                cached = self._node_cache.get(node_name)
                if (
                    cached is not None
                    and cached.pids == pids
                    and dirty is not None
                    and dirty.isdisjoint(pids)
                ):
                    # Same tenants, same segments: stage-1 is bit-identical.
                    self.stats.count("nodes_reused")
                    speeds.update(cached.speeds)
                    miss_factor.update(cached.miss_factor)
                    for pid, rates in cached.rates.items():
                        self._proc_rates[pid].update(rates)
                    continue
                self.stats.count("nodes_solved")
                node_speeds = self._solve_node(node_name, procs, miss_factor)
                speeds.update(node_speeds)
                self._node_cache[node_name] = _NodeSolve(
                    pids=pids,
                    speeds=dict(node_speeds),
                    rates={pid: dict(self._proc_rates[pid]) for pid in pids},
                    miss_factor={
                        pid: miss_factor[pid] for pid in pids if pid in miss_factor
                    },
                )
            for stale in [name for name in self._node_cache if name not in by_node]:
                del self._node_cache[stale]

        # Fault-induced compute degradation (node hang / transient
        # slowdown) scales the stage-1 outcome.  The node cache always
        # stores *pre-fault* values, so the factor is applied uniformly on
        # every resolve — cached and fresh nodes alike — and clears the
        # moment the fault reverts (the injector forces a full resolve).
        faults = self.cluster.faults
        if faults is not None and faults.active:
            for proc in running:
                factor = faults.speed_factor(proc.node)
                if factor < 1.0:
                    speeds[proc.pid] *= factor
                    rates = self._proc_rates[proc.pid]
                    for key in rates:
                        rates[key] *= factor

        with self.stats.timer("network"):
            self._solve_network(running, speeds)
        with self.stats.timer("storage"):
            self._solve_storage(running, speeds)
        self._record_rates(running, speeds, miss_factor)
        return speeds

    def accrue(self, running: Sequence[SimProcess], t0: float, t1: float) -> None:
        dt = t1 - t0
        nodes = self.cluster.nodes
        proc_rates = self._proc_rates
        for proc in running:
            rates = proc_rates.get(proc.pid)
            if not rates:
                continue
            node = nodes[proc.node]
            pc = proc.counters
            nc = node.counters
            for key, rate in rates.items():
                amount = rate * dt
                pc[key] = pc.get(key, 0.0) + amount
                node_key = _NODE_COUNTER[key]
                nc[node_key] = nc.get(node_key, 0.0) + amount
            core_key = node.core_keys[proc.core]
            busy = rates.get("cpu_user_seconds", 0.0) * dt
            nc[core_key] = nc.get(core_key, 0.0) + busy
        for node_name, rates in self._remote_rates.items():
            nc = nodes[node_name].counters
            for key, rate in rates.items():
                nc[key] = nc.get(key, 0.0) + rate * dt

    def on_process_end(self, proc: SimProcess) -> None:
        self.cluster.node(proc.node).memory.free_all(proc.pid)

    def accrue_background(self, dt: float) -> None:
        """OS noise accounting; called by the cluster's sys sampler."""
        for node in self.cluster.nodes.values():
            node.add_counter(
                "cpu_sys_seconds", node.spec.os_noise_util * node.logical_cores * dt
            )

    # -- stage 1: per-node --------------------------------------------------

    def _solve_node(
        self,
        node_name: str,
        procs: list[SimProcess],
        miss_factor: dict[int, float],
    ) -> dict[int, float]:
        spec = self.cluster.nodes[node_name].spec
        cache = spec.cache
        sizes = {"L1": cache.l1, "L2": cache.l2, "L3": cache.l3}
        segs = [p.current for p in procs]
        n = len(procs)

        # Per tenant: inclusive footprints and topology; tenant indices
        # grouped per physical core (L1/L2 domain) and socket (L3 domain).
        fps: list[tuple[float, float, float]] = []
        siblings: list[int | None] = []
        core_groups: dict[int, list[int]] = {}
        socket_groups: dict[int, list[int]] = {}
        core_demand: dict[int, float] = {}
        for i, (p, seg) in enumerate(zip(procs, segs)):
            fp = inclusive_footprints(seg.cache_footprint, sizes)
            f1, f2, f3 = fp["L1"], fp["L2"], fp["L3"]
            # what CacheDemand checks, also for domains that fit
            if f1 < 0 or f2 < 0 or f3 < 0 or seg.cache_intensity < 0:
                raise ResourceError("cache footprint and intensity must be >= 0")
            fps.append((f1, f2, f3))
            phys, sibling, sock = spec.core_entry(p.core)
            siblings.append(sibling)
            core_groups.setdefault(phys, []).append(i)
            socket_groups.setdefault(sock, []).append(i)
            core_demand[p.core] = core_demand.get(p.core, 0.0) + seg.cpu

        # Cache occupancy: L1/L2 contested among hyperthread siblings, L3
        # socket-wide.  A domain whose positive footprints fit (summed in
        # solve_occupancy's own order) evicts exactly nothing; only an
        # overflowing one needs the weighted-fill solver.
        evictions = [[0.0, 0.0, 0.0] for _ in range(n)]
        for level, capacity, groups in (
            (0, cache.l1, core_groups),
            (1, cache.l2, core_groups),
            (2, cache.l3, socket_groups),
        ):
            for members in groups.values():
                footprint = sum([fps[i][level] for i in members if fps[i][level] > 0])
                if footprint <= capacity:
                    continue
                res = solve_occupancy(
                    capacity,
                    [
                        CacheDemand(
                            procs[i].pid, fps[i][level], segs[i].cache_intensity
                        )
                        for i in members
                    ],
                    sharpness=self.cache_sharpness,
                )
                for i in members:
                    evictions[i][level] = res[procs[i].pid].eviction

        # Miss cascade (cascade_miss_factor: the dominant level counts
        # fully, the other two at 30%), then CPU: processor sharing per
        # logical core with SMT capacity coupling.
        c1, c2, c3 = spec.cache_miss_cascade
        smt_loss = 1.0 - spec.smt_throughput / 2.0
        mfs: list[float] = []
        compute_speed: list[float] = []
        cpu_grant: list[float] = []
        for i, (p, seg) in enumerate(zip(procs, segs)):
            e1, e2, e3 = evictions[i]
            a, b, c = c1 * e1, c2 * e2, c3 * e3
            if a >= b and a >= c:
                mf = min(1.0, a + 0.3 * (b + c))
            elif b >= c:
                mf = min(1.0, b + 0.3 * (a + c))
            else:
                mf = min(1.0, c + 0.3 * (a + b))
            miss_factor[p.pid] = mf
            mfs.append(mf)
            sibling = siblings[i]
            sibling_util = (
                min(1.0, core_demand.get(sibling, 0.0)) if sibling is not None else 0.0
            )
            capacity = 1.0 - smt_loss * sibling_util
            if seg.cpu > 0:
                # Time share is what /proc/stat sees (a busy hyperthread is
                # 100% "utilised"); the SMT capacity factor degrades the
                # *throughput* extracted during that time.
                time_share = seg.cpu * min(1.0, 1.0 / core_demand[p.core])
                cpu_ratio = (time_share / seg.cpu) * capacity
            else:
                time_share, cpu_ratio = 0.0, 1.0
            cpu_grant.append(time_share)
            compute_speed.append(cpu_ratio / (1.0 + seg.miss_cpi_penalty * mf))

        # Memory bandwidth per socket, then the roofline composition:
        # a segment's nominal time splits into an overlapped compute part
        # (1 - phi) and a memory part (phi), where phi is how close the
        # segment's demand sits to the single-core bandwidth limit.  The
        # achieved speed is the roofline max of both parts — so a fully
        # memory-bound STREAM does not care about losing CPU share, and a
        # compute-bound kernel does not care about bandwidth loss.
        core_bw = spec.core_mem_bw
        socket_bw = spec.mem_bw_per_socket
        alpha = spec.bw_latency_alpha
        maxmin = self.share_fn is max_min_fair_share
        mem_ratio = [1.0] * n
        phi0 = [0.0] * n  # memory-time fraction at base traffic
        phi = [0.0] * n  # inflated by eviction refetches
        for members in socket_groups.values():
            wants = [  # capped at the single-core limit
                min(segs[i].mem_bw + segs[i].mem_bw_extra * mfs[i], core_bw)
                for i in members
            ]
            grants: list[float] | None = None
            if maxmin:
                # solve_bandwidth's latency degradation; when the degraded
                # demands provably fit (see _fits) max-min grants them as is
                total = float(sum(wants))
                degraded = [
                    w / (1.0 + alpha * (max(0.0, (total - w)) / socket_bw))
                    for w in wants
                ]
                if _fits(degraded, socket_bw):
                    grants = degraded
            if grants is None:
                grants = solve_bandwidth(
                    socket_bw, wants, alpha=alpha, share_fn=self.share_fn
                )
            for i, want, grant in zip(members, wants, grants):
                mem_ratio[i] = 1.0 if want <= 0 else min(1.0, grant / want)
                phi[i] = want / core_bw
                phi0[i] = min(segs[i].mem_bw, core_bw) / core_bw

        speeds: dict[int, float] = {}
        for i, p in enumerate(procs):
            f0 = phi0[i]
            f = phi[i]
            # Roofline with eviction-inflated memory traffic: the nominal
            # iteration overlaps a compute part (1 - f0) and a memory part
            # (f0); contention stretches compute by 1/compute_speed and
            # memory to f / mem_ratio (extra refetch bytes AND reduced
            # bandwidth).  The achieved speed is baseline over the new max.
            baseline = max(1.0 - f0, f0)
            slowdown = max((1.0 - f0) / compute_speed[i], f / mem_ratio[i]) / baseline
            speed = 1.0 / slowdown
            speeds[p.pid] = speed
            self._proc_rates[p.pid]["cpu_user_seconds"] = cpu_grant[i]
            self._proc_rates[p.pid]["mem_bytes"] = f * core_bw * speed
        return speeds

    # -- stage 2: network -----------------------------------------------------

    def _solve_network(
        self, running: Sequence[SimProcess], speeds: dict[int, float]
    ) -> None:
        if self.flow_solver is None:
            return
        requests: list[FlowRequest] = []
        owners: list[tuple[SimProcess, float]] = []  # (proc, demand)
        key = 0
        for proc in running:
            seg = proc.current
            if seg is None:
                continue
            for flow in seg.flows:
                demand = flow.rate * speeds[proc.pid]
                requests.append(
                    FlowRequest(key=key, src=proc.node, dst=flow.dst, demand=demand)
                )
                owners.append((proc, demand))
                key += 1
        if not requests:
            return
        # Fault-induced link degradation scales the *granted* ratio, not
        # the demand: scaling demand to zero would hit the ``demand <= 0``
        # branch below and wrongly grant full speed.  Applying it after
        # the solve also keeps it out of the flow solver's memo key.
        faults = self.cluster.faults
        if faults is not None and faults.active:
            nic_factors = [
                faults.nic_factor(req.src) * faults.nic_factor(req.dst)
                for req in requests
            ]
        else:
            nic_factors = [1.0] * len(requests)
        self.stats.count("network_stage_solves")
        result = self.flow_solver.solve(requests)
        worst_ratio: dict[int, float] = {}
        for request, (proc, demand), nic in zip(requests, owners, nic_factors):
            grant = result.grants[request.key] * nic
            ratio = nic if demand <= 0 else min(1.0, grant / demand)
            worst_ratio[proc.pid] = min(worst_ratio.get(proc.pid, 1.0), ratio)
            # tx accounting reflects granted (not demanded) rates
            rates = self._proc_rates[proc.pid]
            rates["nic_tx_bytes"] = rates.get("nic_tx_bytes", 0.0) + grant
            self._remote_rates[request.dst]["nic_rx_bytes"] += grant
        for pid, ratio in worst_ratio.items():
            speeds[pid] *= ratio

    # -- stage 3: storage -----------------------------------------------------

    def _solve_storage(
        self, running: Sequence[SimProcess], speeds: dict[int, float]
    ) -> None:
        stage = self._storage_stage(
            (proc, speeds[proc.pid])
            for proc in running
            if proc.current is not None and proc.current.io is not None
        )
        if stage is None:
            return
        for pid, ratio in stage.ratios.items():
            speeds[pid] *= ratio
        for pid, rates in stage.rates.items():
            self._proc_rates[pid].update(rates)

    def _storage_stage(
        self, demands: Iterable[tuple[SimProcess, float]]
    ) -> _StageSolve | None:
        """Price filesystem demand: the storage stage of both backends.

        ``demands`` holds ``(proc, speed)`` for every process with I/O
        demand, in running order.  Returns the previous resolve's stage
        when the scaled demand signature is unchanged, a fresh solve
        otherwise, or None when nothing does I/O.  Each backend folds the
        ratios and rates into its own speed/rate state.
        """
        by_fs: dict[str, list[tuple[SimProcess, IODemand]]] = defaultdict(list)
        for proc, speed in demands:
            io = proc.current.io
            scaled = type(io)(
                fs=io.fs,
                write_bw=io.write_bw * speed,
                read_bw=io.read_bw * speed,
                meta_ops=io.meta_ops * speed,
            )
            by_fs[io.fs].append((proc, scaled))
        obs = self.cluster.sim.obs
        if obs is not None:
            # Maintain one "busy" span per filesystem covering the stretch
            # of simulated time during which any I/O demand exists.
            for fs_name in self.cluster.filesystems:
                obs.window(
                    ("io", fs_name),
                    "storage",
                    f"busy:{fs_name}",
                    ("storage", fs_name),
                    active=fs_name in by_fs,
                )
        if not by_fs:
            self._io_cache = None
            return None
        # Filesystem health (failed OSTs, metadata brownout) joins the
        # signature so degradation events invalidate the stage memo even
        # when the demand set itself is unchanged.
        signature = (
            tuple(
                (p.pid, p.node, fs_name, io.write_bw, io.read_bw, io.meta_ops)
                for fs_name, pairs in by_fs.items()
                for p, io in pairs
            ),
            tuple(
                (fs_name, self.cluster.filesystem(fs_name).health_revision)
                for fs_name in sorted(by_fs)
            ),
        )
        if self._io_cache is not None and self._io_cache.signature == signature:
            # Identical scaled IO demand set: previous grants stand.
            self.stats.count("storage_stage_skips")
            return self._io_cache
        self.stats.count("storage_stage_solves")
        ratios: dict[int, float] = {}
        io_rates: dict[int, dict[str, float]] = {}
        for fs_name, pairs in by_fs.items():
            fs = self.cluster.filesystem(fs_name)
            grants = fs.solve([(p.pid, p.node, io) for p, io in pairs])
            for p, _ in pairs:
                grant = grants[p.pid]
                ratios[p.pid] = min(1.0, grant.ratio)
                io_rates[p.pid] = {
                    "io_write_bytes": grant.write_bw,
                    "io_read_bytes": grant.read_bw,
                    "io_meta_ops": grant.meta_ops,
                }
        self._io_cache = _StageSolve(signature=signature, ratios=ratios, rates=io_rates)
        return self._io_cache

    # -- finalize --------------------------------------------------------------

    def _record_rates(
        self,
        running: Sequence[SimProcess],
        speeds: dict[int, float],
        miss_factor: dict[int, float],
    ) -> None:
        nodes = self.cluster.nodes
        l2_factor = self.L2_MISS_FACTOR
        for proc in running:
            seg = proc.current
            if seg is None:
                continue
            rates = self._proc_rates[proc.pid]
            speed = speeds.get(proc.pid, 0.0)
            amp = nodes[proc.node].spec.miss_amplification
            ips = seg.ips * speed
            mpki = amp * (
                seg.mpki_base + seg.mpki_extra * miss_factor.get(proc.pid, 0.0)
            )
            rates["instructions"] = ips
            rates["l3_misses"] = mpki * ips / 1000.0
            # L2 misses track whichever is larger: the cascade from L3
            # misses, or the demand-miss stream feeding the measured
            # memory traffic (one miss per ~4 cache lines after
            # prefetching) — the latter is what makes L2_RQSTS:MISS the
            # paper's memory-intensiveness indicator (Table 2).
            rates["l2_misses"] = max(
                l2_factor * mpki * ips / 1000.0,
                rates.get("mem_bytes", 0.0) / 256.0,
            )


#: binary64 machine epsilon (2**-52); see _fits
_EPS = 2.0**-52


def _fits(demands: list[float], capacity: float) -> bool:
    """True when ``max_min_fair_share(capacity, demands)`` would grant
    every demand unchanged, i.e. when numpy's ``sum(demands) <= capacity``.

    numpy reduces pairwise, not in sequence, so the sequential sum here
    can differ from its total in the last bits either way.  Any summation
    order of ``n`` non-negative terms lands within ``(n - 1) * 2**-53``
    relative of the exact sum, so inflating the sequential sum by ``(4n +
    4) * 2**-52`` (well over the ``~(2n - 1) * 2**-53`` two such errors
    add up to) makes the test conservative: when it accepts, numpy's total
    fits too.  Negative, NaN and infinite demands never pass, so the
    solver's own validation still raises for them.
    """
    total = sum(demands)
    return (
        min(demands) >= 0.0
        and total < math.inf
        and total * (1.0 + (4 * len(demands) + 4) * _EPS) <= capacity
    )


#: mapping from per-process counter names to node counter names
_NODE_COUNTER = {
    "cpu_user_seconds": "cpu_user_seconds",
    "mem_bytes": "mem_bytes",
    "instructions": "instructions",
    "l2_misses": "l2_misses",
    "l3_misses": "l3_misses",
    "nic_tx_bytes": "nic_tx_bytes",
    "io_write_bytes": "io_write_bytes",
    "io_read_bytes": "io_read_bytes",
    "io_meta_ops": "io_meta_ops",
}

#: canonical column order of the model-owned per-process counter keys —
#: disjoint from app-written keys (``cpu_seconds``, ``app_iterations``,
#: ``charm_compute_seconds``), so the array backend can flush its columns
#: by assignment without clobbering anything the app wrote directly
_RATE_KEYS = tuple(_NODE_COUNTER)
(_CPU, _MEM, _INSTR, _L2, _L3, _NIC, _IOW, _IOR, _IOM) = range(len(_RATE_KEYS))


@dataclass
class _ArrayNodeSolve:
    """Array-backend stage-1 cache marker.

    The values live in the model's persistent stage-1 arrays, so only the
    tenancy (which pids, in which order) needs remembering to decide
    whether those rows are still valid."""

    pids: tuple[int, ...]


class _RunGroup:
    """Structures derived from one running set, reused while it is stable.

    The engine resolves thousands of times per simulated run against the
    same ordered process list; everything here is a pure function of that
    list, so rebuilding it per resolve is pure overhead.  ``sel`` is a
    slice when the rows happen to be contiguous (the common case — rows
    are handed out in spawn order), letting the per-resolve array ops use
    basic indexing instead of fancy indexing."""

    __slots__ = (
        "pids",
        "rows",
        "rows_list",
        "sel",
        "by_node",
        "node_pids",
        "node_rows",
        "pid_index",
        "resolved",
        "node_cells",
        "core_cells",
    )

    def __init__(
        self,
        model: "ArrayRateModel",
        pids: tuple[int, ...],
        rows_list: list[int],
        by_node: dict[str, list[SimProcess]],
    ) -> None:
        self.pids = pids
        self.rows_list = rows_list
        rows = np.asarray(rows_list, dtype=np.int64)
        self.rows = rows
        n = len(rows_list)
        if n and rows_list == list(range(rows_list[0], rows_list[0] + n)):
            self.sel: slice | np.ndarray = slice(rows_list[0], rows_list[0] + n)
        else:
            self.sel = rows
        self.by_node = by_node
        pid_row = model._pid_row
        intern = model._node_rows_intern
        node_pids: dict[str, tuple[int, ...]] = {}
        node_rows: dict[str, tuple] = {}
        for name, procs in by_node.items():
            pids_t = tuple(p.pid for p in procs)
            node_pids[name] = pids_t
            quad = intern.get((name, pids_t))
            if quad is None:
                rows_py = [pid_row[p.pid] for p in procs]
                quad = (
                    np.asarray(rows_py, dtype=np.int64),
                    rows_py,
                    tuple(p.core for p in procs),
                    model.cluster.node(name).spec,
                )
                intern[(name, pids_t)] = quad
                if len(intern) > 4 * model.GROUP_CACHE_SIZE:
                    del intern[next(iter(intern))]
            node_rows[name] = quad
        self.node_pids = node_pids
        self.node_rows = node_rows
        self.pid_index = {pid: i for i, pid in enumerate(pids)}
        self.resolved = frozenset(pids)
        self.node_cells = model._row_node[rows]
        self.core_cells = model._row_corecell[rows]


class ArrayRateModel(ClusterRateModel):
    """Array-backed rate model: the engine's ``backend="array"`` hot path.

    Produces **byte-identical** simulations to :class:`ClusterRateModel`
    (the differential oracle in :mod:`repro.check` pins this across the
    fuzz corpus) while replacing the per-event Python dict traffic with
    flat numpy state:

    * per-process speeds and the nine model-owned counter *rates* live in
      contiguous arrays indexed by a pid→row slot table; a resolve writes
      rows, not dicts;
    * per-process and per-node counter *totals* live in matching arrays;
      ``accrue`` is a handful of vectorized adds (``np.add.at`` applies
      per-cell additions in running order, so every float lands exactly
      as the scalar loop's would);
    * counter dictionaries become a *view* refreshed by assignment at the
      points where readers look: the monitoring tick
      (:meth:`accrue_background` runs just before the sampler reads),
      process end, and end of :meth:`~repro.sim.engine.Simulator.run`
      (:meth:`sync_counters`);
    * stage 1 resolves a dirty node's tenants in **one vectorized pass**
      (:meth:`_solve_node_vectorized`): cache totals, SMT-coupled CPU
      sharing, per-socket bandwidth degradation, and the roofline
      composition are all elementwise/grouped array ops that reproduce
      the scalar loop bit-for-bit; a content-addressed memo in front of
      it (:meth:`_solve_node_memo`) reuses whole configurations — a
      node's solve is a pure function of (spec, per-tenant ``(core,
      segment demand)``), and synchronized ranks cycle a handful of
      identical configurations;
    * the network stage hands :meth:`FlowSolver.solve` an array
      fingerprint as its memo signature — the interned (src, dst)
      structure token plus ``demands.tobytes()`` — so recurring traffic
      hits the solver's memo without building a per-flow float tuple;
      grants are folded into the rows on every resolve;
    * the storage stage is the shared :meth:`ClusterRateModel._storage_stage`,
      applied to rows instead of dicts.

    Exactness rules used throughout (see docs/PERFORMANCE.md): elementwise
    numpy ops are IEEE-identical to the scalar ops they replace;
    ``np.add.at`` accumulates strictly in index order; adding ``0.0`` to a
    non-negative total is a bitwise no-op (which is why untouched rate
    cells can ride along in the vectorized add); reductions that would
    reassociate floating-point sums are never used on accumulated values.
    """

    #: distinct (spec, tenancy) stage-1 configurations kept.  Jittered
    #: ranks desynchronize, so distinct tenancy configurations number in
    #: the thousands on long contended runs; entries are four small
    #: arrays, so a deep memo is cheap.
    STAGE1_MEMO_SIZE = 4096
    #: distinct running-set configurations whose grouping is kept
    GROUP_CACHE_SIZE = 256

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cluster = self.cluster
        nodes = list(cluster.nodes.values())
        self._node_index = {node.name: i for i, node in enumerate(nodes)}
        self._node_list = nodes
        self._node_sizes = [
            {lvl: node.spec.cache.size(lvl) for lvl in CACHE_LEVELS}
            for node in nodes
        ]
        first = nodes[0]
        node_keys = [k for k in first.counters if not k.startswith("cpu_core")]
        self._node_cols = {k: j for j, k in enumerate(node_keys)}
        self._node_key_list = node_keys
        self._ncores = first.logical_cores
        self._core_keys = [f"cpu_core{i}_seconds" for i in range(self._ncores)]
        #: per-node counter totals (matching the nodes' dicts column-wise)
        self._NC = np.array(
            [[node.counters[k] for k in node_keys] for node in nodes], dtype=float
        )
        self._NCcore = np.array(
            [[node.counters[k] for k in self._core_keys] for node in nodes],
            dtype=float,
        )
        self._key_node_col = [
            self._node_cols[_NODE_COUNTER[k]] for k in _RATE_KEYS
        ]
        self._key_node_col_arr = np.asarray(self._key_node_col, dtype=np.int64)
        self._sys_col = self._node_cols["cpu_sys_seconds"]
        self._rx_col = self._node_cols["nic_rx_bytes"]
        self._noise_base = np.array(
            [node.spec.os_noise_util * node.logical_cores for node in nodes],
            dtype=float,
        )
        #: sampler-flush snapshots: cells equal to these are already in
        #: the node dicts, so a flush only writes what changed
        self._NC_flushed = self._NC.copy()
        self._NCcore_flushed = self._NCcore.copy()
        # pid → row slot table plus row-indexed state; capacity doubles on
        # demand and rows are never recycled (pids are globally unique).
        self._pid_row: dict[int, int] = {}
        self._row_proc: list[SimProcess] = []
        self._seg_key_list: list[int | None] = []
        self._row_flows: list[tuple | None] = []
        self._nrows = 0
        self._alloc(64)
        #: stage-1 configuration memo (content-addressed, see class doc)
        self._stage1_cache: dict[tuple, tuple] = {}
        #: per-spec stacked cache-level geometry (see ``_evict_levels``)
        self._evict_geom: dict[int, tuple] = {}
        #: per-node tenant quadruples keyed by (node, ordered pid tuple);
        #: a node's tenant configuration is a pure function of that key
        #: (rows and core pinning are fixed per pid), and recurs across
        #: many distinct global running sets, so group (re)builds mostly
        #: assemble interned entries
        self._node_rows_intern: dict[tuple, tuple] = {}
        #: segment-key interning table: memo keys carry small ints instead
        #: of nested float tuples, so hashing them is integer work
        self._seg_intern: dict[tuple, int] = {}
        # flow-structure cache: rebuilt only when the set of flow-bearing
        # rows (or any of their segments) changes
        self._flow_rows_key: tuple | None = None
        self._flow_rows_arr = np.zeros(0, dtype=np.int64)
        self._flow_rates_arr = np.zeros(0)
        self._flow_token = -1
        #: flow-structure interning table ((src, dst) tuple → token); the
        #: per-resolve network signature carries the token so hashing it
        #: does not re-walk the structure tuple
        self._struct_intern: dict[tuple, int] = {}
        self._flow_pairs: tuple[tuple[str, str], ...] = ()
        self._flow_ones = np.zeros(0)
        self._flows_dirty = False
        self._remote: dict[str, float] = {}
        self._acc_rows = np.zeros(0, dtype=np.int64)
        self._acc_sel: slice | np.ndarray = self._acc_rows
        self._acc_node_cells = np.zeros(0, dtype=np.int64)
        self._acc_core_cells = np.zeros(0, dtype=np.int64)
        self._resolved_pids: frozenset[int] = frozenset()
        self._last_pids: Sequence[int] = []
        #: running-set grouping caches keyed by the ordered pid tuple —
        #: barrier phases make the running set oscillate between a few
        #: recurring configurations, so one entry per configuration
        #: (FIFO-bounded) turns the per-resolve grouping into one lookup
        self._group_cache: dict[tuple[int, ...], _RunGroup] = {}

    # -- slot management ----------------------------------------------------

    def _alloc(self, cap: int) -> None:
        nkeys = len(_RATE_KEYS)

        def grow(old, shape, dtype):
            out = np.zeros(shape, dtype=dtype)
            if old is not None:
                out[: old.shape[0]] = old
            return out

        self._row_node = grow(getattr(self, "_row_node", None), cap, np.int64)
        self._row_corecell = grow(getattr(self, "_row_corecell", None), cap, np.int64)
        # node-local topology of the row's core (stage-1 group indices)
        self._row_core = grow(getattr(self, "_row_core", None), cap, np.int64)
        self._row_phys = grow(getattr(self, "_row_phys", None), cap, np.int64)
        self._row_sib = grow(getattr(self, "_row_sib", None), cap, np.int64)
        self._row_sock = grow(getattr(self, "_row_sock", None), cap, np.int64)
        self._row_amp = grow(getattr(self, "_row_amp", None), cap, float)
        self._seg_present = grow(getattr(self, "_seg_present", None), cap, bool)
        self._seg_ips = grow(getattr(self, "_seg_ips", None), cap, float)
        self._seg_mpki_base = grow(getattr(self, "_seg_mpki_base", None), cap, float)
        self._seg_mpki_extra = grow(getattr(self, "_seg_mpki_extra", None), cap, float)
        # stage-1 demand vector of the row's current segment (refreshed
        # when the segment changes; footprints are inclusive-normalized)
        self._seg_cpu = grow(getattr(self, "_seg_cpu", None), cap, float)
        self._seg_int = grow(getattr(self, "_seg_int", None), cap, float)
        self._seg_mcp = grow(getattr(self, "_seg_mcp", None), cap, float)
        self._seg_bw = grow(getattr(self, "_seg_bw", None), cap, float)
        self._seg_bwx = grow(getattr(self, "_seg_bwx", None), cap, float)
        self._seg_fp1 = grow(getattr(self, "_seg_fp1", None), cap, float)
        self._seg_fp2 = grow(getattr(self, "_seg_fp2", None), cap, float)
        self._seg_fp3 = grow(getattr(self, "_seg_fp3", None), cap, float)
        # stage-2/3 membership of the row's current segment
        self._row_flow_mask = grow(getattr(self, "_row_flow_mask", None), cap, bool)
        self._row_io_mask = grow(getattr(self, "_row_io_mask", None), cap, bool)
        self._s1_speed = grow(getattr(self, "_s1_speed", None), cap, float)
        self._s1_cpu = grow(getattr(self, "_s1_cpu", None), cap, float)
        self._s1_mem = grow(getattr(self, "_s1_mem", None), cap, float)
        self._mf = grow(getattr(self, "_mf", None), cap, float)
        self._S = grow(getattr(self, "_S", None), cap, float)
        self._R = grow(getattr(self, "_R", None), (cap, nkeys), float)
        self._Tmask = grow(getattr(self, "_Tmask", None), (cap, nkeys), bool)
        self._C = grow(getattr(self, "_C", None), (cap, nkeys), float)
        self._Tc = grow(getattr(self, "_Tc", None), (cap, nkeys), bool)

    def _row_for(self, proc: SimProcess) -> int:
        row = self._pid_row.get(proc.pid)
        if row is not None:
            return row
        if self._nrows == self._S.shape[0]:
            self._alloc(2 * self._nrows)
        row = self._nrows
        self._nrows += 1
        self._pid_row[proc.pid] = row
        self._row_proc.append(proc)
        self._seg_key_list.append(None)
        self._row_flows.append(None)
        ni = self._node_index[proc.node]
        spec = self._node_list[ni].spec
        self._row_node[row] = ni
        self._row_corecell[row] = ni * self._ncores + proc.core
        self._row_core[row] = proc.core
        self._row_phys[row] = spec.physical_core_of(proc.core)
        sibling = spec.sibling_of(proc.core)
        self._row_sib[row] = -1 if sibling is None else sibling
        self._row_sock[row] = spec.socket_of(proc.core)
        self._row_amp[row] = spec.miss_amplification
        counters = proc.counters
        for col, key in enumerate(_RATE_KEYS):
            if key in counters:
                self._C[row, col] = counters[key]
                self._Tc[row, col] = True
        return row

    # -- resolve ------------------------------------------------------------

    def resolve_incremental(
        self,
        running: Sequence[SimProcess],
        now: float,
        dirty: frozenset[int] | None = None,
    ) -> dict[int, float]:
        if not self.incremental:
            dirty = None
        if dirty is None:
            # Full resolve: forget everything so no stale stage survives.
            # The stage-1 memo goes too — a forced full resolve signals
            # that model inputs may have changed out-of-band.
            self._node_cache.clear()
            self._io_cache = None
            self._stage1_cache.clear()
        self.stats.count("array_resolves")
        self._remote = {}

        pids = tuple(p.pid for p in running)
        group = self._group_cache.get(pids)
        if group is not None:
            # Known running set: rows, by-node grouping, and per-node pid
            # tuples are all unchanged — only refresh dirty segments (plus
            # any row whose segment is still unset, e.g. between phases).
            # Grouping is a pure function of the ordered pid list, and a
            # proc's node/core pinning is fixed for its lifetime, so a
            # configuration revived after a barrier phase is still exact.
            rows = group.rows
            rows_list = group.rows_list
            if dirty is None:
                for i, proc in enumerate(running):
                    self._refresh_segment(proc, rows_list[i])
            else:
                if dirty:
                    pid_index = group.pid_index
                    for pid in dirty:
                        i = pid_index.get(pid)
                        if i is not None:
                            self._refresh_segment(running[i], rows_list[i])
                present = self._seg_present[group.sel]
                if not present.all():
                    for i in np.nonzero(~present)[0].tolist():
                        if pids[i] not in dirty:
                            self._refresh_segment(running[i], rows_list[i])
        else:
            rows_list = []
            by_node: dict[str, list[SimProcess]] = {}
            for proc in running:
                row = self._row_for(proc)
                rows_list.append(row)
                procs = by_node.get(proc.node)
                if procs is None:
                    by_node[proc.node] = [proc]
                else:
                    procs.append(proc)
                if dirty is None or proc.pid in dirty or not self._seg_present[row]:
                    self._refresh_segment(proc, row)
            group = _RunGroup(self, pids, rows_list, by_node)
            self._group_cache[pids] = group
            if len(self._group_cache) > self.GROUP_CACHE_SIZE:
                del self._group_cache[next(iter(self._group_cache))]
            rows = group.rows
            # Nodes only lose all tenants when the running set changes, so
            # stale-entry cleanup belongs to the group rebuild.
            for stale in [
                name for name in self._node_cache if name not in by_node
            ]:
                del self._node_cache[stale]

        node_pids = group.node_pids
        node_rows = group.node_rows
        for node_name, procs in group.by_node.items():
            pids_t = node_pids[node_name]
            cached = self._node_cache.get(node_name)
            if (
                cached is not None
                and cached.pids == pids_t
                and dirty is not None
                and dirty.isdisjoint(pids_t)
            ):
                # Same tenants, same segments: the stage-1 rows are
                # still exact.
                self.stats.count("nodes_reused")
                continue
            self.stats.count("nodes_solved")
            self._solve_node_memo(node_rows[node_name])
            self._node_cache[node_name] = _ArrayNodeSolve(pids=pids_t)

        sel = group.sel
        if rows.size:
            self._R[sel] = 0.0
            self._Tmask[sel] = False
            self._S[sel] = self._s1_speed[sel]
            self._R[sel, _CPU] = self._s1_cpu[sel]
            self._R[sel, _MEM] = self._s1_mem[sel]
            self._Tmask[sel, _CPU] = True
            self._Tmask[sel, _MEM] = True

        # Fault-induced compute degradation: stage-1 rows always store
        # *pre-fault* values, so the factor is applied uniformly on every
        # resolve — cached and fresh rows alike (see ClusterRateModel).
        # At this point the only materialized rates are the stage-1 pair,
        # exactly the keys the scalar path scales.
        faults = self.cluster.faults
        if faults is not None and faults.active and rows.size:
            node_factor = np.ones(len(self._node_index))
            for name, i in self._node_index.items():
                node_factor[i] = faults.speed_factor(name)
            factor = node_factor[group.node_cells]
            degraded = factor < 1.0
            if degraded.any():
                drows = rows[degraded]
                f = factor[degraded]
                self._S[drows] *= f
                self._R[drows, _CPU] *= f
                self._R[drows, _MEM] *= f

        self._solve_network_array(rows[self._row_flow_mask[sel]].tolist())
        self._solve_storage_rows(rows[self._row_io_mask[sel]])
        self._acc_rows = rows
        self._acc_sel = sel
        self._acc_node_cells = group.node_cells
        self._acc_core_cells = group.core_cells
        self._record_rates_array(rows)

        self._Tc[sel] |= self._Tmask[sel]
        self._resolved_pids = group.resolved
        self._last_pids = pids
        return dict(zip(pids, self._S[sel].tolist()))

    @property
    def last_rates(self) -> dict[int, dict[str, float]]:
        """Per-pid accounting rates from the last resolve, materialized
        on demand from the rate matrix (checker-facing view)."""
        out: dict[int, dict[str, float]] = {}
        for pid in self._last_pids:
            row = self._pid_row[pid]
            rates: dict[str, float] = {}
            for col, key in enumerate(_RATE_KEYS):
                if self._Tmask[row, col]:
                    rates[key] = float(self._R[row, col])
            out[pid] = rates
        return out

    def _refresh_segment(self, proc: SimProcess, row: int) -> None:
        """Mirror the row's current segment into the demand arrays."""
        seg = proc.current
        old_flows = self._row_flows[row]
        if seg is None:
            self._seg_present[row] = False
            self._row_flows[row] = None
            self._row_flow_mask[row] = False
            self._row_io_mask[row] = False
            if old_flows is not None:
                self._flows_dirty = True
            return
        self._seg_present[row] = True
        self._seg_ips[row] = seg.ips
        self._seg_mpki_base[row] = seg.mpki_base
        self._seg_mpki_extra[row] = seg.mpki_extra
        self._seg_cpu[row] = seg.cpu
        self._seg_int[row] = seg.cache_intensity
        self._seg_mcp[row] = seg.miss_cpi_penalty
        self._seg_bw[row] = seg.mem_bw
        self._seg_bwx[row] = seg.mem_bw_extra
        fp = inclusive_footprints(
            seg.cache_footprint, self._node_sizes[self._row_node[row]]
        )
        self._seg_fp1[row] = fp["L1"]
        self._seg_fp2[row] = fp["L2"]
        self._seg_fp3[row] = fp["L3"]
        seg_key = self._segment_key(seg)
        token = self._seg_intern.get(seg_key)
        if token is None:
            token = len(self._seg_intern)
            self._seg_intern[seg_key] = token
        self._seg_key_list[row] = token
        flows = seg.flows if seg.flows else None
        self._row_flows[row] = flows
        self._row_flow_mask[row] = flows is not None
        self._row_io_mask[row] = seg.io is not None
        if flows is not None or old_flows is not None:
            self._flows_dirty = True

    # -- stage 1 with a configuration memo ----------------------------------

    @staticmethod
    def _segment_key(seg) -> tuple:
        # Exactly the segment fields stage 1 reads; two segments agreeing
        # on these produce bit-identical node solves.
        return (
            seg.cpu,
            tuple(sorted(seg.cache_footprint.items())),
            seg.cache_intensity,
            seg.miss_cpi_penalty,
            seg.mem_bw,
            seg.mem_bw_extra,
        )

    def _solve_node_memo(self, node_rows: tuple) -> None:
        """Stage-1 solve via the content-addressed configuration memo.

        The solve is a pure function of the node's spec and the ordered
        per-tenant ``(core, segment demand)`` vector — pids only label the
        outputs — so identical configurations (synchronized ranks cycling
        compute/comm phases) are served from the memo bit-for-bit.  The
        memoized value is the vectorized solve's output quadruple
        ``(speed, miss_factor, cpu_rate, mem_rate)`` — one array each,
        aligned with the rows — scattered into the stage-1 arrays here.
        Segment demand enters the key as its interned token (see
        :meth:`_refresh_segment`), so key hashing is integer work.
        """
        rows, rows_py, cores, spec = node_rows
        seg_keys = self._seg_key_list
        key = (id(spec), cores, tuple(seg_keys[r] for r in rows_py))
        hit = self._stage1_cache.get(key)
        if hit is not None:
            self.stats.count("stage1_memo_hits")
        else:
            self.stats.count("stage1_memo_misses")
            hit = self._solve_node_vectorized(spec, rows)
            if len(self._stage1_cache) >= self.STAGE1_MEMO_SIZE:
                self._stage1_cache.pop(next(iter(self._stage1_cache)))
            self._stage1_cache[key] = hit
        speed, mf, cpu_rate, mem_rate = hit
        self._s1_speed[rows] = speed
        self._mf[rows] = mf
        self._s1_cpu[rows] = cpu_rate
        self._s1_mem[rows] = mem_rate

    def _evict_levels(
        self,
        spec,
        phys: np.ndarray,
        sock: np.ndarray,
        fp1: np.ndarray,
        fp2: np.ndarray,
        fp3: np.ndarray,
        inten: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-tenant eviction fractions for all three cache levels.

        The three per-level solves are independent (their cell groups are
        disjoint), so they stack into one cell space — L1 cells ``[0,
        P)``, L2 ``[P, 2P)``, L3 ``[2P, 2P+S)`` for ``P`` physical cores
        and ``S`` sockets — and resolve in a single add.at/compare pass.
        Group totals come from ``np.add.at`` (strictly sequential, and
        riding-along ``0.0`` footprints cannot perturb a non-negative
        running sum), so the fits/overflow decision lands on exactly the
        bits the scalar ``solve_occupancy`` would see.  Groups that fit —
        the overwhelmingly common case — are all-zero evictions by
        definition; each oversubscribed group falls back to the scalar
        weighted-fill solver on identical inputs, in ascending stacked
        cell order — exactly the old L1-then-L2-then-L3,
        ascending-cell-within-level order.
        """
        geom = self._evict_geom.get(id(spec))
        if geom is None:
            cache = spec.cache
            p, s = spec.physical_cores, spec.sockets
            caps = np.empty(2 * p + s)
            caps[:p] = cache.size("L1")
            caps[p : 2 * p] = cache.size("L2")
            caps[2 * p :] = cache.size("L3")
            geom = (p, caps)
            self._evict_geom[id(spec)] = geom
        p, caps = geom
        gid = np.concatenate((phys, phys + p, sock + 2 * p))
        fp = np.concatenate((fp1, fp2, fp3))
        tot = np.zeros(caps.size)
        np.add.at(tot, gid, fp)
        ev = np.zeros(gid.size)
        over = tot[gid] > caps[gid]
        if over.any():
            inten3 = np.concatenate((inten, inten, inten))
            for cell in sorted(set(gid[over].tolist())):
                idx = np.nonzero(gid == cell)[0]
                res = solve_occupancy(
                    float(caps[cell]),
                    [
                        CacheDemand(int(i), float(fp[i]), float(inten3[i]))
                        for i in idx
                    ],
                    sharpness=self.cache_sharpness,
                )
                for i in idx.tolist():
                    ev[i] = res[i].eviction
        n = phys.size
        return ev[:n], ev[n : 2 * n], ev[2 * n :]

    def _solve_node_vectorized(self, spec, rows: np.ndarray) -> tuple:
        """One node's stage-1 solve as a single vectorized pass.

        Replays :meth:`ClusterRateModel._solve_node` with array ops whose
        float sequence is identical to the scalar loop's (elementwise ops
        are IEEE-identical, group sums use ``np.add.at`` in tenant order,
        branchy scalar code becomes ``np.where`` with masked-safe
        denominators), so the outputs match the reference bit-for-bit —
        the property the array-backend oracle pins.
        """
        fp1 = self._seg_fp1[rows]
        fp2 = self._seg_fp2[rows]
        fp3 = self._seg_fp3[rows]
        inten = self._seg_int[rows]
        core = self._row_core[rows]
        phys = self._row_phys[rows]
        sib = self._row_sib[rows]
        sock = self._row_sock[rows]

        # Cache occupancy: L1/L2 contested per physical core, L3 per
        # socket, all three levels solved in one stacked pass.
        ev1, ev2, ev3 = self._evict_levels(spec, phys, sock, fp1, fp2, fp3, inten)

        # cascade_miss_factor, vectorized: the dominant contribution counts
        # fully, the other two at 30%.  IEEE addition commutes bitwise, so
        # summing the two non-dominant terms in either order matches the
        # scalar sorted()-based reduction exactly.
        c1, c2, c3 = spec.cache_miss_cascade
        ca = c1 * ev1
        cb = c2 * ev2
        cc = c3 * ev3
        bc = np.maximum(cb, cc)
        hi = np.maximum(ca, bc)
        others = np.where(
            ca >= bc, cb + cc, np.where(cb >= np.maximum(ca, cc), ca + cc, ca + cb)
        )
        mf = np.minimum(1.0, hi + 0.3 * others)

        # CPU: processor sharing per logical core, SMT capacity coupling.
        cpu = self._seg_cpu[rows]
        cd = np.zeros(spec.logical_cores)
        np.add.at(cd, core, cpu)
        has_sib = sib >= 0
        sib_util = np.where(
            has_sib, np.minimum(1.0, cd[np.where(has_sib, sib, 0)]), 0.0
        )
        smt_capacity = 1.0 - (1.0 - spec.smt_throughput / 2.0) * sib_util
        total = cd[core]
        pos = cpu > 0.0
        time_share = np.where(
            pos, cpu * np.minimum(1.0, 1.0 / np.where(pos, total, 1.0)), 0.0
        )
        cpu_ratio = np.where(
            pos, (time_share / np.where(pos, cpu, 1.0)) * smt_capacity, 1.0
        )
        cpi = 1.0 + self._seg_mcp[rows] * mf
        compute_speed = cpu_ratio / cpi

        # Memory bandwidth per socket: latency degradation elementwise,
        # then the sharing discipline per socket group.  The max-min fast
        # path is inlined on the same pairwise total the solver would
        # compute; any other share_fn (ablations) gets the generic call.
        corebw = spec.core_mem_bw
        sockbw = spec.mem_bw_per_socket
        alpha = spec.bw_latency_alpha
        want = np.minimum(self._seg_bw[rows] + self._seg_bwx[rows] * mf, corebw)
        totw = np.zeros(spec.sockets)
        np.add.at(totw, sock, want)
        other_load = np.maximum(0.0, totw[sock] - want) / sockbw
        degraded = want / (1.0 + alpha * other_load)
        grants = np.empty(rows.size)
        inline_maxmin = self.share_fn is max_min_fair_share
        for s in sorted(set(sock.tolist())):
            idx = np.nonzero(sock == s)[0]
            dem = degraded[idx]
            if inline_maxmin:
                grants[idx] = (
                    dem if float(dem.sum()) <= sockbw else waterfill(sockbw, dem)
                )
            else:
                grants[idx] = self.share_fn(sockbw, dem)
        wpos = want > 0.0
        mem_ratio = np.where(
            wpos, np.minimum(1.0, grants / np.where(wpos, want, 1.0)), 1.0
        )
        phi = want / corebw
        phi0 = np.minimum(self._seg_bw[rows], corebw) / corebw

        # Roofline composition (see the scalar loop for the rationale).
        baseline = np.maximum(1.0 - phi0, phi0)
        slowdown = (
            np.maximum((1.0 - phi0) / compute_speed, phi / mem_ratio) / baseline
        )
        speed = 1.0 / slowdown
        mem_rate = phi * corebw * speed
        return speed, mf, time_share, mem_rate

    # -- stage 2: network ----------------------------------------------------

    def _solve_network_array(self, flow_rows: list[int]) -> None:
        if self.flow_solver is None or not flow_rows:
            return
        # Rebuild the flow-structure arrays only when the set of
        # flow-bearing rows changed or one of their segments refreshed;
        # between changes a resolve just rescales cached per-flow rates.
        key = tuple(flow_rows)
        if self._flows_dirty or key != self._flow_rows_key:
            rows_l: list[int] = []
            rates: list[float] = []
            pairs: list[tuple[str, str]] = []
            for row in flow_rows:
                node = self._row_proc[row].node
                for flow in self._row_flows[row]:
                    rows_l.append(row)
                    rates.append(flow.rate)
                    pairs.append((node, flow.dst))
            self._flow_rows_key = key
            self._flow_rows_arr = np.asarray(rows_l, dtype=np.int64)
            self._flow_rates_arr = np.asarray(rates)
            pairs_t = tuple(pairs)
            token = self._struct_intern.get(pairs_t)
            if token is None:
                token = len(self._struct_intern)
                self._struct_intern[pairs_t] = token
            self._flow_token = token
            self._flow_pairs = pairs_t
            self._flow_ones = np.ones(len(rows_l))
            self._flows_dirty = False
        demands = self._flow_rates_arr * self._S[self._flow_rows_arr]
        faults = self.cluster.faults
        if faults is not None and faults.active:
            nic = np.asarray(
                [
                    faults.nic_factor(src) * faults.nic_factor(dst)
                    for src, dst in self._flow_pairs
                ]
            )
        else:
            nic = self._flow_ones
        # Array fingerprint: interned (src, dst) structure token + raw
        # demand/nic bytes (bytes objects cache their hash, so a repeat
        # signature costs one int hash plus two cached-byte hashes).  It
        # determines every request's (key, src, dst, demand) — keys are
        # positions, so pids stay out as in the object backend's key — and
        # the flow solver's memo is keyed on it instead of a per-flow
        # float tuple.
        signature = (self._flow_token, nic.tobytes(), demands.tobytes())
        self.stats.count("network_stage_solves")
        requests = [
            FlowRequest(key=k, src=src, dst=dst, demand=float(demand))
            for k, ((src, dst), demand) in enumerate(zip(self._flow_pairs, demands))
        ]
        result = self.flow_solver.solve(requests, signature=signature)
        worst: dict[int, float] = {}
        tx: dict[int, float] = {}
        remote = self._remote
        nic_list = nic.tolist()
        rows_list = self._flow_rows_arr.tolist()
        for request, row, nic_k in zip(requests, rows_list, nic_list):
            grant = result.grants[request.key] * nic_k
            demand = request.demand
            ratio = nic_k if demand <= 0 else min(1.0, grant / demand)
            worst[row] = min(worst.get(row, 1.0), ratio)
            tx[row] = tx.get(row, 0.0) + grant
            remote[request.dst] = remote.get(request.dst, 0.0) + grant
        rows = np.fromiter(worst, dtype=np.int64, count=len(worst))
        self._S[rows] *= np.fromiter(worst.values(), dtype=float, count=len(worst))
        self._R[rows, _NIC] = np.fromiter(tx.values(), dtype=float, count=len(tx))
        self._Tmask[rows, _NIC] = True

    # -- stage 3: storage ----------------------------------------------------

    def _solve_storage_rows(self, io_rows: np.ndarray) -> None:
        stage = self._storage_stage(
            (self._row_proc[row], float(self._S[row])) for row in io_rows.tolist()
        )
        if stage is None:
            return
        for pid, ratio in stage.ratios.items():
            self._S[self._pid_row[pid]] *= ratio
        for pid, rates in stage.rates.items():
            row = self._pid_row[pid]
            self._R[row, _IOW] = rates["io_write_bytes"]
            self._R[row, _IOR] = rates["io_read_bytes"]
            self._R[row, _IOM] = rates["io_meta_ops"]
            self._Tmask[row, _IOW] = True
            self._Tmask[row, _IOR] = True
            self._Tmask[row, _IOM] = True

    # -- finalize ------------------------------------------------------------

    def _record_rates_array(self, rows: np.ndarray) -> None:
        if not rows.size:
            return
        # The resolve that just ran leaves its selector in _acc_sel; when
        # every row has a live segment (the common case) the whole update
        # runs on that selector — a slice for contiguous groups.
        sel = self._acc_sel if rows is self._acc_rows else rows
        present = self._seg_present[sel]
        if present.all():
            rr: slice | np.ndarray = sel
        else:
            rr = rows[present]
            if not rr.size:
                return
        speed = self._S[rr]
        ips = self._seg_ips[rr] * speed
        mpki = self._row_amp[rr] * (
            self._seg_mpki_base[rr] + self._seg_mpki_extra[rr] * self._mf[rr]
        )
        self._R[rr, _INSTR] = ips
        self._R[rr, _L3] = mpki * ips / 1000.0
        self._R[rr, _L2] = np.maximum(
            self.L2_MISS_FACTOR * mpki * ips / 1000.0,
            self._R[rr, _MEM] / 256.0,
        )
        self._Tmask[rr, _INSTR] = True
        self._Tmask[rr, _L3] = True
        self._Tmask[rr, _L2] = True

    # -- accrual -------------------------------------------------------------

    def accrue(self, running: Sequence[SimProcess], t0: float, t1: float) -> None:
        dt = t1 - t0
        rows = self._acc_rows
        if rows.size != len(running) or (
            rows.size and self._pid_row.get(running[0].pid, -1) != rows[0]
        ):
            # Running set drifted from the last resolve (only possible for
            # un-resolved newcomers; any change marks the engine dirty and
            # forces a resolve before the next accrue).
            rows = np.asarray(
                [
                    self._pid_row[p.pid]
                    for p in running
                    if p.pid in self._resolved_pids
                ],
                dtype=np.int64,
            )
            sel: slice | np.ndarray = rows
            node_cells = self._row_node[rows]
            core_cells = self._row_corecell[rows]
        else:
            sel = self._acc_sel
            node_cells = self._acc_node_cells
            core_cells = self._acc_core_cells
        if rows.size:
            amounts = self._R[sel] * dt
            self._C[sel] += amounts
            # One fused scatter-add; C-order iteration is per-process,
            # per-key — and because _NODE_COUNTER maps rate keys to node
            # counters injectively, each target cell still receives its
            # contributions in process order, bit-identical to the scalar
            # per-process loop.
            np.add.at(
                self._NC,
                (node_cells[:, None], self._key_node_col_arr[None, :]),
                amounts,
            )
            np.add.at(
                self._NCcore.reshape(-1),
                core_cells,
                amounts[:, _CPU],
            )
        for node_name, rate in self._remote.items():
            self._NC[self._node_index[node_name], self._rx_col] += rate * dt

    def accrue_background(self, dt: float) -> None:
        """OS noise accounting plus the pre-sampler counter flush."""
        self._NC[:, self._sys_col] += self._noise_base * dt
        self._flush_nodes()

    # -- counter flushes -----------------------------------------------------

    def _flush_proc_row(self, proc: SimProcess, row: int) -> None:
        counters = proc.counters
        for col, key in enumerate(_RATE_KEYS):
            if self._Tc[row, col]:
                counters[key] = float(self._C[row, col])

    def _flush_nodes(self) -> None:
        """Write array-held node counters back to the node dicts.

        Cells equal to the last-flushed snapshot are already current in
        the dicts (this model is the only writer of these keys), so only
        the delta is materialized — the sampler tick touches a handful of
        cells, not every counter on every node.
        """
        nodes = self._node_list
        changed = np.nonzero(self._NC != self._NC_flushed)
        if changed[0].size:
            keys = self._node_key_list
            for i, j in zip(changed[0].tolist(), changed[1].tolist()):
                nodes[i].counters[keys[j]] = float(self._NC[i, j])
            np.copyto(self._NC_flushed, self._NC)
        changed = np.nonzero(self._NCcore != self._NCcore_flushed)
        if changed[0].size:
            keys = self._core_keys
            for i, c in zip(changed[0].tolist(), changed[1].tolist()):
                nodes[i].counters[keys[c]] = float(self._NCcore[i, c])
            np.copyto(self._NCcore_flushed, self._NCcore)

    def sync_counters(self) -> None:
        for proc, row in zip(self._row_proc, range(self._nrows)):
            self._flush_proc_row(proc, row)
        self._flush_nodes()

    def on_process_end(self, proc: SimProcess) -> None:
        row = self._pid_row.get(proc.pid)
        if row is not None:
            self._flush_proc_row(proc, row)
        super().on_process_end(proc)
