"""Stage 1 of the object rate model against the loop it replaced.

``ClusterRateModel._solve_node`` runs plain-float loops over per-spec
core tables and skips the general solvers when a cache domain or a
socket's bandwidth provably fits.  Its speeds, miss factors and rates
must match, bit for bit, the straightforward loop kept here as a
test-only reference, and the cache solver must run on exactly the
domains that overflow.
"""

import math
from collections import defaultdict

import numpy as np
import pytest

import repro.cluster.ratemodel as ratemodel
from repro.cache.model import (
    CacheDemand,
    cascade_miss_factor,
    inclusive_footprints,
    solve_occupancy,
)
from repro.cluster import Cluster, MachineSpec
from repro.cluster.ratemodel import ClusterRateModel, _fits
from repro.errors import ConfigError, ResourceError
from repro.memory.bandwidth import solve_bandwidth
from repro.resources.fairshare import max_min_fair_share, proportional_share
from repro.sim.process import CACHE_LEVELS, Segment, SimProcess
from repro.sim.rng import make_rng

# -- reference node solve ---------------------------------------------------


def reference_solve_node(
    self: ClusterRateModel,
    node_name: str,
    procs: list[SimProcess],
    miss_factor: dict[int, float],
) -> dict[int, float]:
    """The stage-1 node solve before the fit fast paths, kept verbatim.

    Every tenant goes through ``solve_occupancy`` per cache domain,
    ``cascade_miss_factor`` and ``solve_bandwidth``; the topology comes
    from the spec's per-core methods.
    """
    node = self.cluster.node(node_name)
    spec = node.spec
    sizes = {lvl: spec.cache.size(lvl) for lvl in CACHE_LEVELS}

    footprints = {
        p.pid: inclusive_footprints(p.current.cache_footprint, sizes)
        for p in procs
        if p.current is not None
    }
    evictions: dict[int, dict[str, float]] = {
        p.pid: dict.fromkeys(CACHE_LEVELS, 0.0) for p in procs
    }

    # Private levels (L1, L2): contested among hyperthread siblings.
    for level in ("L1", "L2"):
        groups: dict[int, list[SimProcess]] = defaultdict(list)
        for p in procs:
            groups[spec.physical_core_of(p.core)].append(p)
        for tenants in groups.values():
            res = solve_occupancy(
                sizes[level],
                [
                    CacheDemand(
                        p.pid, footprints[p.pid][level], p.current.cache_intensity
                    )
                    for p in tenants
                ],
                sharpness=self.cache_sharpness,
            )
            for p in tenants:
                evictions[p.pid][level] = res[p.pid].eviction

    # Shared level (L3): contested socket-wide.
    socket_groups: dict[int, list[SimProcess]] = defaultdict(list)
    for p in procs:
        socket_groups[spec.socket_of(p.core)].append(p)
    for tenants in socket_groups.values():
        res = solve_occupancy(
            sizes["L3"],
            [
                CacheDemand(
                    p.pid, footprints[p.pid]["L3"], p.current.cache_intensity
                )
                for p in tenants
            ],
            sharpness=self.cache_sharpness,
        )
        for p in tenants:
            evictions[p.pid]["L3"] = res[p.pid].eviction

    for p in procs:
        miss_factor[p.pid] = cascade_miss_factor(
            evictions[p.pid], spec.cache_miss_cascade
        )

    # CPU: processor sharing per logical core, SMT capacity coupling.
    core_demand: dict[int, float] = defaultdict(float)
    for p in procs:
        core_demand[p.core] += p.current.cpu
    compute_speed: dict[int, float] = {}
    cpu_grant: dict[int, float] = {}
    for p in procs:
        seg = p.current
        sibling = spec.sibling_of(p.core)
        sibling_util = (
            min(1.0, core_demand.get(sibling, 0.0)) if sibling is not None else 0.0
        )
        capacity = 1.0 - (1.0 - spec.smt_throughput / 2.0) * sibling_util
        total = core_demand[p.core]
        if seg.cpu > 0:
            # Time share is what /proc/stat sees (a busy hyperthread is
            # 100% "utilised"); the SMT capacity factor degrades the
            # *throughput* extracted during that time.
            time_share = seg.cpu * min(1.0, 1.0 / total)
            cpu_ratio = (time_share / seg.cpu) * capacity
        else:
            time_share, cpu_ratio = 0.0, 1.0
        cpu_grant[p.pid] = time_share
        cpi = 1.0 + seg.miss_cpi_penalty * miss_factor[p.pid]
        compute_speed[p.pid] = cpu_ratio / cpi

    # Memory bandwidth per socket, then the roofline composition:
    # a segment's nominal time splits into an overlapped compute part
    # (1 - phi) and a memory part (phi), where phi is how close the
    # segment's demand sits to the single-core bandwidth limit.  The
    # achieved speed is the roofline max of both parts — so a fully
    # memory-bound STREAM does not care about losing CPU share, and a
    # compute-bound kernel does not care about bandwidth loss.
    mem_ratio: dict[int, float] = {}
    phi0: dict[int, float] = {}  # memory-time fraction at base traffic
    phi: dict[int, float] = {}  # inflated by eviction refetches
    for tenants in socket_groups.values():
        wants = []
        for p in tenants:
            seg = p.current
            want = seg.mem_bw + seg.mem_bw_extra * miss_factor[p.pid]
            wants.append(min(want, spec.core_mem_bw))  # single-core limit
        grants = solve_bandwidth(
            spec.mem_bw_per_socket,
            wants,
            alpha=spec.bw_latency_alpha,
            share_fn=self.share_fn,
        )
        for p, want, grant in zip(tenants, wants, grants):
            mem_ratio[p.pid] = 1.0 if want <= 0 else min(1.0, grant / want)
            phi[p.pid] = want / spec.core_mem_bw
            phi0[p.pid] = (
                min(p.current.mem_bw, spec.core_mem_bw) / spec.core_mem_bw
            )

    speeds: dict[int, float] = {}
    for p in procs:
        f0 = phi0[p.pid]
        f = phi[p.pid]
        # Roofline with eviction-inflated memory traffic: the nominal
        # iteration overlaps a compute part (1 - f0) and a memory part
        # (f0); contention stretches compute by 1/compute_speed and
        # memory to f / mem_ratio (extra refetch bytes AND reduced
        # bandwidth).  The achieved speed is baseline over the new max.
        baseline = max(1.0 - f0, f0)
        slowdown = (
            max((1.0 - f0) / compute_speed[p.pid], f / mem_ratio[p.pid]) / baseline
        )
        speeds[p.pid] = 1.0 / slowdown
        self._proc_rates[p.pid]["cpu_user_seconds"] = cpu_grant[p.pid]
        self._proc_rates[p.pid]["mem_bytes"] = (
            f * spec.core_mem_bw * speeds[p.pid]
        )
    return speeds


# -- seeded node configurations ---------------------------------------------

SPECS = {
    "voltrino": MachineSpec.voltrino(),
    "chameleon": MachineSpec.chameleon(),
    "knl": MachineSpec.voltrino_knl(),
}


def _idle(proc):
    return iter(())


def _proc(core, seg):
    proc = SimProcess(name=f"p{core}", body=_idle, node="node0", core=core)
    proc.current = seg
    return proc


def _random_segment(rng, spec):
    sizes = {lvl: spec.cache.size(lvl) for lvl in CACHE_LEVELS}
    footprint = {}
    for lvl in CACHE_LEVELS:
        if rng.random() < 0.5:
            # exact fractions make co-tenants sum to exactly the capacity
            frac = (
                float(rng.choice([0.25, 0.5, 1.0]))
                if rng.random() < 0.3
                else float(rng.uniform(0.0, 1.5))
            )
            footprint[lvl] = frac * sizes[lvl]
    return Segment(
        work=1.0,
        cpu=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])),
        cache_footprint=footprint,
        cache_intensity=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
        miss_cpi_penalty=float(rng.uniform(0.0, 2.0)),
        mem_bw=float(rng.uniform(0.0, 1.5)) * spec.core_mem_bw,
        mem_bw_extra=float(rng.choice([0.0, rng.uniform(0.0, 1.0)])) * spec.core_mem_bw,
    )


def _random_procs(rng, spec):
    """1-8 tenants crowded onto a few physical cores of both threads."""
    phys = rng.choice(
        spec.physical_cores, size=min(3, spec.physical_cores), replace=False
    )
    procs = []
    for _ in range(int(rng.integers(1, 9))):
        thread = int(rng.integers(0, spec.smt))
        core = int(rng.choice(phys)) + spec.physical_cores * thread
        procs.append(_proc(core, _random_segment(rng, spec)))
    return procs


def _boundary_case(rng, base):
    """8-16 memory-bound tenants on socket 0 whose demands sum to within
    a few ulps of the socket bandwidth.

    No latency degradation and nothing in cache, so every degraded demand
    is exactly the segment's ``mem_bw``; the capacity is then set on either
    side of the sequential and of numpy's pairwise total.
    """
    n = int(rng.integers(8, 17))
    bw = [float(rng.uniform(0.5, 1.0)) * base.core_mem_bw for _ in range(n)]
    seq = sum(bw)
    pairwise = float(np.asarray(bw).sum())
    capacity = float(
        rng.choice(
            [
                seq,
                pairwise,
                math.nextafter(seq, math.inf),
                math.nextafter(seq, 0.0),
                math.nextafter(pairwise, math.inf),
                math.nextafter(pairwise, 0.0),
            ]
        )
    )
    spec = base.with_overrides(bw_latency_alpha=0.0, mem_bw_per_socket=capacity)
    cores = rng.choice(spec.cores_per_socket, size=n, replace=n > spec.cores_per_socket)
    procs = []
    for core, mem_bw in zip(cores.tolist(), bw):
        thread = int(rng.integers(0, spec.smt)) * spec.physical_cores
        procs.append(_proc(core + thread, Segment(work=1.0, cpu=1.0, mem_bw=mem_bw)))
    return spec, procs, seq <= capacity < pairwise


def _hexed(speeds, miss_factor, rates):
    return (
        [(pid, v.hex()) for pid, v in speeds.items()],
        [(pid, v.hex()) for pid, v in miss_factor.items()],
        [(pid, [(k, v.hex()) for k, v in r.items()]) for pid, r in rates.items()],
    )


def _solve(model, solve, procs):
    model._proc_rates = {p.pid: {} for p in procs}
    miss_factor: dict[int, float] = {}
    speeds = solve(model, "node0", procs, miss_factor)
    return _hexed(speeds, miss_factor, model._proc_rates)


def _overflowing_domains(spec, procs):
    """Cache domains whose positive footprints exceed their capacity."""
    sizes = {lvl: spec.cache.size(lvl) for lvl in CACHE_LEVELS}
    fps = {p.pid: inclusive_footprints(p.current.cache_footprint, sizes) for p in procs}
    over = []
    for level, domain_of in (
        ("L1", spec.physical_core_of),
        ("L2", spec.physical_core_of),
        ("L3", spec.socket_of),
    ):
        groups = defaultdict(list)
        for p in procs:
            groups[domain_of(p.core)].append(fps[p.pid][level])
        over += [
            level for g in groups.values() if sum(f for f in g if f > 0) > sizes[level]
        ]
    return over


def _compare(monkeypatch, spec, procs, share_fn=max_min_fair_share, sharpness=1.0):
    """Assert bitwise equality; returns the overflowing cache levels."""
    model = Cluster(
        num_nodes=1,
        spec=spec,
        share_fn=share_fn,
        cache_sharpness=sharpness,
        backend="object",
    ).model
    want = _solve(model, reference_solve_node, procs)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve_occupancy(*args, **kwargs)

    monkeypatch.setattr(ratemodel, "solve_occupancy", counted)
    got = _solve(model, ClusterRateModel._solve_node, procs)
    monkeypatch.undo()
    assert got == want
    over = _overflowing_domains(spec, procs)
    # the weighted-fill solver runs on exactly the overflowing domains
    assert len(calls) == len(over)
    return over


CASES = [
    ("voltrino", max_min_fair_share, 1.0),
    ("voltrino", proportional_share, 1.0),
    ("voltrino", max_min_fair_share, 2.5),
    ("chameleon", max_min_fair_share, 1.0),
    ("chameleon", proportional_share, 0.5),
    ("knl", max_min_fair_share, 1.0),
]


class TestMatchesReference:
    @pytest.mark.parametrize("spec_name,share_fn,sharpness", CASES)
    def test_random_configurations_bitwise_equal(
        self, spec_name, share_fn, sharpness, monkeypatch
    ):
        spec = SPECS[spec_name]
        rng = make_rng(1500 + CASES.index((spec_name, share_fn, sharpness)))
        seen = defaultdict(int)
        for _ in range(80):
            procs = _random_procs(rng, spec)
            for level in _compare(monkeypatch, spec, procs, share_fn, sharpness):
                seen[level] += 1
            cores = {p.core for p in procs}
            seen["siblings"] += any(spec.sibling_of(c) in cores for c in cores)
            seen["cpu0"] += any(p.current.cpu == 0.0 for p in procs)
            seen["above_core_bw"] += any(
                p.current.mem_bw > spec.core_mem_bw for p in procs
            )
        # the generator reaches every regime the fast paths distinguish
        for key in ("L1", "L2", "L3", "siblings", "cpu0", "above_core_bw"):
            assert seen[key] > 0, key

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_socket_bandwidth_at_the_boundary(self, spec_name, monkeypatch):
        rng = make_rng(1600 + sorted(SPECS).index(spec_name))
        between = 0
        for _ in range(120):
            spec, procs, seq_fits_only = _boundary_case(rng, SPECS[spec_name])
            _compare(monkeypatch, spec, procs)
            between += seq_fits_only
        # cases where only the sequential total fits: an unmargined fast
        # path grants them in full, max-min does not
        assert between > 0


class TestValidationOnTheFastPath:
    def test_core_outside_the_table_raises_config_error(self):
        spec = SPECS["voltrino"]
        model = Cluster(num_nodes=1, spec=spec, backend="object").model
        for core in (-1, -spec.logical_cores, spec.logical_cores):
            procs = [_proc(0, Segment(work=1.0)), _proc(core, Segment(work=1.0))]
            model._proc_rates = {p.pid: {} for p in procs}
            with pytest.raises(ConfigError):
                model._solve_node("node0", procs, {})

    def test_negative_footprint_raises_although_the_domain_fits(self):
        footprint = {"L1": 1.0}
        seg = Segment(work=1.0, cache_footprint=footprint)
        footprint["L1"] = -1.0  # mutated after the segment validated it
        model = Cluster(num_nodes=1, backend="object").model
        procs = [_proc(0, seg)]
        model._proc_rates = {p.pid: {} for p in procs}
        with pytest.raises(ResourceError):
            model._solve_node("node0", procs, {})

    def test_negative_intensity_raises_although_the_domain_fits(self):
        seg = Segment(work=1.0, cache_footprint={"L3": 1.0})
        object.__setattr__(seg, "cache_intensity", -0.5)
        model = Cluster(num_nodes=1, backend="object").model
        procs = [_proc(0, seg)]
        model._proc_rates = {p.pid: {} for p in procs}
        with pytest.raises(ResourceError):
            model._solve_node("node0", procs, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_bandwidth_demand_reaches_the_solver(self, bad):
        # nan/inf demands never take the fast path; the solver's own
        # validation raises as before
        spec = SPECS["voltrino"].with_overrides(core_mem_bw=math.inf)
        seg = Segment(work=1.0, mem_bw=bad)
        model = Cluster(num_nodes=1, spec=spec, backend="object").model
        procs = [_proc(0, seg)]
        model._proc_rates = {p.pid: {} for p in procs}
        with pytest.raises(ResourceError):
            model._solve_node("node0", procs, {})


class TestBandwidthFitIsConservative:
    def test_accepts_only_where_numpy_sum_fits(self):
        """Whenever the fast path accepts, max-min's own total fits.

        About 10**5 vectors of 1-64 demands over twelve magnitudes, each
        against a capacity within a few dozen ulps of numpy's total.
        """
        rng = make_rng(1800)
        accepted = tight = 0
        for n in range(1, 65):
            for _ in range(1600):
                scale = 10.0 ** int(rng.integers(-3, 12))
                demands = (rng.random(n) * scale).tolist()
                total = float(np.asarray(demands, dtype=float).sum())
                ulps = int(rng.integers(-4 * n - 8, 12 * n + 16))
                capacity = total * (1.0 + ulps * 2.0**-52)
                if _fits(demands, capacity):
                    accepted += 1
                    assert float(np.asarray(demands, dtype=float).sum()) <= capacity
                    tight += ulps <= 10 * n + 12
        # not vacuous: most near-boundary capacities above the margin pass,
        # some within a few ulps of it
        assert accepted > 10_000
        assert tight > 0

    def test_rejects_negative_nan_and_infinite_demands(self):
        for bad in (-1.0, -0.5e-300, math.nan, math.inf):
            assert not _fits([1.0, bad, 2.0], 1e300)
            assert not _fits([bad], 1e300)
        assert not _fits([1.0], math.nan)
        assert _fits([0.0, -0.0], 0.0)
