"""Machine spec topology arithmetic and presets."""

import pytest

from repro.cluster.specs import CacheSpec, MachineSpec
from repro.errors import ConfigError
from repro.units import GB, KB, MB


class TestCacheSpec:
    def test_defaults_are_haswell(self):
        cache = CacheSpec()
        assert cache.l1 == 32 * KB
        assert cache.l2 == 256 * KB
        assert cache.l3 == 40 * MB

    def test_size_lookup(self):
        cache = CacheSpec()
        assert cache.size("L1") == cache.l1
        assert cache.size("L3") == cache.l3
        with pytest.raises(ConfigError):
            cache.size("L4")

    def test_ordering_enforced(self):
        with pytest.raises(ConfigError):
            CacheSpec(l1=1 * MB, l2=256 * KB)


class TestVoltrinoTopology:
    SPEC = MachineSpec.voltrino()

    def test_core_counts(self):
        assert self.SPEC.physical_cores == 32
        assert self.SPEC.logical_cores == 64

    def test_socket_mapping(self):
        assert self.SPEC.socket_of(0) == 0
        assert self.SPEC.socket_of(15) == 0
        assert self.SPEC.socket_of(16) == 1
        assert self.SPEC.socket_of(31) == 1
        # hyperthreads live on the same socket as their sibling
        assert self.SPEC.socket_of(32) == 0
        assert self.SPEC.socket_of(63) == 1

    def test_sibling_mapping_is_symmetric(self):
        for core in (0, 7, 31, 40, 63):
            sib = self.SPEC.sibling_of(core)
            assert sib is not None
            assert self.SPEC.sibling_of(sib) == core
            assert self.SPEC.physical_core_of(sib) == self.SPEC.physical_core_of(core)

    def test_out_of_range_core(self):
        with pytest.raises(ConfigError):
            self.SPEC.socket_of(64)
        with pytest.raises(ConfigError):
            self.SPEC.socket_of(-1)

    def test_memory(self):
        assert self.SPEC.mem_bytes == 125 * GB


class TestCoreTable:
    @pytest.mark.parametrize(
        "spec",
        [
            MachineSpec.voltrino(),
            MachineSpec.chameleon(),
            MachineSpec.voltrino_knl(),
            MachineSpec(smt=1),
        ],
        ids=["voltrino", "chameleon", "knl", "no-smt"],
    )
    def test_entries_match_the_per_core_methods(self, spec):
        assert sorted(spec.core_table) == list(range(spec.logical_cores))
        for core in range(spec.logical_cores):
            assert spec.core_entry(core) == (
                spec.physical_core_of(core),
                spec.sibling_of(core),
                spec.socket_of(core),
            )

    def test_shared_per_topology_and_not_part_of_equality(self):
        spec = MachineSpec.voltrino()
        assert spec.core_table is spec.core_table
        same_shape = MachineSpec.voltrino().with_overrides(mem_bw_per_socket=1.0e9)
        assert same_shape.core_table is spec.core_table
        assert MachineSpec.chameleon().core_table is not spec.core_table
        assert spec == MachineSpec.voltrino()
        assert hash(spec) == hash(MachineSpec.voltrino())

    @pytest.mark.parametrize("core", [-1, -64, 64, 1000, 1.5])
    def test_outside_the_table_raises_config_error(self, core):
        with pytest.raises(ConfigError):
            MachineSpec.voltrino().core_entry(core)


class TestPresets:
    def test_chameleon_differs(self):
        cc = MachineSpec.chameleon()
        assert cc.cores_per_socket == 12
        assert cc.cache.l3 == 30 * MB
        assert cc.miss_amplification > 1.0

    def test_knl_partition(self):
        knl = MachineSpec.voltrino_knl()
        assert knl.cores_per_socket == 68
        assert knl.sockets == 1

    def test_no_smt_spec(self):
        spec = MachineSpec(smt=1)
        assert spec.sibling_of(0) is None
        assert spec.logical_cores == spec.physical_cores

    def test_with_overrides(self):
        spec = MachineSpec.voltrino().with_overrides(mem_bw_per_socket=1.0e9)
        assert spec.mem_bw_per_socket == 1.0e9
        assert spec.cores_per_socket == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            MachineSpec(sockets=0)
        with pytest.raises(ConfigError):
            MachineSpec(smt=3)
        with pytest.raises(ConfigError):
            MachineSpec(smt_throughput=2.5)
        with pytest.raises(ConfigError):
            MachineSpec(cache_miss_cascade=(1.0, 1.0))
