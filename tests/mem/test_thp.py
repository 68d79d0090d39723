"""Tests for transparent-huge-page (compound group) support."""

import pytest

from repro.core.clock import Clock
from repro.core.config import MigrationSpec, fast_dram_spec, slow_dram_spec
from repro.core.units import MB, PAGE_SIZE
from repro.mem.frame import PageOwner
from repro.mem.migration import MigrationEngine
from repro.mem.thp import CompoundRegistry
from repro.mem.topology import MemoryTopology
from repro.policies import KlocsPolicy, NimblePolicy
from tests.kernel.test_kernel import make_kernel


@pytest.fixture
def topo():
    return MemoryTopology(
        [fast_dram_spec(capacity_bytes=16 * MB), slow_dram_spec(capacity_bytes=64 * MB)]
    )


class TestCompoundRegistry:
    def test_grouping(self, topo):
        registry = CompoundRegistry(pages_per_compound=4)
        frames = topo.allocate(10, ["fast"], PageOwner.APP)
        formed = registry.make_compounds(frames)
        assert formed == 2  # 8 pages grouped, 2 left as base pages
        assert frames[0].compound_id is not None
        assert frames[0].compound_id == frames[3].compound_id
        assert frames[4].compound_id != frames[0].compound_id
        assert frames[8].compound_id is None

    def test_expand_whole_groups(self, topo):
        registry = CompoundRegistry(pages_per_compound=4)
        frames = topo.allocate(8, ["fast"], PageOwner.APP)
        registry.make_compounds(frames)
        expanded = registry.expand([frames[0], frames[5]])
        assert len(expanded) == 8  # both whole groups

    def test_expand_mixes_base_pages(self, topo):
        registry = CompoundRegistry(pages_per_compound=4)
        frames = topo.allocate(5, ["fast"], PageOwner.APP)
        registry.make_compounds(frames)
        expanded = registry.expand([frames[4], frames[1]])
        assert len(expanded) == 5

    def test_group_hotness(self, topo):
        registry = CompoundRegistry(pages_per_compound=4)
        frames = topo.allocate(4, ["fast"], PageOwner.APP)
        registry.make_compounds(frames)
        cid = frames[0].compound_id
        assert not registry.group_recently_referenced(cid, since_ns=10)
        frames[2].record_access(50, write=False)
        assert registry.group_recently_referenced(cid, since_ns=10)

    def test_drop(self, topo):
        registry = CompoundRegistry(pages_per_compound=4)
        frames = topo.allocate(4, ["fast"], PageOwner.APP)
        registry.make_compounds(frames)
        registry.drop(frames)
        assert registry.compound_count() == 0
        assert all(f.compound_id is None for f in frames)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CompoundRegistry(pages_per_compound=1)


class TestTHPMigrationCost:
    def test_one_remap_per_compound(self, topo):
        """The §5 hypothesis mechanism: 2MB moves with a single remap."""
        spec = MigrationSpec(remap_overhead_ns=1_000_000, copy_threads=1)
        engine = MigrationEngine(topo, Clock(), spec)
        registry = CompoundRegistry(pages_per_compound=8)

        base = topo.allocate(8, ["fast"], PageOwner.APP)
        cost_base = engine.migrate(base, "slow", charge_time=False).cost_ns

        huge = topo.allocate(8, ["fast"], PageOwner.APP)
        registry.make_compounds(huge)
        cost_huge = engine.migrate(huge, "slow", charge_time=False).cost_ns

        # 8 remaps vs 1: the huge batch is dominated by copy cost only.
        assert cost_huge < cost_base / 4


class TestKernelIntegration:
    def test_huge_region_allocation(self):
        kernel = make_kernel()
        frames = kernel.alloc_app_pages(1024, huge=True)
        compounds = {f.compound_id for f in frames if f.compound_id is not None}
        assert len(compounds) == 2  # 1024 pages / 512 per THP
        kernel.free_app_pages(frames)
        assert kernel.thp.compound_count() == 0
        kernel.topology.check_invariants()

    def test_scan_moves_whole_groups(self):
        kernel = make_kernel(NimblePolicy())
        kernel.thp.pages_per_compound = 8
        lru = kernel.policy.lru
        lru.free_watermark_frac = 1.0  # always demote cold app pages
        frames = kernel.alloc_app_pages(8, huge=True)
        lru.scan()
        lru.scan()
        lru.scan()
        tiers = {f.tier_name for f in frames}
        assert tiers == {"slow"}  # all or nothing

    def test_hot_member_pins_group(self):
        kernel = make_kernel(NimblePolicy())
        kernel.thp.pages_per_compound = 8
        lru = kernel.policy.lru
        lru.free_watermark_frac = 1.0
        frames = kernel.alloc_app_pages(8, huge=True)
        for _ in range(4):
            kernel.access_frame(frames[3], 64)  # one hot member
            lru.scan()
        # The hot member keeps the whole THP in fast memory.
        assert {f.tier_name for f in frames} == {"fast"}


class TestTHPHypothesis:
    """§5: "KLOCs should provide higher performance gains with THP". Back
    the Redis heap with 2MB compound pages and compare KLOCs throughput
    and migration-remap cost against 4KB pages."""

    OPS = 12_000

    def _run(self, huge):
        from repro.experiments.defaults import SCALE_FACTOR, seed
        from repro.experiments.runner import make_workload
        from repro.platforms.twotier import build_two_tier_kernel

        kernel, _ = build_two_tier_kernel(
            "klocs", scale_factor=SCALE_FACTOR, seed=seed()
        )
        if huge:
            kernel.thp.pages_per_compound = 64  # 2MB scaled like everything else
            original = kernel.alloc_app_pages

            def huge_alloc(npages, *, cpu=0, huge=True):
                return original(npages, cpu=cpu, huge=True)

            kernel.alloc_app_pages = huge_alloc
        workload = make_workload(kernel, "redis")
        workload.setup()
        kernel.reset_reference_counters()
        result = workload.run(self.OPS)
        stats = {
            "throughput": result.throughput_ops_per_sec,
            "compounds": kernel.thp.compound_count(),
            "migrations": kernel.engine.total_moved,
            "migration_cost_ns": kernel.engine.total_cost_ns,
        }
        workload.teardown()
        return stats

    def test_thp_hypothesis(self):
        base = self._run(huge=False)
        thp = self._run(huge=True)
        assert thp["compounds"] > 0
        # Finding (recorded in EXPERIMENTS.md): under our fast-capacity
        # pressure, THP backing costs ~25% throughput — huge-page pollution
        # (one hot member pins 2MB) outweighs the remap savings. The paper
        # hedged exactly this way: "this hypothesis needs to be tested in
        # future studies."
        assert thp["throughput"] > base["throughput"] * 0.6
        # The mechanism the hypothesis rests on does hold: remap cost per
        # migrated page collapses with compound migration.
        assert thp["migrations"] and base["migrations"]
        per_page_base = base["migration_cost_ns"] / base["migrations"]
        per_page_thp = thp["migration_cost_ns"] / thp["migrations"]
        assert per_page_thp < per_page_base * 0.7
