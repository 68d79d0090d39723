"""Tests for the Kernel facade: wiring, routing, accounting."""

import pytest

from repro.core.config import two_tier_platform_spec
from repro.core.errors import SimulationError
from repro.core.objtypes import AllocatorKind, KernelObjectType
from repro.core.units import MB, PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.kloc.registry import KlocRegistry
from repro.mem.frame import PageOwner
from repro.metrics.references import reference_report
from repro.policies import (
    OPTANE_POLICIES,
    TWO_TIER_POLICIES,
    AllSlowMem,
    KlocsPolicy,
    NaivePolicy,
    NimblePolicy,
    NumaKlocsPolicy,
)


def make_kernel(policy=None, **kwargs):
    spec = two_tier_platform_spec(fast_capacity_bytes=4 * MB, slow_capacity_bytes=40 * MB)
    return Kernel(spec, policy or NaivePolicy(), seed=3, **kwargs)


class TestWiring:
    def test_policy_attached(self):
        kernel = make_kernel()
        assert kernel.policy.kernel is kernel

    def test_kloc_machinery_only_for_kloc_policies(self):
        assert make_kernel(NaivePolicy()).kloc_manager is None
        assert make_kernel(KlocsPolicy()).kloc_manager is not None
        assert make_kernel(KlocsPolicy()).kloc_daemon is not None

    def test_early_demux_follows_policy(self):
        assert make_kernel(NaivePolicy()).net.driver.early_demux is False
        assert make_kernel(KlocsPolicy()).net.driver.early_demux is True

    def test_numa_mode_builds_nodes(self):
        from repro.platforms.optane import optane_platform_spec

        spec = optane_platform_spec(scale_factor=4096)
        kernel = Kernel(spec, NumaKlocsPolicy(), seed=1)
        assert set(kernel.nodes) == {"node0", "node1"}
        assert kernel.nodes["node0"].hw_cache is not None

    def test_set_task_node_requires_numa(self):
        kernel = make_kernel()
        with pytest.raises(SimulationError):
            kernel.set_task_node(1)


class TestObjectRouting:
    def test_slab_types_use_slab_allocator_without_kloc(self):
        kernel = make_kernel(NaivePolicy())
        obj = kernel.alloc_object(KernelObjectType.DENTRY)
        assert obj.allocator == "slab"
        assert not obj.frame.relocatable

    def test_covered_slab_types_use_kloc_interface(self):
        kernel = make_kernel(KlocsPolicy())
        fh = kernel.fs.create("/f")
        obj = kernel.alloc_object(KernelObjectType.DENTRY, fh.inode)
        assert obj.allocator == "kloc"
        assert obj.frame.relocatable
        assert obj.knode_id == fh.inode.knode_id

    def test_uncovered_types_fall_back_to_slab(self):
        kernel = make_kernel(KlocsPolicy(), registry=KlocRegistry.none())
        fh = kernel.fs.create("/f")
        obj = kernel.alloc_object(KernelObjectType.DENTRY, fh.inode)
        assert obj.allocator == "slab"
        assert obj.knode_id is None

    def test_page_types_use_page_allocator(self):
        kernel = make_kernel(KlocsPolicy())
        fh = kernel.fs.create("/f")
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE, fh.inode)
        assert obj.allocator == "page"

    def test_all_slow_places_everything_slow(self):
        kernel = make_kernel(AllSlowMem())
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        frames = kernel.alloc_app_pages(2)
        assert obj.frame.tier_name == "slow"
        assert all(f.tier_name == "slow" for f in frames)

    def test_free_object_routes_by_allocator(self):
        kernel = make_kernel(KlocsPolicy())
        fh = kernel.fs.create("/f")
        for otype in (KernelObjectType.DENTRY, KernelObjectType.PAGE_CACHE):
            obj = kernel.alloc_object(otype, fh.inode)
            kernel.free_object(obj)
            assert not obj.live


def _if_chain(kernel, otype, covered):
    """The allocator the kernel's original per-call ``if`` chain chose."""
    if otype.allocator is AllocatorKind.SLAB:
        if covered:
            return kernel.kloc_alloc.alloc
        return kernel.slab.alloc
    return kernel.page_alloc.alloc_object


def _registered_kernels():
    from repro.platforms.optane import optane_platform_spec

    for name, cls in sorted(TWO_TIER_POLICIES.items()):
        yield f"two_tier/{name}", lambda cls=cls: make_kernel(cls())
    for name, cls in sorted(OPTANE_POLICIES.items()):
        yield f"optane/{name}", lambda cls=cls: Kernel(
            optane_platform_spec(scale_factor=4096), cls(), seed=1
        )


class TestRouteTable:
    @pytest.mark.parametrize(
        "build", [b for _n, b in _registered_kernels()],
        ids=[n for n, _b in _registered_kernels()],
    )
    def test_route_matches_if_chain(self, build):
        kernel = build()
        for otype in KernelObjectType:
            for covered in (False, True):
                assert kernel._alloc_route[covered][otype] == _if_chain(
                    kernel, otype, covered
                ), (otype, covered)
        assert kernel._free_route == {
            "slab": kernel.slab.free,
            "kloc": kernel.kloc_alloc.free,
            "page": kernel.page_alloc.free_object,
        }

    @pytest.mark.parametrize("covered", [False, True])
    def test_alloc_object_follows_route(self, covered):
        registry = KlocRegistry() if covered else KlocRegistry.none()
        kernel = make_kernel(KlocsPolicy(), registry=registry)
        fh = kernel.fs.create("/f")
        for otype in KernelObjectType:
            obj = kernel.alloc_object(otype, fh.inode)
            assert obj.allocator == _if_chain(kernel, otype, covered).__self__.family
            kernel.free_object(obj)
            assert not obj.live

    def test_coverage_is_read_per_call(self):
        registry = KlocRegistry.none()
        kernel = make_kernel(KlocsPolicy(), registry=registry)
        fh = kernel.fs.create("/f")
        registry.enable(KernelObjectType.DENTRY)
        assert kernel.alloc_object(KernelObjectType.DENTRY, fh.inode).allocator == "kloc"
        registry.disable(KernelObjectType.DENTRY)
        assert kernel.alloc_object(KernelObjectType.DENTRY, fh.inode).allocator == "slab"


class TestAccounting:
    def test_reference_attribution(self):
        kernel = make_kernel()
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        app = kernel.alloc_app_pages(1)[0]
        kernel.access_object(obj, 100)
        kernel.access_frame(app, 100)
        report = reference_report(kernel)
        assert (report.kernel_refs, report.kernel_bytes) == (1, 100)
        assert (report.app_refs, report.app_bytes) == (1, 100)
        assert report.kernel_fraction() == pytest.approx(0.5)

    def test_access_freed_object_rejected(self):
        kernel = make_kernel()
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        kernel.free_object(obj)
        with pytest.raises(SimulationError):
            kernel.access_object(obj)

    def test_fast_ref_fraction(self):
        kernel = make_kernel(NaivePolicy())
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        kernel.access_object(obj)
        assert kernel.fast_ref_fraction() == 1.0

    def test_reset_reference_counters(self):
        kernel = make_kernel()
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        kernel.access_object(obj)
        kernel.reset_reference_counters()
        assert reference_report(kernel).total_refs == 0
        assert kernel.fast_ref_fraction() == 0.0

    def test_reset_clears_time_decomposition(self):
        """The access-time split must cover the same window as the
        reference split — resetting one but not the other silently mixed
        load-phase time into steady-state reports."""
        kernel = make_kernel()
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        kernel.access_object(obj)
        assert kernel.access_ns_by  # the access was attributed
        kernel.reset_reference_counters()
        assert kernel.access_ns_by == {}

    def test_background_work_amortized(self):
        kernel = make_kernel()
        before = kernel.clock.now()
        kernel.background_cpu_work(16_000)
        assert kernel.clock.now() - before == 16_000 // kernel.num_cpus

    def test_storage_background_cheaper(self):
        kernel = make_kernel()
        fg = kernel.storage_io(1 << 20, write=False, sequential=True)
        bg = kernel.storage_io(1 << 20, write=False, sequential=True, background=True)
        assert bg < fg


class TestPressure:
    def test_emergency_reclaim_on_exhaustion(self):
        spec = two_tier_platform_spec(
            fast_capacity_bytes=1 * MB, slow_capacity_bytes=2 * MB
        )
        kernel = Kernel(spec, NaivePolicy(), seed=3, page_cache_max_pages=10_000)
        fh = kernel.fs.create("/big")
        # Write more than total memory (3 MB): reclaim must kick in, not
        # crash.
        kernel.fs.write(fh, 0, 4 * MB)
        kernel.topology.check_invariants()
        assert kernel.fs.cache_mgr.total_pages <= kernel.topology.live_pages()
        # The cap is never reached, so every eviction was direct reclaim.
        assert kernel.fs.cache_mgr.evicted > 0


class TestLifecycleHooks:
    def test_fs_create_builds_knode(self):
        kernel = make_kernel(KlocsPolicy())
        fh = kernel.fs.create("/f")
        assert fh.inode.knode_id is not None
        knode = kernel.kloc_manager.kmap.lookup(fh.inode.knode_id)
        assert knode.inuse

    def test_close_marks_pending_cold(self):
        kernel = make_kernel(KlocsPolicy())
        fh = kernel.fs.create("/f")
        knode_id = fh.inode.knode_id
        kernel.fs.close(fh)
        assert knode_id in kernel.kloc_daemon.pending

    def test_unlink_unmarks_and_deletes(self):
        kernel = make_kernel(KlocsPolicy())
        fh = kernel.fs.create("/f")
        knode_id = fh.inode.knode_id
        kernel.fs.close(fh)
        kernel.fs.unlink("/f")
        assert knode_id not in kernel.kloc_daemon.pending
        assert kernel.kloc_manager.kmap.lookup(knode_id) is None
