"""Tests for the KLOC migration daemon and the Table 2 API."""

import pytest

from repro.core.config import KLOCSpec, MigrationSpec
from repro.core.errors import ConfigError
from repro.core.objtypes import KernelObjectType
from repro.alloc.kloc_alloc import KlocAllocator
from repro.core.sanitize import Sanitizer
from repro.kloc.api import KlocAPI
from repro.kloc.knode import Knode
from repro.kloc.manager import KlocManager
from repro.kloc.migrationd import KlocMigrationDaemon
from repro.mem.migration import MigrationEngine
from repro.vfs.inode import Inode
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel(fast_bytes=1024 * 1024, slow_bytes=8 * 1024 * 1024)


@pytest.fixture
def manager(kernel):
    return KlocManager(kernel.clock, num_cpus=4)


def make_daemon(kernel, manager, kalloc=None):
    """A daemon over its own engine; batch costs land in ``daemon.charged``."""
    engine = MigrationEngine(kernel.topology, MigrationSpec())
    charged = []
    daemon = KlocMigrationDaemon(
        manager,
        engine,
        kernel.topology,
        kloc_allocator=kalloc or KlocAllocator(kernel.topology, kernel.clock),
        background_charge=charged.append,
    )
    daemon.charged = charged
    # The daemon reclaims only under memory pressure; tests exercise its
    # mechanics directly, so treat fast memory as permanently pressured.
    daemon.free_target_frac = 1.0
    return daemon


@pytest.fixture
def daemon(kernel, manager):
    manager.spec = KLOCSpec(cold_age_rounds=2)
    return make_daemon(kernel, manager)


def open_file_with_pages(kernel, manager, ino, npages):
    inode = Inode(ino)
    manager.create_knode(inode)
    inode.open()
    manager.open_knode(inode)
    objs = []
    for _ in range(npages):
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        manager.add_object(inode, obj)
        objs.append(obj)
    return inode, objs


class TestDowngrade:
    def test_closed_knode_downgraded_en_masse(self, kernel, manager, daemon):
        inode, objs = open_file_with_pages(kernel, manager, 1, 10)
        assert all(o.frame.tier_name == "fast" for o in objs)
        inode.close()
        manager.close_knode(inode)
        stats = daemon.run()
        assert stats["downgraded"] == 10
        assert all(o.frame.tier_name == "slow" for o in objs)
        # The batch's cost goes to background work, all of it.
        assert daemon.charged and sum(daemon.charged) == daemon.engine.total_cost_ns

    def test_open_hot_knode_not_downgraded(self, kernel, manager, daemon):
        _inode, objs = open_file_with_pages(kernel, manager, 1, 4)
        daemon.run()
        assert all(o.frame.tier_name == "fast" for o in objs)

    def test_open_aged_knode_downgraded(self, kernel, manager, daemon):
        inode, objs = open_file_with_pages(kernel, manager, 1, 4)
        knode = manager.knode_for_inode(inode)
        # Three daemon rounds with no accesses: age crosses threshold 2.
        for _ in range(3):
            kernel.clock.advance(1)
            daemon.run()
        assert knode.age >= 2
        assert all(o.frame.tier_name == "slow" for o in objs)

    def test_kloc_allocator_pages_ride_along(self, kernel, manager):
        """Small objects from the KLOC interface migrate with the knode."""
        kalloc = KlocAllocator(kernel.topology, kernel.clock)
        daemon = make_daemon(kernel, manager, kalloc)
        inode = Inode(1)
        knode = manager.create_knode(inode)
        for _ in range(10):
            obj = kalloc.alloc(
                KernelObjectType.DENTRY, ["fast"], knode_id=knode.knode_id
            )
            manager.add_object(inode, obj)
        # knode never opened → inactive → cold.
        stats = daemon.run()
        assert stats["downgraded"] >= 1
        assert all(f.tier_name == "slow" for f in kalloc.knode_frames(knode.knode_id))


class TestUpgrade:
    def test_active_knode_pulled_back_to_fast(self, kernel, manager, daemon):
        inode, objs = open_file_with_pages(kernel, manager, 1, 6)
        inode.close()
        manager.close_knode(inode)
        daemon.run()  # downgrade
        assert all(o.frame.tier_name == "slow" for o in objs)
        inode.open()
        manager.open_knode(inode)
        manager.note_access(objs[0])
        daemon.run()
        assert all(o.frame.tier_name == "fast" for o in objs)
        assert daemon.upgraded_pages == 6

    def test_capacity_cap_respected(self, kernel, manager):
        KlocAPI(manager).sys_kloc_memsize("fast", 0.01)
        capped = make_daemon(kernel, manager)
        inode, objs = open_file_with_pages(kernel, manager, 1, 6)
        inode.close()
        manager.close_knode(inode)
        capped.run()
        inode.open()
        manager.open_knode(inode)
        cap_pages = int(kernel.topology.tier("fast").capacity_pages * 0.01)
        capped.run()
        assert kernel.topology.tier("fast").used_pages <= cap_pages

    def test_migration_mix_reporting(self, kernel, manager, daemon):
        inode, objs = open_file_with_pages(kernel, manager, 1, 10)
        inode.close()
        manager.close_knode(inode)
        daemon.run()
        mix = daemon.migration_mix()
        assert mix["downgrade"] == 1.0
        assert mix["upgrade"] == 0.0


class TestDaemonScheduling:
    def test_start_registers_periodic(self, kernel, manager, daemon):
        daemon.start()
        daemon.start()  # idempotent
        kernel.clock.advance(manager.spec.migrate_period_ns + 1)
        assert daemon.runs >= 1

    def test_empty_run(self, daemon):
        stats = daemon.run()
        assert stats == {"downgraded": 0, "upgraded": 0}
        assert daemon.migration_mix() == {"downgrade": 0.0, "upgrade": 0.0}


class TestKlocAPI:
    def test_sys_enable_kloc(self, manager):
        api = KlocAPI(manager)
        assert api.sys_enable_kloc("rocksdb") is True
        assert api.sys_enable_kloc("rocksdb") is False
        with pytest.raises(ConfigError):
            api.sys_enable_kloc("")

    def test_sys_kloc_memsize(self, manager):
        api = KlocAPI(manager)
        api.sys_kloc_memsize("fast", 0.5)
        assert manager.spec.fast_capacity_fraction == 0.5
        with pytest.raises(ConfigError):
            api.sys_kloc_memsize("slow", 0.5)
        with pytest.raises(ConfigError):
            api.sys_kloc_memsize("fast", 0.0)

    def test_map_and_add(self, kernel, manager):
        api = KlocAPI(manager)
        inode = Inode(10)
        knode = api.map_knode(inode)
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        api.knode_add_obj(knode, obj)
        assert list(api.itr_knode_cache(knode)) == [obj]
        assert list(api.itr_knode_slab(knode)) == []

    def test_knode_add_obj_samples_metadata_peak(self, kernel, manager):
        api = KlocAPI(manager)
        knode = api.map_knode(Inode(10))
        for _ in range(5):
            api.knode_add_obj(knode, kernel.alloc_object(KernelObjectType.PAGE_CACHE))
        # 64B knode + 24B per-CPU entry + 5 x 8B rb-tree pointers.
        assert manager.metadata_bytes() == 128
        assert manager.peak_metadata_bytes == 128

    def test_add_to_kmap_registers_the_knode(self, kernel):
        manager = KlocManager(kernel.clock, num_cpus=4, sanitizer=Sanitizer())
        api = KlocAPI(manager)
        api.add_to_kmap(Knode(7, ino=99))
        # The kmap population matches knodes_created: no counter drift.
        manager.verify_counters()
        assert manager.knodes_created == 1
        assert manager.peak_metadata_bytes == manager.metadata_bytes() == 64
        # Later knodes are numbered above the registered one.
        assert api.map_knode(Inode(10)).knode_id == 8

    def test_get_lru_and_find_cpu(self, kernel, manager):
        api = KlocAPI(manager)
        inode = Inode(10)
        knode = api.map_knode(inode, cpu=3)
        assert knode in api.get_lru_knodes()
        assert api.find_cpu(knode) == 3
