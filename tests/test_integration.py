"""Whole-system integration tests: the public API, end to end.

Small versions of what the experiments do at scale, so `pytest tests/`
alone demonstrates every moving part working together.
"""

import pytest

from repro.core.units import KB
from repro.experiments.runner import make_workload, run_two_tier
from repro.kloc.api import KlocAPI
from repro.platforms.optane import build_optane_kernel
from repro.platforms.twotier import build_two_tier_kernel
from repro.workloads.interference import StreamingInterferer

SCALE = 4096  # small enough for test time, big enough for dynamics


class TestTwoTierEndToEnd:
    def test_klocs_beats_all_slow_on_rocksdb(self):
        klocs = run_two_tier("rocksdb", "klocs", ops=1500, scale_factor=SCALE)
        slow = run_two_tier("rocksdb", "all_slow", ops=1500, scale_factor=SCALE)
        assert klocs.throughput > slow.throughput

    def test_all_fast_is_the_ceiling(self):
        fast = run_two_tier("redis", "all_fast", ops=1000, scale_factor=SCALE)
        klocs = run_two_tier("redis", "klocs", ops=1000, scale_factor=SCALE)
        assert fast.throughput >= klocs.throughput * 0.95

    def test_klocs_run_produces_kloc_activity(self):
        kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE)
        wl = make_workload(kernel, "rocksdb", scale_factor=SCALE)
        wl.setup()
        wl.run(1500)
        manager = kernel.kloc_manager
        assert manager.knodes_created > 10
        assert manager.percpu.fast_hits > 0
        assert kernel.kloc_daemon.runs > 0
        # Downgrades dominate migrations (§4.4's 88%).
        daemon = kernel.kloc_daemon
        if daemon.downgraded_pages + daemon.upgraded_pages > 50:
            assert daemon.migration_mix()["downgrade"] > 0.5
        wl.teardown()
        kernel.topology.check_invariants()


class TestTable2APIEndToEnd:
    def test_full_api_surface(self):
        kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE)
        api = KlocAPI(kernel.kloc_manager)
        assert api.sys_enable_kloc("demo")
        api.sys_kloc_memsize("fast", 0.4)

        fh = kernel.fs.create("/api-demo")
        kernel.fs.write(fh, 0, 32 * KB)
        knode = kernel.kloc_manager.knode_for_inode(fh.inode)
        assert knode is not None
        assert sum(1 for _ in api.itr_knode_cache(knode)) >= 8
        assert sum(1 for _ in api.itr_knode_slab(knode)) >= 1
        assert api.find_cpu(knode) is not None
        assert knode in api.get_lru_knodes(limit=100)
        kernel.fs.close(fh)
        kernel.fs.unlink("/api-demo")
        assert kernel.kloc_manager.kmap.lookup(knode.knode_id) is None


class TestOptaneEndToEnd:
    def test_interference_and_recovery(self):
        kernel, policy = build_optane_kernel("klocs", scale_factor=SCALE)
        wl = make_workload(kernel, "redis", scale_factor=SCALE)
        wl.setup()
        wl.run(400)
        node0 = kernel.topology.tier("node0")
        assert node0.used_pages > 0  # everything starts local

        interferer = StreamingInterferer(kernel, "node0", streams=2)
        interferer.start()
        assert node0.contention_streams == 2
        kernel.set_task_node(1)
        wl.run(1200)
        # KLOCs moved kernel objects toward the new home socket.
        assert policy.migrated_kernel > 0
        interferer.stop()
        assert node0.contention_streams == 0
        wl.teardown()
        kernel.topology.check_invariants()

    def test_klocs_beats_stranded_baseline(self):
        def throughput(policy_name):
            kernel, _ = build_optane_kernel(policy_name, scale_factor=SCALE)
            wl = make_workload(kernel, "redis", scale_factor=SCALE)
            wl.setup()
            wl.run(300)
            interferer = StreamingInterferer(kernel, "node0", streams=3)
            interferer.start()
            kernel.set_task_node(1)
            result = wl.run(900)
            interferer.stop()
            wl.teardown()
            return result.throughput_ops_per_sec

        assert throughput("klocs") > throughput("all_remote")


class TestCrossPolicyConsistency:
    @pytest.mark.parametrize("policy", ["naive", "nimble", "nimble++", "klocs"])
    def test_no_leaks_under_any_policy(self, policy):
        kernel, _ = build_two_tier_kernel(policy, scale_factor=SCALE)
        wl = make_workload(kernel, "redis", scale_factor=SCALE)
        wl.setup()
        wl.run(400)
        wl.teardown()
        kernel.net.driver.drain_ring()
        kernel.topology.check_invariants()
        # Only the filesystem's page cache and journal should remain.
        from repro.mem.frame import PageOwner

        assert kernel.topology.live_pages_by_owner(PageOwner.APP) == 0
        assert kernel.topology.live_pages_by_owner(PageOwner.SOCKBUF) == 0
