"""Failure injection and adversarial-condition tests.

The simulator's error paths must fail loudly and leave state consistent:
exhausted memory, destination-full migrations, reclaim with nothing to
reclaim, daemons firing during teardown, and workload abuse of the
syscall surface.
"""

import pytest

from repro.core.config import (
    MigrationSpec,
    fast_dram_spec,
    slow_dram_spec,
    two_tier_platform_spec,
)
from repro.core.errors import AllocationError, NetworkError, SimulationError, VFSError
from repro.core.objtypes import KernelObjectType
from repro.core.units import KB, MB, PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.mem.frame import PageOwner
from repro.mem.migration import MigrationEngine
from repro.mem.topology import MemoryTopology
from repro.policies import KlocsPolicy, NaivePolicy


def tiny_kernel(policy=None, fast_kb=64, slow_kb=256, **kwargs):
    spec = two_tier_platform_spec(
        fast_capacity_bytes=fast_kb * KB, slow_capacity_bytes=slow_kb * KB
    )
    return Kernel(spec, policy or NaivePolicy(), seed=5, **kwargs)


class TestMemoryExhaustion:
    def test_exhaustion_with_unreclaimable_memory_raises(self):
        kernel = tiny_kernel()
        with pytest.raises(AllocationError):
            kernel.alloc_app_pages(10_000)
        kernel.topology.check_invariants()

    def test_exhaustion_reclaims_page_cache_first(self):
        kernel = tiny_kernel(page_cache_max_pages=10_000)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 200 * KB)  # page cache fills most memory
        # This allocation only fits if reclaim evicts cache pages.
        frames = kernel.alloc_app_pages(20)
        assert len(frames) == 20
        kernel.topology.check_invariants()

    def test_partial_spill_is_not_a_failure(self):
        kernel = tiny_kernel()
        frames = kernel.alloc_app_pages(40)  # exceeds the 16-page fast tier
        tiers = {f.tier_name for f in frames}
        assert tiers == {"fast", "slow"}


class TestMigrationEdges:
    def test_migration_to_full_destination_moves_what_fits(self):
        topo = MemoryTopology(
            [
                fast_dram_spec(capacity_bytes=16 * PAGE_SIZE),
                slow_dram_spec(capacity_bytes=64 * PAGE_SIZE),
            ]
        )
        engine = MigrationEngine(topo, MigrationSpec())
        topo.allocate(14, ["fast"], PageOwner.APP)
        slow_frames = topo.allocate(10, ["slow"], PageOwner.PAGE_CACHE)
        result = engine.migrate(slow_frames, "fast")
        assert result.moved == 2
        topo.check_invariants()

    def test_migrating_empty_batch(self):
        topo = MemoryTopology([fast_dram_spec(capacity_bytes=4 * PAGE_SIZE)])
        engine = MigrationEngine(topo)
        result = engine.migrate([], "fast")
        assert result.moved == 0 and result.cost_ns == 0

    def test_daemon_on_torn_down_workload_is_safe(self):
        kernel = tiny_kernel(KlocsPolicy())
        kernel.start()
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 8 * KB)
        kernel.fs.close(fh)
        kernel.fs.unlink("/f")
        # Daemon fires after everything is gone: must not blow up.
        kernel.kloc_daemon.run()
        kernel.kloc_daemon.run()
        kernel.topology.check_invariants()


class TestVFSAbuse:
    def test_interleaved_handles_same_inode(self):
        kernel = tiny_kernel(page_cache_max_pages=64)
        a = kernel.fs.create("/f")
        b = kernel.fs.open("/f")
        kernel.fs.write(a, 0, 4 * KB)
        assert kernel.fs.read(b, 0, 4 * KB) == 4 * KB
        kernel.fs.close(a)
        assert b.inode.is_open  # still held by b
        kernel.fs.close(b)
        assert not b.inode.is_open

    def test_write_read_write_offsets_disjoint(self):
        kernel = tiny_kernel(page_cache_max_pages=128)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 100 * PAGE_SIZE, PAGE_SIZE)  # sparse write
        assert fh.inode.size_bytes == 101 * PAGE_SIZE
        assert kernel.fs.read(fh, 0, PAGE_SIZE) == PAGE_SIZE  # hole read

    def test_reuse_path_after_unlink(self):
        kernel = tiny_kernel()
        fh = kernel.fs.create("/f")
        kernel.fs.close(fh)
        kernel.fs.unlink("/f")
        fh2 = kernel.fs.create("/f")
        assert fh2.inode.ino != fh.inode.ino

    def test_unlink_while_open_then_retry(self):
        kernel = tiny_kernel()
        fh = kernel.fs.create("/f")
        with pytest.raises(VFSError):
            kernel.fs.unlink("/f")
        kernel.fs.close(fh)
        kernel.fs.unlink("/f")


class TestNetworkAbuse:
    def test_burst_beyond_ring_capacity(self):
        kernel = tiny_kernel(fast_kb=1024, slow_kb=8192)
        sock = kernel.net.socket(80)
        # Deliver far more packets than the rx ring holds: the driver
        # must keep replenishing rather than wedging.
        kernel.net.deliver(80, 400 * 1500)
        assert sock.rx_backlog == 400
        assert kernel.net.recv(sock) == 400 * 1500
        kernel.net.close(sock)
        kernel.net.driver.drain_ring()
        kernel.topology.check_invariants()

    def test_close_with_backlog_frees_buffers(self):
        kernel = tiny_kernel(fast_kb=512, slow_kb=2048)
        sock = kernel.net.socket(80)
        kernel.net.deliver(80, 20 * 1500)
        live_before = kernel.topology.live_pages()
        kernel.net.close(sock)
        assert kernel.topology.live_pages() < live_before

    def test_deliver_to_closed_socket_rejected(self):
        kernel = tiny_kernel(fast_kb=512, slow_kb=2048)
        sock = kernel.net.socket(80)
        kernel.net.close(sock)
        with pytest.raises(NetworkError):
            kernel.net.deliver(80, 100)


class TestDeterminismUnderConcurrentDaemons:
    def test_same_seed_same_final_state(self):
        def run():
            kernel = tiny_kernel(KlocsPolicy(), fast_kb=256, slow_kb=1024)
            kernel.start()
            fh = kernel.fs.create("/f")
            for i in range(30):
                kernel.fs.write(fh, i * 4 * KB, 4 * KB)
                kernel.fs.read(fh, (i // 2) * 4 * KB, 2 * KB)
            kernel.fs.fsync(fh)
            kernel.fs.close(fh)
            return (
                kernel.clock.now(),
                kernel.topology.live_pages(),
                kernel.kernel_refs,
                kernel.topology.migrations_between("fast", "slow"),
            )

        assert run() == run()
