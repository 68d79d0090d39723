"""Tests for the fsck-style consistency checker and Filebench profiles."""

import pytest

from repro.core.errors import ConfigError, VFSError
from repro.core.units import KB, PAGE_SIZE
from repro.workloads import WORKLOADS
from repro.workloads.base import WorkloadConfig
from tests.fakes import FakeKernel
from tests.workloads.test_workloads import SCALE, make_kernel
from repro.vfs.filesystem import Filesystem


@pytest.fixture
def fs():
    kernel = FakeKernel(fast_bytes=8 * 1024 * 1024, slow_bytes=64 * 1024 * 1024)
    return Filesystem(kernel, page_cache_max_pages=4096)


class TestConsistencyChecker:
    def test_clean_fs_passes(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 8 * PAGE_SIZE)
        fs.read(fh, 0, 4 * PAGE_SIZE)
        fs.check_consistency()
        fs.close(fh)
        fs.check_consistency()

    def test_detects_page_beyond_eof(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        fh.inode.size_bytes = PAGE_SIZE  # simulate a broken truncate
        with pytest.raises(VFSError):
            fs.check_consistency()

    def test_detects_freed_cached_page(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, PAGE_SIZE)
        page = fs.cache_mgr.cache_for(fh.inode.ino).tree.lookup(0)
        fs.ctx.free_object(page.obj)  # freed behind the cache's back
        with pytest.raises(VFSError):
            fs.check_consistency()

    def test_detects_lru_count_drift(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, PAGE_SIZE)
        page = fs.cache_mgr.cache_for(fh.inode.ino).tree.lookup(0)
        fs.cache_mgr.lru.remove(page)  # LRU and cache now disagree
        with pytest.raises(VFSError):
            fs.check_consistency()

    def test_detects_stale_handle(self, fs):
        fh = fs.create("/a")
        fh.inode.open_count = 0  # handle says open, inode says closed
        with pytest.raises(VFSError):
            fs.check_consistency()


def make_filebench(profile):
    kernel = make_kernel()
    cfg = WorkloadConfig(
        name="filebench",
        scale_factor=SCALE,
        num_threads=4,
        extra={"profile": profile},
    )
    return kernel, WORKLOADS["filebench"](kernel, cfg)


class TestFilebenchProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            make_filebench("mailserver")

    def test_varmail_churns_inodes(self):
        kernel, wl = make_filebench("varmail")
        wl.setup()
        creates_before = kernel.fs.ops["create"]
        wl.run(400)
        # Heavy namespace churn: creates, unlinks, and fsyncs all fire.
        assert kernel.fs.ops["create"] > creates_before + 50
        assert kernel.fs.ops["unlink"] > 20
        assert kernel.fs.ops["fsync"] > 50
        kernel.fs.check_consistency()
        wl.teardown()
        kernel.topology.check_invariants()

    def test_varmail_knode_churn_under_klocs(self):
        from repro.core.config import two_tier_platform_spec
        from repro.core.units import GB
        from repro.kernel.kernel import Kernel
        from repro.policies import KlocsPolicy

        spec = two_tier_platform_spec(
            fast_capacity_bytes=8 * GB // SCALE * 4,
            slow_capacity_bytes=80 * GB // SCALE * 4,
        )
        kernel = Kernel(spec, KlocsPolicy(), seed=11)
        kernel.start()
        cfg = WorkloadConfig(
            name="filebench", scale_factor=SCALE, num_threads=4,
            extra={"profile": "varmail"},
        )
        wl = WORKLOADS["filebench"](kernel, cfg)
        wl.run(400)
        manager = kernel.kloc_manager
        # Every mail file's lifecycle created and deleted knodes.
        assert manager.knodes_deleted > 20
        wl.teardown()

    def test_webserver_read_dominated(self):
        kernel, wl = make_filebench("webserver")
        wl.setup()
        kernel.reset_reference_counters()
        reads_before = kernel.fs.ops["read"]
        wl.run(300)
        assert kernel.fs.ops["read"] - reads_before == 300
        assert kernel.fs.ops["open"] >= 300  # open-read-close per hit
        kernel.fs.check_consistency()
        wl.teardown()

    def test_fileserver_unchanged_default(self):
        kernel, wl = make_filebench("fileserver")
        wl.run(100)
        assert wl.profile == "fileserver"
        assert wl._file_bytes > 0
        wl.teardown()
        kernel.topology.check_invariants()
