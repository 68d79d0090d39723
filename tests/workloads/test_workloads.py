"""Tests for the workload models: signatures, phases, and invariants.

These use a large scale factor (small datasets) so each test runs in
well under a second; the behavioural assertions are scale-independent.
"""

import pytest

from repro.core.config import two_tier_platform_spec
from repro.core.errors import ConfigError
from repro.core.units import GB, MB
from repro.kernel.kernel import Kernel
from repro.mem.frame import PageOwner
from repro.metrics.references import reference_report
from repro.policies import NaivePolicy
from repro.workloads import WORKLOADS
from repro.workloads.base import WorkloadConfig

SCALE = 8192  # tiny datasets for unit tests


def make_kernel():
    spec = two_tier_platform_spec(
        fast_capacity_bytes=8 * GB // SCALE * 4,  # roomy: behavior tests only
        slow_capacity_bytes=80 * GB // SCALE * 4,
    )
    kernel = Kernel(spec, NaivePolicy(), seed=11)
    kernel.start()
    return kernel


def make(name, kernel=None):
    kernel = kernel or make_kernel()
    cls = WORKLOADS[name]
    probe = cls(kernel, None).config
    cfg = type(probe)(
        name=probe.name,
        dataset_bytes=probe.dataset_bytes,
        scale_factor=SCALE,
        num_threads=probe.num_threads,
        value_bytes=probe.value_bytes,
        extra=probe.extra,
    )
    return kernel, cls(kernel, cfg)


class TestConfig:
    def test_scaling(self):
        cfg = WorkloadConfig(name="x", dataset_bytes=40 * GB, scale_factor=1024)
        assert cfg.sim_dataset_bytes == 40 * MB
        assert cfg.scaled(8 * GB) == 8 * MB

    def test_small_variant(self):
        cfg = WorkloadConfig(name="x", dataset_bytes=40 * GB)
        assert cfg.small().dataset_bytes == 10 * GB

    def test_invalid(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(name="x", scale_factor=0)
        with pytest.raises(ConfigError):
            WorkloadConfig(name="x", dataset_bytes=0)


class TestRegistry:
    def test_all_five_present(self):
        assert set(WORKLOADS) == {
            "rocksdb", "redis", "filebench", "cassandra", "spark"
        }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_runs_and_teardown_clean(self, name):
        kernel, wl = make(name)
        result = wl.run(60)
        assert result.ops == 60
        assert result.elapsed_ns > 0
        assert result.throughput_ops_per_sec > 0
        wl.teardown()
        kernel.topology.check_invariants()

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic(self, name):
        _, wl1 = make(name)
        _, wl2 = make(name)
        r1 = wl1.run(40)
        r2 = wl2.run(40)
        assert r1.elapsed_ns == r2.elapsed_ns

    def test_invalid_ops(self):
        _, wl = make("rocksdb")
        with pytest.raises(ConfigError):
            wl.run(0)


class TestRocksDB:
    def test_lsm_churn(self):
        kernel, wl = make("rocksdb")
        wl.run(800)
        assert wl.flushes > 0
        assert wl.sys.counts.get("creat", 0) > 0
        # Compaction deletes files.
        if wl.compactions:
            assert wl.sys.counts.get("unlink", 0) >= wl.compactions

    def test_kernel_object_mix(self):
        kernel, wl = make("rocksdb")
        wl.run(400)
        alloc = kernel.topology.alloc_count
        owners = {owner for (_t, owner) in alloc}
        assert PageOwner.PAGE_CACHE in owners
        assert PageOwner.JOURNAL in owners
        assert PageOwner.SLAB in owners
        assert PageOwner.APP in owners


class TestRedis:
    def test_network_dominated(self):
        kernel, wl = make("redis")
        wl.run(300)
        assert kernel.net.tcp.ingress_packets >= 300
        assert kernel.topology.allocated_pages_by_owner(PageOwner.SOCKBUF) > 0

    def test_checkpoint_rotates_dumps(self):
        kernel, wl = make("redis")
        import repro.workloads.redis as R

        wl.run(R.OPS_PER_CHECKPOINT * 2 + 10)
        assert wl.checkpoints >= 2
        assert wl.sys.counts.get("unlink", 0) >= 1  # old dump deleted


class TestFilebench:
    def test_most_kernel_intensive(self):
        kernel, wl = make("filebench")
        wl.setup()
        kernel.reset_reference_counters()
        wl.run(300)
        assert reference_report(kernel).kernel_fraction() > 0.75  # paper: 86% in-OS time


class TestCassandra:
    def test_app_cache_absorbs_reads(self):
        kernel, wl = make("cassandra")
        wl.setup()
        kernel.reset_reference_counters()
        wl.run(300)
        # The heavy JVM/app-cache path keeps the kernel share low.
        assert reference_report(kernel).kernel_fraction() < 0.5

    def test_commitlog_appends(self):
        kernel, wl = make("cassandra")
        wl.run(300)
        assert wl.sys.counts.get("write", 0) > 0


class TestSpark:
    def test_phase_machine_completes(self):
        kernel, wl = make("spark")
        wl.setup()
        wl.run(wl.ops_to_complete() + 5)
        assert wl.done
        assert len(wl._outputs) > 0
        # Inputs and spills were deleted (checkpoint-and-delete).
        assert wl.sys.counts.get("unlink", 0) >= 2 * len(wl._outputs)

    def test_phases_in_order(self):
        _, wl = make("spark")
        wl.setup()
        assert wl.phase == "generate"
        wl.run(wl._total_chunks)
        assert wl.phase == "shuffle"


class TestReferenceCalibration:
    """Fig 2c's bands, asserted loosely at tiny scale."""

    def test_filebench_most_kernel_intensive(self):
        """Fig 2c's extreme: Filebench is overwhelmingly in-kernel; the
        cache-heavy JVM workload is the least. (The full RocksDB/Redis
        bands are checked at experiment scale by ``fig2c --verdict`` —
        tiny unit-test datasets compress the middle of the ordering.)"""
        fractions = {}
        for name in ("filebench", "cassandra"):
            kernel, wl = make(name)
            wl.setup()
            kernel.reset_reference_counters()
            wl.run(300)
            fractions[name] = reference_report(kernel).kernel_fraction()
        assert fractions["filebench"] > 0.7
        assert fractions["cassandra"] < 0.5
        assert fractions["filebench"] > fractions["cassandra"]
