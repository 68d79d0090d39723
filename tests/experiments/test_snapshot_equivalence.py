"""Byte-identity of snapshot-restored runs vs. cold runs.

The snapshot store is a pure wall-clock optimization: restoring a
warmed kernel after ``setup()`` must put the simulation in *exactly*
the state a cold replay would have reached — same virtual clock, same
RNG stream positions, same allocator free lists, same KLOC counters.
These tests run every workload twice against an explicit store (cold →
snapshot, then restore → measure) and require sha256 equality over the
complete serialized payloads.

The result cache is disabled throughout (``REPRO_NO_CACHE=1``): the
second run must exercise the *restore* path, not be served a finished
payload from disk.

CI treats a *skip* of this module as a failure (the snap-bench job greps
pytest's skip report), so keep these tests unconditional.
"""

import hashlib
import json

import pytest

from repro.experiments.cache import run_to_payload
from repro.experiments.runner import run_optane_interference, run_two_tier
from repro.snapshot import SNAPSHOT_FORMAT, SnapshotStore, setup_key
from repro.workloads import WORKLOADS

TINY = 500


def sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cold_vs_restored(monkeypatch, tmp_path, **kwargs):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    store = SnapshotStore(tmp_path / "snapshots", enabled=True)
    cold = run_two_tier(snapshots=store, **kwargs)
    assert not cold.from_snapshot
    assert store.stores == 1
    restored = run_two_tier(snapshots=store, **kwargs)
    assert restored.from_snapshot
    assert store.hits == 1
    return run_to_payload(cold), run_to_payload(restored)


class TestTwoTierEquivalence:
    """Every workload, under the paper policy and one baseline."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_klocs(self, monkeypatch, tmp_path, workload):
        cold, restored = cold_vs_restored(
            monkeypatch, tmp_path, workload=workload, policy="klocs", ops=TINY
        )
        assert sha(cold) == sha(restored)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_baseline(self, monkeypatch, tmp_path, workload):
        cold, restored = cold_vs_restored(
            monkeypatch, tmp_path, workload=workload, policy="naive", ops=TINY
        )
        assert sha(cold) == sha(restored)

    def test_measure_setup_run(self, monkeypatch, tmp_path):
        """measure_setup keeps the load phase's counters; the restored
        kernel carries them byte-for-byte."""
        cold, restored = cold_vs_restored(
            monkeypatch,
            tmp_path,
            workload="rocksdb",
            policy="klocs",
            ops=TINY,
            measure_setup=True,
        )
        assert sha(cold) == sha(restored)


class TestOptaneEquivalence:
    def test_interference_run(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = SnapshotStore(tmp_path / "snapshots", enabled=True)
        cold = run_optane_interference(
            "cassandra", "klocs", TINY, snapshots=store
        )
        assert store.stores == 1
        restored = run_optane_interference(
            "cassandra", "klocs", TINY, snapshots=store
        )
        assert store.hits == 1
        assert cold == restored


class TestRobustness:
    """Bad snapshots degrade to cold setup, never to a crash."""

    def _snap_path(self, store):
        (path,) = list(store.root.glob("*.snap"))
        return path

    def test_corrupted_snapshot_falls_back_cold(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = SnapshotStore(tmp_path / "snapshots", enabled=True)
        cold = run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        self._snap_path(store).write_bytes(b"\x80\x04 this is not a snapshot")
        again = run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        assert not again.from_snapshot
        assert store.misses >= 1
        assert sha(run_to_payload(cold)) == sha(run_to_payload(again))

    def test_truncated_snapshot_falls_back_cold(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = SnapshotStore(tmp_path / "snapshots", enabled=True)
        run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        path = self._snap_path(store)
        path.write_bytes(path.read_bytes()[: 100])
        again = run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        assert not again.from_snapshot

    def test_stale_format_is_a_miss(self, monkeypatch, tmp_path):
        """A format bump invalidates old blobs even at the same path."""
        import repro.snapshot.state as state

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = SnapshotStore(tmp_path / "snapshots", enabled=True)
        run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        monkeypatch.setattr(state, "SNAPSHOT_FORMAT", str(int(SNAPSHOT_FORMAT) + 1))
        again = run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        assert not again.from_snapshot


class TestKnobs:
    def test_no_snapshot_env_disables_default_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SNAPSHOT", "1")
        store = SnapshotStore()
        assert not store.enabled
        assert store.load(
            setup_key(
                kind="two_tier",
                workload="rocksdb",
                policy="klocs",
                scale_factor=1024,
                seed=42,
            )
        ) is None

    def test_no_cache_env_disables_default_store(self, monkeypatch):
        """Benches that must time real runs (REPRO_NO_CACHE=1) must not
        be warm-started silently."""
        monkeypatch.delenv("REPRO_NO_SNAPSHOT", raising=False)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not SnapshotStore().enabled

    def test_sanitize_mode_restores_and_audits(self, monkeypatch, tmp_path):
        """REPRO_SANITIZE=1 runs restore sanitizer-equipped snapshots
        (the mode is part of the setup key) and still pass the
        teardown audit."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        store = SnapshotStore(tmp_path / "snapshots", enabled=True)
        cold = run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        restored = run_two_tier("rocksdb", "klocs", ops=TINY, snapshots=store)
        assert restored.from_snapshot
        assert sha(run_to_payload(cold)) == sha(run_to_payload(restored))

    def test_mode_flag_changes_setup_key(self, monkeypatch, tmp_path):
        """A snapshot taken without the sanitizer must not be served to
        a sanitized run — the sanitize flag splits the keys."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = setup_key(
            kind="two_tier",
            workload="rocksdb",
            policy="klocs",
            scale_factor=1024,
            seed=42,
        )
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = setup_key(
            kind="two_tier",
            workload="rocksdb",
            policy="klocs",
            scale_factor=1024,
            seed=42,
        )
        assert plain.digest != sanitized.digest
