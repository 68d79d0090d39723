"""What the result cache counts as an entry, and the cache maintenance CLI."""

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.cache import ResultCache, two_tier_spec, usage


def make_file(path: Path, size: int, mtime: float) -> Path:
    path.write_bytes(b"x" * size)
    os.utime(path, (mtime, mtime))
    return path


def stray_snapshot(root: Path, size: int = 4 << 20) -> Path:
    """A leftover ``snapshots/old.snap`` from an older cache layout."""
    (root / "snapshots").mkdir(parents=True, exist_ok=True)
    return make_file(root / "snapshots" / "old.snap", size, 50)


_MB = 1 << 20


class TestBudget:
    """The cache has no size budget: a store never evicts, and only the
    ``*.json`` entries at the cache root are counted or cleared."""

    def test_unbounded_touches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        old = make_file(tmp_path / "old.json", 2 * _MB, 100)
        spec = two_tier_spec("rocksdb", "klocs", ops=10)
        cache.store(spec, {"kind": "two_tier"})
        assert old.exists()
        assert cache.load(spec) == {"kind": "two_tier"}

    def test_ignores_foreign_files(self, tmp_path):
        keep = make_file(tmp_path / "notes.txt", 4 * _MB, 100)
        make_file(tmp_path / "a.json", _MB, 200)
        assert usage(tmp_path) == {"files": 1, "bytes": _MB}
        assert ResultCache(tmp_path, enabled=True).clear() == 1
        assert keep.exists()

    def test_usage_counts_result_entries_only(self, tmp_path):
        make_file(tmp_path / "a.json", 10, 100)
        make_file(tmp_path / "b.json", 20, 100)
        make_file(tmp_path / "other.txt", 1000, 100)
        assert usage(tmp_path) == {"files": 2, "bytes": 30}

    def test_stray_snapshot_is_neither_counted_nor_evicted(self, tmp_path):
        stale = stray_snapshot(tmp_path)
        make_file(tmp_path / "old.json", _MB, 100)
        make_file(tmp_path / "new.json", _MB, 200)
        assert usage(tmp_path) == {"files": 2, "bytes": 2 * _MB}
        assert ResultCache(tmp_path, enabled=True).clear() == 2
        assert stale.exists()


class TestMaintenanceCli:
    def run_cli(self, *args, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_cache_info_counts_results_directly(self, tmp_path):
        stray_snapshot(tmp_path)
        make_file(tmp_path / "res.json", 1024, 100)
        proc = self.run_cli("--cache-info", cache_dir=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "results:       1 file(s)      0.00 MB" in proc.stdout
        assert "snapshot" not in proc.stdout

    def test_cache_clear_empties_results(self, tmp_path):
        stale = stray_snapshot(tmp_path)
        make_file(tmp_path / "res.json", 1024, 100)
        proc = self.run_cli("--cache-clear", cache_dir=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "cleared: 1 result(s)" in proc.stdout
        assert list(tmp_path.rglob("*.json")) == []
        assert stale.exists()

    def test_missing_experiment_errors(self, tmp_path):
        proc = self.run_cli(cache_dir=tmp_path)
        assert proc.returncode == 2
        assert "experiment id is required" in proc.stderr

    def test_in_process_cache_info(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert experiments_main(["--cache-info"]) == 0
        out = capsys.readouterr().out
        assert f"cache root: {tmp_path}" in out
        assert "results:       0 file(s)" in out
