"""Parallel experiment engine + result cache: determinism and mechanics.

The engine's contract: a grid of runs dispatched to worker processes —
or replayed from the on-disk cache — produces results bit-for-bit
identical to the serial path, merged in grid order.
"""

import dataclasses
import json

import pytest

from repro.experiments.cache import (
    SIM_VERSION,
    ResultCache,
    RunSpec,
    optane_spec,
    run_from_payload,
    run_to_payload,
    two_tier_spec,
)
from repro.experiments.fig4 import run_figure4
from repro.experiments.parallel import default_jobs, execute_spec, run_specs
from repro.experiments.prefetch import run_prefetch_study
from repro.experiments.runner import (
    run_optane_interference,
    run_two_tier,
)
from repro.kloc.registry import KlocRegistry

TINY = 400


def tiny_spec(policy="klocs", **kw):
    return two_tier_spec("redis", policy, ops=TINY, **kw)


class TestRunSpecKeys:
    def test_same_spec_same_key(self):
        assert tiny_spec().key() == tiny_spec().key()

    def test_any_field_perturbs_key(self):
        base = tiny_spec()
        for change in (
            {"ops": TINY + 1},
            {"seed": 7},
            {"bandwidth_ratio": 4},
            {"policy": "naive"},
            {"workload": "rocksdb"},
            {"registry": ()},
            {"readahead_enabled": False},
            {"kind": "optane"},
        ):
            assert dataclasses.replace(base, **change).key() != base.key()

    def test_registry_round_trip(self):
        registry = KlocRegistry.groups("page_cache", "journal")
        spec = tiny_spec(registry=registry)
        rebuilt = spec.build_registry()
        assert rebuilt.covered_types() == registry.covered_types()

    def test_default_registry_is_none(self):
        spec = tiny_spec()
        assert spec.registry is None
        assert spec.build_registry() is None

    def test_spec_resolves_ops_budget(self):
        spec = two_tier_spec("redis", "klocs")
        assert spec.ops > 0


class TestPayloadRoundTrip:
    def test_two_tier_run_round_trips_losslessly(self):
        run = run_two_tier("redis", "klocs", ops=TINY)
        payload = json.loads(json.dumps(run_to_payload(run)))
        back = run_from_payload(payload)
        assert back.throughput == run.throughput
        assert back.result.elapsed_ns == run.result.elapsed_ns
        assert back.result.setup_ns == run.result.setup_ns
        assert back.fast_ref_fraction == run.fast_ref_fraction
        assert back.migrations_down == run.migrations_down
        assert back.migrations_up == run.migrations_up
        assert back.slow_allocs == run.slow_allocs
        assert back.kloc_metadata_bytes == run.kloc_metadata_bytes
        assert back.footprint.allocated == run.footprint.allocated
        assert back.footprint.live == run.footprint.live
        assert back.references.by_owner == run.references.by_owner
        assert back.references.kernel_fraction() == run.references.kernel_fraction()


class TestResultCache:
    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.store(spec, {"kind": "optane", "throughput": 1.5})
        assert cache.load(spec) == {"kind": "optane", "throughput": 1.5}

    def test_miss_on_unknown_spec(self, tmp_path):
        assert ResultCache(tmp_path).load(tiny_spec()) is None

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        spec = tiny_spec()
        cache.store(spec, {"x": 1})
        assert cache.load(spec) is None
        assert not list(tmp_path.glob("*.json"))

    def test_no_cache_env_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert ResultCache(tmp_path).enabled is False

    def test_cache_dir_env_controls_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultCache().root == tmp_path / "elsewhere"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.store(spec, {"x": 1})
        path = next(tmp_path.glob("*.json"))
        path.write_text("{ not json")
        assert cache.load(spec) is None

    def test_version_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.store(spec, {"x": 1})
        path = next(tmp_path.glob("*.json"))
        entry = json.loads(path.read_text())
        entry["sim_version"] = SIM_VERSION + "-stale"
        path.write_text(json.dumps(entry))
        assert cache.load(spec) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(tiny_spec(), {"x": 1})
        cache.store(tiny_spec("naive"), {"x": 2})
        assert cache.clear() == 2
        assert cache.load(tiny_spec()) is None


class TestDeterminism:
    """The ISSUE's regression gate: serial == parallel == cache hit."""

    def test_serial_parallel_and_cached_identical(self, tmp_path):
        spec = tiny_spec()
        serial = run_two_tier(
            "redis", "klocs", ops=TINY, run_seed=spec.seed
        )
        cache = ResultCache(tmp_path)
        [parallel] = run_specs([spec], jobs=2, cache=cache)
        [cached] = run_specs([spec], jobs=2, cache=cache)

        for run in (parallel, cached):
            assert run.throughput == serial.throughput
            assert run.result.elapsed_ns == serial.result.elapsed_ns
            assert run.migrations_down == serial.migrations_down
            assert run.migrations_up == serial.migrations_up
            assert run.fast_ref_fraction == serial.fast_ref_fraction
            assert run.references.by_owner == serial.references.by_owner

    def test_grid_order_preserved_under_parallelism(self, tmp_path):
        specs = [tiny_spec(p) for p in ("all_slow", "naive", "klocs")]
        results = run_specs(specs, jobs=3, cache=ResultCache(tmp_path))
        assert [r.policy for r in results] == ["all_slow", "naive", "klocs"]

    def test_duplicate_specs_computed_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = run_specs([tiny_spec(), tiny_spec()], jobs=1, cache=cache)
        assert a.throughput == b.throughput
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_optane_spec_matches_direct_call(self, tmp_path):
        spec = optane_spec("redis", "klocs", ops=TINY)
        direct = run_optane_interference(
            "redis", "klocs", TINY, run_seed=spec.seed
        )
        [engine] = run_specs([spec], jobs=1, cache=ResultCache(tmp_path))
        assert engine == direct


class TestJobsControl:
    def test_repro_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_bad_repro_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            execute_spec(dataclasses.replace(tiny_spec(), kind="warp"))

    def test_sweep_log_lists_each_cell(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        run_specs([tiny_spec()], jobs=1, cache=cache)
        run_specs([tiny_spec()], jobs=1, cache=cache)
        err = capsys.readouterr().err
        assert "redis/klocs" in err
        assert "computed" in err
        assert "cached" in err


class TestPrefetchStudy:
    """§7.3 runs its readahead on/off pairs through the engine."""

    def test_ratios_match_direct_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        report = run_prefetch_study(ops=TINY)
        assert list(report.ratios) == [("rocksdb", "klocs"), ("rocksdb", "naive")]
        for (workload, policy), ratio in report.ratios.items():
            on = run_two_tier(workload, policy, ops=TINY)
            off = run_two_tier(workload, policy, ops=TINY, readahead_enabled=False)
            assert ratio == on.throughput / off.throughput

    def test_second_study_is_served_from_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_prefetch_study(ops=TINY)
        capsys.readouterr()
        second = run_prefetch_study(ops=TINY)
        log = capsys.readouterr().err.splitlines()
        assert len(log) == 4
        assert all(line.endswith(".. cached") for line in log)
        assert second.ratios == first.ratios

    def test_readahead_on_cells_are_fig4_cells(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_figure4(workloads=("rocksdb",), policies=("klocs", "naive"), ops=TINY)
        capsys.readouterr()
        run_prefetch_study(ops=TINY)
        # Lines arrive in completion order; "[sweep] i/n" gives grid order.
        log = sorted(capsys.readouterr().err.splitlines())
        statuses = [line.split(" .. ")[1].split()[0] for line in log]
        assert statuses == ["cached", "computed", "cached", "computed"]
