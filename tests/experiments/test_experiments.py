"""Tests for the experiment harness, run at tiny op budgets.

These validate the machinery (runners produce well-formed reports and
plausible invariants); the paper's claims live in
repro.analysis.expectations and are checked at default ops by
``python -m repro.experiments <id> --verdict``.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.fig2 import run_fig2a_footprint
from repro.experiments.fig4 import run_figure4
from repro.experiments.fig5 import run_fig5b_sources, run_fig5c_objtypes
from repro.experiments.fig6 import run_figure6
from repro.experiments.percpu_ablation import run_percpu_ablation
from repro.experiments.runner import run_two_tier
from repro.experiments.table6 import run_table6_overhead

TINY = 400


class TestRegistry:
    def test_all_figures_and_tables_registered(self):
        assert set(EXPERIMENTS) == {
            "fig2a", "fig2b", "fig2c", "fig2d", "fig4", "fig5a", "fig5b",
            "fig5c", "fig6", "table6", "percpu", "prefetch",
        }

    def test_entries_have_runners(self):
        for exp in EXPERIMENTS.values():
            assert callable(exp.runner)
            assert exp.description


class TestRunner:
    def test_run_two_tier_produces_full_record(self):
        run = run_two_tier("rocksdb", "klocs", ops=TINY)
        assert run.throughput > 0
        assert 0.0 <= run.fast_ref_fraction <= 1.0
        assert run.footprint.total_allocated > 0
        assert run.references.total_refs > 0
        assert run.kloc_metadata_bytes > 0

    def test_non_kloc_policy_has_no_metadata(self):
        run = run_two_tier("rocksdb", "naive", ops=TINY)
        assert run.kloc_metadata_bytes == 0

    def test_deterministic_given_seed(self):
        a = run_two_tier("redis", "nimble", ops=TINY, run_seed=5)
        b = run_two_tier("redis", "nimble", ops=TINY, run_seed=5)
        assert a.throughput == b.throughput


class TestFig2:
    def test_footprint_report(self):
        report = run_fig2a_footprint(workloads=("rocksdb",))
        row = report.rows[0]
        assert 0.0 < row.footprint.kernel_fraction() < 1.0
        assert row.lifetimes.slab_mean_ns is not None
        assert "Fig 2a" in report.format_report()


class TestFig4:
    def test_speedup_table(self):
        report = run_figure4(
            workloads=("rocksdb",), policies=("all_slow", "naive"), ops=TINY
        )
        assert report.speedup("rocksdb", "all_slow") == pytest.approx(1.0)
        assert report.speedup("rocksdb", "naive") > 0
        assert "Fig 4" in report.format_report()


class TestFig5:
    def test_fig5b_rows(self):
        report = run_fig5b_sources(policies=("naive", "klocs"), ops=TINY)
        assert {r.policy for r in report.rows} == {"naive", "klocs"}
        assert "Fig 5b" in report.format_report()

    def test_fig5c_normalized_to_app_only(self):
        report = run_fig5c_objtypes(workloads=("rocksdb",), ops=TINY)
        assert report.speedups["rocksdb"]["none"] == pytest.approx(1.0)
        assert "Fig 5c" in report.format_report()


class TestFig6:
    def test_single_cell(self):
        report = run_figure6(
            workloads=("rocksdb",),
            policies=("klocs",),
            capacities_gb=(8,),
            ratios=(8,),
            ops=TINY,
        )
        cell = report.cell(8, 8, "klocs")
        assert cell.lo <= cell.avg <= cell.hi
        assert "Fig 6" in report.format_report()

    def test_unknown_cell_rejected(self):
        report = run_figure6(
            workloads=("rocksdb",), policies=("klocs",),
            capacities_gb=(8,), ratios=(8,), ops=TINY,
        )
        with pytest.raises(KeyError):
            report.cell(4, 2, "nimble")


class TestTable6:
    def test_overhead_under_one_percent(self):
        report = run_table6_overhead(workloads=("rocksdb",), ops=TINY)
        assert report.metadata_bytes["rocksdb"] > 0
        assert report.fraction_of_memory("rocksdb") < 0.05
        assert "Table 6" in report.format_report()


class TestPerCPU:
    def test_fast_path_reduces_rbtree_accesses(self):
        report = run_percpu_ablation(ops=TINY)
        assert report.kmap_accesses_with <= report.kmap_accesses_without
        assert 0.0 <= report.fast_path_reduction <= 1.0
        assert "54%" in report.format_report()
