"""The claims table and its one checker, on the measured default-ops reports."""

import math

import pytest

from repro.analysis.expectations import PAPER_EXPECTATIONS, _row
from repro.analysis.verdict import check
from repro.experiments.registry import EXPERIMENTS
from repro.mem.frame import PageOwner
from tests.analysis.measured import measured_report

IDS = sorted(EXPERIMENTS)


#: id -> (one perturbed value, the name every resulting MISS must carry).
PERTURB = {
    "fig2a": (lambda r: _row(r, "spark").footprint.allocated.update(
        {PageOwner.APP: 10**6}), "spark/"),
    "fig2b": (lambda r: r.scaling["redis"].update(small=0.1), "redis/"),
    "fig2c": (lambda r: setattr(_row(r, "filebench").references, "kernel_refs",
                                40000), "filebench/"),
    "fig2d": (lambda r: setattr(_row(r, "redis").lifetimes, "app_mean_ns", 1e3),
              "redis/"),
    "fig4": (lambda r: r.speedups["redis"].update(klocs=1.0), "redis/"),
    "fig5a": (lambda r: r.speedups["rocksdb"].update(klocs=1.9), "rocksdb/"),
    "fig5b": (lambda r: setattr(_row(r, "klocs"), "migrations_up", 30000),
              "rocksdb/klocs_"),
    "fig5c": (lambda r: r.speedups["redis"].update(block_io=1.0), "redis/"),
    "fig6": (lambda r: setattr(r.cell(8, 8, "klocs"), "avg", 1.5), "8GB"),
    "table6": (lambda r: r.metadata_bytes.update(cassandra=80000), "cassandra/"),
    "percpu": (lambda r: setattr(r, "fast_path_reduction", 0.3), "rocksdb/"),
    "prefetch": (lambda r: r.ratios.update({("rocksdb", "klocs"): 1.0}), "rocksdb/"),
}


def test_every_registry_id_has_claims():
    assert {exp for exp, _ in PAPER_EXPECTATIONS} == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", IDS)
def test_measured_report_passes(experiment_id):
    verdict = check(experiment_id, measured_report(experiment_id))
    assert verdict.ok, verdict.format_report()


@pytest.mark.parametrize("experiment_id", IDS)
def test_checks_read_exactly_the_table_keys(experiment_id):
    """Each table entry for the id is read once; none is left unchecked."""
    verdict = check(experiment_id, measured_report(experiment_id))
    assert [c.metric for c in verdict.checks] == [
        name for exp, name in PAPER_EXPECTATIONS if exp == experiment_id
    ]
    assert not [c for c in verdict.checks if c.error]


@pytest.mark.parametrize("experiment_id", IDS)
def test_perturbed_value_misses_and_names_its_workload(experiment_id):
    report = measured_report(experiment_id)
    perturb, name = PERTURB[experiment_id]
    perturb(report)
    verdict = check(experiment_id, report)
    misses = [c for c in verdict.checks if not c.ok]
    assert not verdict.ok and misses
    assert all(name in c.metric for c in misses), verdict.format_report()


def test_missing_workload_is_a_miss_not_a_skip():
    report = measured_report("fig4")
    del report.speedups["filebench"]
    verdict = check("fig4", report)
    misses = [c for c in verdict.checks if not c.ok]
    assert len(verdict.checks) == len(check("fig4", measured_report("fig4")).checks)
    assert {c.metric.split("/")[0] for c in misses} >= {"filebench"}
    unreadable = [c for c in misses if c.metric.startswith("filebench/")]
    assert unreadable and all(c.error and math.isnan(c.measured) for c in unreadable)
    assert "unreadable (KeyError" in verdict.format_report()


def test_strict_bound_excludes_its_edge():
    """A readahead gain of exactly 1.0, as below eviction onset, is no gain."""
    report = measured_report("prefetch")
    report.ratios[("rocksdb", "klocs")] = 1.0
    report.ratios[("rocksdb", "naive")] = 1.0
    metrics = {c.metric: c.ok for c in check("prefetch", report).checks}
    assert metrics == {
        "rocksdb/klocs_readahead_gain": False,
        "rocksdb/klocs_gain_over_naive_gain": True,
    }


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        check("fig99", measured_report("fig4"))
