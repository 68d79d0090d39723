"""Tests for the Fig 5a claims (completing analysis coverage)."""

from repro.analysis.verdict import check
from tests.analysis.measured import measured_report


def report(**rocksdb):
    """The measured Fig 5a report, with some rocksdb speedups replaced."""
    r = measured_report("fig5a")
    r.speedups["rocksdb"].update(rocksdb)
    return r


class TestFig5aVerdict:
    def test_paper_like_numbers_pass(self):
        verdict = check("fig5a", report())
        assert verdict.ok, verdict.format_report()
        assert len(verdict.checks) == 14

    def test_klocs_no_better_than_autonuma_fails(self):
        verdict = check("fig5a", report(klocs=2.0))
        assert not verdict.ok
        misses = [c for c in verdict.checks if not c.ok]
        assert any("rocksdb/klocs_over_autonuma" == c.metric for c in misses)

    def test_absurd_ideal_flagged(self):
        verdict = check("fig5a", report(all_local=6.0))
        assert not verdict.ok

    def test_multiple_workloads_all_checked(self):
        r = report()
        del r.speedups["redis"]
        verdict = check("fig5a", r)
        assert len(verdict.checks) == 14
        misses = {c.metric for c in verdict.checks if not c.ok}
        assert misses == {c.metric for c in verdict.checks if "redis/" in c.metric}
