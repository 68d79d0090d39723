"""Tests for the analysis package and terminal charts."""

import pytest

from repro.analysis.expectations import PAPER_EXPECTATIONS, Band
from repro.analysis.results import load_results, save_results
from repro.analysis.verdict import Verdict, check
from repro.experiments.fig4 import Fig4Report
from repro.metrics.chart import bar_chart, grouped_bar_chart, sparkline
from tests.analysis.measured import measured_report


class TestBand:
    def test_contains(self):
        band = Band(1.0, 2.0, paper_value=1.5)
        assert band.contains(1.0) and band.contains(2.0)
        assert not band.contains(0.99)

    def test_strict_ends(self):
        band = Band(1.0, 2.0, open_lo=True)
        assert not band.contains(1.0) and band.contains(2.0)
        assert not Band(1.0, 2.0, open_hi=True).contains(2.0)

    def test_expectations_are_well_formed(self):
        for (exp, metric), claim in PAPER_EXPECTATIONS.items():
            band = claim.band
            assert band.lo <= band.hi, (exp, metric)
            if band.paper_value is not None:
                assert band.source, (exp, metric)
                assert band.contains(band.paper_value), (exp, metric)


class TestVerdict:
    def test_passing_report(self):
        verdict = check("fig4", measured_report("fig4"))
        assert verdict.ok
        assert "PASS" in verdict.format_report()

    def test_failing_report_flagged(self):
        report = measured_report("fig4")
        for speedups in report.speedups.values():
            speedups["klocs"] = speedups["naive"]  # klocs == naive
        verdict = check("fig4", report)
        assert not verdict.ok
        assert "MISS" in verdict.format_report()

    def test_add_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            Verdict().add("fig4", "not_a_metric", 1.0)


class TestResultsIO:
    def test_roundtrip(self, tmp_path):
        report = self_report = Fig4Report(speedups={"rocksdb": {"klocs": 1.9}})
        path = save_results(
            report,
            tmp_path / "out" / "fig4.json",
            experiment="fig4",
            config={"scale": 1024},
        )
        loaded = load_results(path)
        assert loaded["experiment"] == "fig4"
        assert loaded["config"]["scale"] == 1024
        assert loaded["report"]["speedups"]["rocksdb"]["klocs"] == 1.9

    def test_enum_and_tuple_keys_flattened(self, tmp_path):
        from repro.experiments.prefetch import PrefetchReport

        report = PrefetchReport(ratios={("rocksdb", "klocs"): 1.2})
        path = save_results(report, tmp_path / "p.json", experiment="prefetch")
        loaded = load_results(path)
        assert loaded["report"]["ratios"]["rocksdb/klocs"] == 1.2

    def test_load_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(ValueError):
            load_results(p)


class TestCharts:
    def test_bar_chart_scales_to_max(self):
        chart = bar_chart({"a": 1.0, "b": 2.0}, width=10, unit="x")
        lines = chart.splitlines()
        assert lines[1].count("█") == 10  # b is the max → full width
        assert 4 <= lines[0].count("█") <= 6

    def test_bar_chart_title(self):
        assert bar_chart({"a": 1.0}, title="T").splitlines()[0] == "T"

    def test_grouped_chart(self):
        chart = grouped_bar_chart(
            {"rocksdb": {"naive": 1.3, "klocs": 1.9}},
            title="Fig4",
        )
        assert "-- rocksdb --" in chart
        assert "klocs" in chart

    def test_sparkline(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            sparkline([])
        with pytest.raises(ValueError):
            grouped_bar_chart({})
