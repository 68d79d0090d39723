"""Tests for the `python -m repro.experiments` CLI."""

import inspect

import pytest

from repro.analysis.verdict import check
from repro.experiments.__main__ import main
from repro.experiments.registry import EXPERIMENTS


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table6" in out

    def test_unknown_experiment(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_small_experiment(self, capsys):
        assert main(["fig5b", "--ops", "300"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5b" in out
        assert "klocs" in out

    def test_save_flag(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        assert main(["fig5b", "--ops", "300", "--save", str(out_path)]) == 0
        assert out_path.exists()
        from repro.analysis.results import load_results

        assert load_results(out_path)["experiment"] == "fig5b"

    def test_verdict_unavailable_is_graceful(self, capsys):
        """Every id has a verdict; its exit code follows ``verdict.ok``."""
        code = main(["fig5b", "--ops", "300", "--verdict"])
        out = capsys.readouterr().out
        assert "fig5b/rocksdb/klocs_downgrade_fraction" in out
        verdict = check("fig5b", EXPERIMENTS["fig5b"].runner(ops=300))
        assert code == (0 if verdict.ok else 1)

    def test_verdict_below_eviction_onset_exits_one(self, capsys):
        """At 600 ops rocksdb never misses the page cache, so readahead
        gains exactly nothing and the §7.3 claim misses."""
        assert main(["prefetch", "--ops", "600", "--verdict"]) == 1
        assert "[MISS] prefetch/rocksdb/klocs_readahead_gain" in capsys.readouterr().out

    def test_every_runner_accepts_ops(self):
        for exp in EXPERIMENTS.values():
            assert "ops" in inspect.signature(exp.runner).parameters, exp.experiment_id

    def test_fig2_ops(self, capsys):
        assert main(["fig2d", "--ops", "300"]) == 0
        assert "Fig 2d" in capsys.readouterr().out
