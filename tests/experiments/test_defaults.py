"""Tests for experiment defaults and the seed switch."""

import pytest

from repro.experiments import defaults


class TestOpsFor:
    def test_known_workloads(self):
        for name in ("rocksdb", "redis", "filebench", "cassandra", "spark"):
            assert defaults.ops_for(name) >= 500

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            defaults.ops_for("postgres")

    def test_seed_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        assert defaults.seed() == 7

    def test_eval_workloads_exclude_spark(self):
        """§6.1: the paper's evaluation drops Spark (firewall issues);
        we mirror that — Spark appears in Fig 2 only."""
        assert "spark" not in defaults.EVAL_WORKLOADS
        assert set(defaults.SWEEP_WORKLOADS) <= set(defaults.EVAL_WORKLOADS)
