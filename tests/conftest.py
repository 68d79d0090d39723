"""Test-suite defaults for the parallel experiment engine.

Experiments route through ``repro.experiments.parallel``, which caches
results on disk and logs one stderr line per grid cell (pytest captures
it). Tests must not litter the working tree with ``.repro_cache/``, so
the cache is redirected to a session-scoped temp directory (still
exercising the cache code paths). Individual tests override this via
monkeypatch when they assert on cache placement.
"""

import pytest


@pytest.fixture(autouse=True)
def _engine_test_defaults(tmp_path_factory, monkeypatch):
    monkeypatch.setenv(
        "REPRO_CACHE_DIR",
        str(tmp_path_factory.getbasetemp() / "repro_cache"),
    )
