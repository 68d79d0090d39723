"""Deterministic kernel snapshots: phase-keyed warm starts for sweeps.

``repro.snapshot`` is the repository's single blessed serialization
path for simulated state (enforced by the simlint ``snapshot-path``
rule). :mod:`repro.snapshot.state` owns the capture/restore contract,
:mod:`repro.snapshot.store` the content-addressed on-disk store keyed by
setup keys, and :mod:`repro.snapshot.budget` the shared
``REPRO_CACHE_MAX_MB`` size management.

See ``docs/API.md`` ("Deterministic kernel snapshots") for the user
surface and ``DESIGN.md`` §7 for the CRIU-style checkpoint/restore
mapping.
"""

from repro.snapshot.budget import cache_max_mb, enforce_size_limit, usage
from repro.snapshot.state import (
    SNAPSHOT_FORMAT,
    capture,
    restore,
    snapshot_enabled,
)
from repro.snapshot.store import (
    SetupKey,
    SnapshotStore,
    registry_names,
    setup_key,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SetupKey",
    "SnapshotStore",
    "cache_max_mb",
    "capture",
    "enforce_size_limit",
    "registry_names",
    "restore",
    "setup_key",
    "snapshot_enabled",
    "usage",
]
