"""Content-addressed store of post-``setup()`` kernel snapshots.

A snapshot's identity is its **setup key**: a hash of exactly the slice
of a run's spec that can influence the warmed state — workload, policy,
platform knobs (scale factor, bandwidth ratio, fast-tier capacity),
seed, KLOC registry coverage, readahead flag — plus ``SIM_VERSION``,
the snapshot container format, and whether ``REPRO_SANITIZE`` was set
(the one construction-time mode: a sanitized kernel carries its free-site
ledger and poisoned references in the pickled graph). Measurement-phase
knobs (``ops``, ``measure_setup``) are deliberately **excluded**: every
cell of an ops-sensitivity sweep shares one warmed kernel, which is the
whole point.

Files live beside the result cache (``<REPRO_CACHE_DIR>/snapshots/`` by
default) so the two stores version, relocate, and garbage-collect
together: the result cache dedupes identical *cells*, the snapshot
store dedupes identical *prefixes*.

Knobs: ``REPRO_NO_SNAPSHOT=1`` disables the store (legacy cold-setup
path); ``REPRO_NO_CACHE=1`` disables it too (a bench that must time real
runs must not warm-start them silently); ``REPRO_CACHE_MAX_MB`` bounds
on-disk size (see :mod:`repro.snapshot.budget`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.core.sanitize import sanitize_enabled
from repro.core.version import SIM_VERSION
from repro.kloc.registry import KlocRegistry
from repro.snapshot.budget import enforce_size_limit
from repro.snapshot.state import (
    SNAPSHOT_FORMAT,
    capture,
    restore,
    snapshot_enabled,
)


def registry_names(registry: Optional[KlocRegistry]) -> Optional[Tuple[str, ...]]:
    """Canonical encoding of a registry: sorted covered-type names.

    Shared by the result cache and the snapshot store so both keys agree
    on what "same coverage" means.
    """
    if registry is None:
        return None
    return tuple(sorted(t.name for t in registry.covered_types()))


@dataclasses.dataclass(frozen=True)
class SetupKey:
    """Identity of one warmed setup phase (label + content digest)."""

    workload: str
    policy: str
    digest: str

    def filename(self) -> str:
        return f"{self.workload}-{self.policy}-{self.digest[:20]}.snap"


def setup_key(
    *,
    kind: str,
    workload: str,
    policy: str,
    scale_factor: int,
    seed: int,
    bandwidth_ratio: Optional[int] = None,
    fast_bytes_paper: Optional[int] = None,
    registry: Optional[KlocRegistry] = None,
    readahead_enabled: Optional[bool] = None,
    retired_limit: Optional[int] = 0,
) -> SetupKey:
    """Hash the setup-affecting slice of a run spec.

    ``kind`` separates platforms ("two_tier" vs "optane"); fields a
    platform doesn't take stay ``None`` so its keys can't collide with
    the other's. The record deliberately mirrors
    :class:`repro.experiments.cache.RunSpec` minus the measurement-phase
    fields — if a new setup-affecting knob is added to the runner it
    MUST be added here, or stale snapshots would be served (the
    equivalence suite catches exactly this class of bug).
    """
    record = {
        "kind": kind,
        "workload": workload,
        "policy": policy,
        "scale_factor": scale_factor,
        "seed": seed,
        "bandwidth_ratio": bandwidth_ratio,
        "fast_bytes_paper": fast_bytes_paper,
        "registry": (
            list(registry_names(registry)) if registry is not None else None
        ),
        "readahead_enabled": readahead_enabled,
        "retired_limit": retired_limit,
        "sim_version": SIM_VERSION,
        "snapshot_format": SNAPSHOT_FORMAT,
        "sanitize": sanitize_enabled(),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return SetupKey(
        workload=workload,
        policy=policy,
        digest=hashlib.sha256(blob.encode("utf-8")).hexdigest(),
    )


class SnapshotStore:
    """One directory of ``<workload>-<policy>-<digest20>.snap`` blobs.

    Writes go through a temp file + ``os.replace`` so concurrent sweep
    workers racing on the same setup key never observe a torn snapshot
    (last writer wins; both wrote identical bytes anyway). ``hits`` /
    ``misses`` / ``stores`` count this store's traffic so tests and
    benches can assert the warm path actually engaged.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        *,
        enabled: Optional[bool] = None,
    ) -> None:
        if root is None:
            root = (
                Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
                / "snapshots"
            )
        self.root = Path(root)
        if enabled is None:
            enabled = snapshot_enabled() and not os.environ.get("REPRO_NO_CACHE")
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: SetupKey) -> Path:
        return self.root / key.filename()

    def load(self, key: SetupKey) -> Optional[Tuple[Any, Any]]:
        """The warmed (kernel, workload) pair for ``key``, or ``None``.

        Anything unusable — missing file, torn write, corrupted or
        stale-format blob — counts as a miss and falls back to cold
        setup; the store never raises on bad cache contents.
        """
        if not self.enabled:
            return None
        try:
            blob = self._path(key).read_bytes()
        except OSError:
            self.misses += 1
            return None
        state = restore(blob)
        if state is None:
            self.misses += 1
            return None
        self.hits += 1
        return state

    def save(self, key: SetupKey, kernel: Any, workload: Any) -> None:
        """Capture and persist the warmed pair under ``key``."""
        if not self.enabled:
            return
        blob = capture(kernel, workload)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        enforce_size_limit(self.root)

    def clear(self) -> int:
        """Delete every snapshot; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.snap"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
