"""Content-addressed on-disk cache for experiment runs.

Every measured run in this repository is a pure function of its spec:
the simulator is deterministic, so (workload, policy, ops, scale factor,
bandwidth ratio, fast capacity, seed, registry coverage, readahead flag)
fully determine the result. The cache exploits that: a
:class:`RunSpec` hashes to a stable key, results are stored as JSON under
``.repro_cache/``, and any later invocation with the same spec is served
from disk instead of re-simulating.

Invalidation is by construction: the key includes :data:`SIM_VERSION`,
which MUST be bumped whenever a change alters simulated behavior (cost
models, policies, daemon scheduling, workload op mixes). Pure
refactors and performance work keep the tag, so the cache survives them.

Environment knobs:

- ``REPRO_CACHE_DIR`` — cache directory (default ``./.repro_cache``).
- ``REPRO_NO_CACHE=1`` — disable reads *and* writes (every run computes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.objtypes import KernelObjectType

#: Canonical home is :mod:`repro.core.version` (a leaf module); re-exported
#: here because every existing caller imports it from this module.
from repro.core.version import SIM_VERSION
from repro.experiments.defaults import SCALE_FACTOR, ops_for, seed
from repro.experiments.runner import TwoTierRun
from repro.kloc.registry import KlocRegistry
from repro.mem.frame import PageOwner
from repro.metrics.footprint import FootprintSnapshot
from repro.metrics.references import ReferenceReport
from repro.platforms.twotier import PAPER_FAST_BYTES
from repro.workloads.base import WorkloadResult


def registry_names(registry: Optional[KlocRegistry]) -> Optional[Tuple[str, ...]]:
    """Canonical encoding of a registry: sorted covered-type names."""
    if registry is None:
        return None
    return tuple(sorted(t.name for t in registry.covered_types()))


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """The full identity of one deterministic experiment run.

    ``kind`` selects the measurement procedure: ``"two_tier"`` maps to
    :func:`repro.experiments.runner.run_two_tier`, ``"optane"`` to
    :func:`repro.experiments.runner.run_optane_interference`.
    ``registry`` is the KLOC coverage as a sorted tuple of
    :class:`KernelObjectType` names, or ``None`` for the policy default
    (full coverage).
    """

    workload: str
    policy: str
    ops: int
    kind: str = "two_tier"
    scale_factor: int = SCALE_FACTOR
    bandwidth_ratio: int = 8
    fast_bytes_paper: int = PAPER_FAST_BYTES
    seed: int = 42
    registry: Optional[Tuple[str, ...]] = None
    readahead_enabled: bool = True

    def key(self) -> str:
        """Stable content hash of the spec + simulator version."""
        record = dataclasses.asdict(self)
        record["registry"] = (
            list(self.registry) if self.registry is not None else None
        )
        record["sim_version"] = SIM_VERSION
        blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable cell label for sweep logs."""
        bits = [f"{self.workload}/{self.policy}", f"ops={self.ops}"]
        if self.kind != "two_tier":
            bits.insert(0, self.kind)
        if self.bandwidth_ratio != 8:
            bits.append(f"bw=1:{self.bandwidth_ratio}")
        if self.fast_bytes_paper != PAPER_FAST_BYTES:
            bits.append(f"fast={self.fast_bytes_paper // (1 << 30)}GB")
        if self.registry is not None:
            bits.append(f"reg={len(self.registry)}t")
        if not self.readahead_enabled:
            bits.append("readahead=off")
        return " ".join(bits)

    def build_registry(self) -> Optional[KlocRegistry]:
        """Materialize the registry coverage this spec encodes."""
        if self.registry is None:
            return None
        return KlocRegistry(
            covered=[KernelObjectType[name] for name in self.registry]
        )


def two_tier_spec(
    workload: str,
    policy: str,
    *,
    ops: Optional[int] = None,
    scale_factor: int = SCALE_FACTOR,
    bandwidth_ratio: int = 8,
    fast_bytes_paper: int = PAPER_FAST_BYTES,
    registry: Optional[KlocRegistry] = None,
    readahead_enabled: bool = True,
    run_seed: Optional[int] = None,
) -> RunSpec:
    """Build a spec mirroring :func:`run_two_tier`'s signature, with the
    op budget and seed resolved to concrete values (cache keys must not
    depend on environment state at *replay* time)."""
    return RunSpec(
        workload=workload,
        policy=policy,
        ops=ops if ops is not None else ops_for(workload),
        kind="two_tier",
        scale_factor=scale_factor,
        bandwidth_ratio=bandwidth_ratio,
        fast_bytes_paper=fast_bytes_paper,
        seed=run_seed if run_seed is not None else seed(),
        registry=registry_names(registry),
        readahead_enabled=readahead_enabled,
    )


def optane_spec(
    workload: str,
    policy: str,
    *,
    ops: Optional[int] = None,
    scale_factor: int = SCALE_FACTOR,
    run_seed: Optional[int] = None,
) -> RunSpec:
    """Spec for the §6.2 Optane interference measurement."""
    return RunSpec(
        workload=workload,
        policy=policy,
        ops=ops if ops is not None else ops_for(workload),
        kind="optane",
        scale_factor=scale_factor,
        seed=run_seed if run_seed is not None else seed(),
    )


# ----------------------------------------------------------------------
# result (de)serialization
# ----------------------------------------------------------------------


def run_to_payload(run: TwoTierRun) -> Dict[str, Any]:
    """JSON-able encoding of a :class:`TwoTierRun` (lossless round-trip)."""
    return {
        "kind": "two_tier",
        "workload": run.workload,
        "policy": run.policy,
        "result": {
            "name": run.result.name,
            "ops": run.result.ops,
            "elapsed_ns": run.result.elapsed_ns,
            "setup_ns": run.result.setup_ns,
        },
        "fast_ref_fraction": run.fast_ref_fraction,
        "footprint": {
            "allocated": {o.value: n for o, n in run.footprint.allocated.items()},
            "live": {o.value: n for o, n in run.footprint.live.items()},
        },
        "references": {
            "kernel_refs": run.references.kernel_refs,
            "app_refs": run.references.app_refs,
            "kernel_bytes": run.references.kernel_bytes,
            "app_bytes": run.references.app_bytes,
            "by_owner": {o.value: n for o, n in run.references.by_owner.items()},
        },
        "slow_allocs": dict(run.slow_allocs),
        "migrations_down": run.migrations_down,
        "migrations_up": run.migrations_up,
        "kloc_metadata_bytes": run.kloc_metadata_bytes,
    }


def run_from_payload(payload: Dict[str, Any]) -> TwoTierRun:
    """Inverse of :func:`run_to_payload`."""
    fp = payload["footprint"]
    refs = payload["references"]
    return TwoTierRun(
        workload=payload["workload"],
        policy=payload["policy"],
        result=WorkloadResult(**payload["result"]),
        fast_ref_fraction=payload["fast_ref_fraction"],
        footprint=FootprintSnapshot(
            allocated={PageOwner(k): v for k, v in fp["allocated"].items()},
            live={PageOwner(k): v for k, v in fp["live"].items()},
        ),
        references=ReferenceReport(
            kernel_refs=refs["kernel_refs"],
            app_refs=refs["app_refs"],
            kernel_bytes=refs["kernel_bytes"],
            app_bytes=refs["app_bytes"],
            by_owner={PageOwner(k): v for k, v in refs["by_owner"].items()},
        ),
        slow_allocs=dict(payload["slow_allocs"]),
        migrations_down=payload["migrations_down"],
        migrations_up=payload["migrations_up"],
        kloc_metadata_bytes=payload["kloc_metadata_bytes"],
    )


# ----------------------------------------------------------------------
# cache maintenance
# ----------------------------------------------------------------------


def usage(root: Path) -> Dict[str, int]:
    """``{"files": n, "bytes": total}`` for the result entries at ``root``:
    its ``*.json`` files. Subdirectories and files of any other kind are
    not the cache's and are never counted or cleared."""
    files = total = 0
    for path in root.glob("*.json"):
        try:
            if path.is_file():
                total += path.stat().st_size
                files += 1
        except OSError:
            pass
    return {"files": files, "bytes": total}


# ----------------------------------------------------------------------
# the on-disk cache
# ----------------------------------------------------------------------


class ResultCache:
    """Content-addressed JSON store for run payloads.

    One file per spec key; writes go through a temp file + ``os.replace``
    so concurrent workers (or concurrent sweeps) never observe a torn
    entry.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        *,
        enabled: Optional[bool] = None,
    ) -> None:
        if root is None:
            root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
        self.root = Path(root)
        if enabled is None:
            enabled = not os.environ.get("REPRO_NO_CACHE")
        self.enabled = enabled

    def _path(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.workload}-{spec.policy}-{spec.key()[:20]}.json"

    def load(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """Stored payload for ``spec``, or None on miss/corruption."""
        if not self.enabled:
            return None
        path = self._path(spec)
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("sim_version") != SIM_VERSION:
            return None
        return entry.get("payload")

    def store(self, spec: RunSpec, payload: Dict[str, Any]) -> None:
        if not self.enabled:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "sim_version": SIM_VERSION,
            "spec": dataclasses.asdict(spec),
            "payload": payload,
        }
        path = self._path(spec)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                if path.is_file():
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed
