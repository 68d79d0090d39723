"""The simulator behavior version tag.

Lives in ``repro.core`` (a leaf package) so that both the result cache
(:mod:`repro.experiments.cache`) and the snapshot store
(:mod:`repro.snapshot.store`) can key on it without importing each
other: result-cache keys and snapshot setup keys must invalidate
together whenever simulated behavior changes.
"""

from __future__ import annotations

#: Simulator behavior version. Bump on ANY change that alters simulated
#: results (cost models, policy logic, daemon scheduling, workloads);
#: leave alone for pure refactors/performance work. Stale cache entries
#: and snapshots are ignored automatically because the tag is part of
#: every content hash, and ``tests/golden/digests.json`` records the tag
#: its payload digests belong to: a digest change without a bump fails
#: the tier-1 suite.
#: History: "2" = reset_reference_counters now also zeroes the
#: access-time decomposition, and migration resets per-frame hotness
#: state (lru_age / scan_ref_streak) on tier change. The resident-frame
#: indexes, the O(1) hot-path accounting, the REPRO_SANITIZE observer
#: mode, the phase-keyed snapshot/restore path, and the single charge
#: path (one primitive for plain, batched, NUMA and sanitized accesses)
#: are all bit-identical and did NOT bump this.
SIM_VERSION = "2"
