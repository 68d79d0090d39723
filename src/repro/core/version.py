"""The simulator behavior version tag.

Lives in ``repro.core`` (a leaf package) so that the result cache
(:mod:`repro.experiments.cache`), the golden digests and the benchmark
can all read it without importing the experiment harness.
"""

from __future__ import annotations

#: Simulator behavior version. Bump on ANY change that alters simulated
#: results (cost models, policy logic, daemon scheduling, workloads);
#: leave alone for pure refactors/performance work. Stale cache entries
#: are ignored automatically because the tag is part of every cache key,
#: and ``tests/golden/digests.json`` records the tag its payload digests
#: belong to: a digest change without a bump fails the tier-1 suite.
#: History: "2" = reset_reference_counters now also zeroes the
#: access-time decomposition, and migration resets per-frame hotness
#: state (lru_age / scan_ref_streak) on tier change. The resident-frame
#: indexes, the O(1) hot-path accounting, the REPRO_SANITIZE observer
#: mode and the single charge path (one primitive for plain, batched,
#: NUMA and sanitized accesses) are all bit-identical and did NOT bump
#: this.
SIM_VERSION = "2"
