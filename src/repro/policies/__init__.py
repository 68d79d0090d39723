"""Tiering policies — Table 5's strategies, for both platforms.

Two-tier platform:

* :class:`AllFastMem` / :class:`AllSlowMem` — the ideal and pessimistic bounds.
* :class:`NaivePolicy` — greedy first-come-first-served, no migration.
* :class:`NimblePolicy` — application-page tiering with scan-based hotness
  and parallel page copy (Yan et al., ASPLOS'19); kernel objects pinned in
  slow memory.
* :class:`NimblePlusPlusPolicy` — Nimble's scan machinery extended to
  kernel objects, *without* the KLOC abstraction.
* :class:`KlocsPolicy` / :class:`KlocsNoMigrationPolicy` — the paper's
  contribution, with and without kernel-object migration.

Optane Memory Mode platform:

* :class:`NumaAllLocal` / :class:`NumaAllRemote` — bounds.
* :class:`AutoNumaPolicy` — application pages follow the task's socket.
* :class:`NumaNimblePolicy` — AutoNUMA with parallel page copy.
* :class:`NumaKlocsPolicy` — AutoNUMA + kernel-object migration via KLOCs.

The names below resolve on first access (PEP 562) and the two
registries on lookup, so a run imports only the policy module it builds.
"""

import importlib
from collections.abc import Iterator, Mapping

#: Public name -> defining module, resolved on first attribute access.
_EXPORTS = {
    "TieringPolicy": "base",
    "LRUScanEngine": "lru_engine",
    "AllFastMem": "simple",
    "AllSlowMem": "simple",
    "NaivePolicy": "simple",
    "NimblePolicy": "nimble",
    "NimblePlusPlusPolicy": "nimble",
    "KlocsPolicy": "klocs",
    "KlocsNoMigrationPolicy": "klocs",
    "KlocsFineGrainedPolicy": "klocs",
    "AutoNumaPolicy": "autonuma",
    "NumaNimblePolicy": "autonuma",
    "NumaKlocsPolicy": "autonuma",
    "NumaAllLocal": "autonuma",
    "NumaAllRemote": "autonuma",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> type:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


class _Registry(Mapping):
    """Key -> policy class; a lookup imports only the defining module."""

    def __init__(self, names: dict) -> None:
        self._names = names

    def __getitem__(self, key: str) -> type:
        return __getattr__(self._names[key])

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


#: Name → class registry used by the experiment harness.
TWO_TIER_POLICIES = _Registry({
    "all_fast": "AllFastMem",
    "all_slow": "AllSlowMem",
    "naive": "NaivePolicy",
    "nimble": "NimblePolicy",
    "nimble++": "NimblePlusPlusPolicy",
    "klocs_nomigration": "KlocsNoMigrationPolicy",
    "klocs": "KlocsPolicy",
    # §4.4 future-work extension, not part of the paper's Fig 4 bar set.
    "klocs_fine": "KlocsFineGrainedPolicy",
})

OPTANE_POLICIES = _Registry({
    "all_local": "NumaAllLocal",
    "all_remote": "NumaAllRemote",
    "autonuma": "AutoNumaPolicy",
    "nimble": "NumaNimblePolicy",
    "klocs": "NumaKlocsPolicy",
})
