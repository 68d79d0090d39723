"""Workload models (Table 3): behavioural drivers that issue the same
kernel-visible operation streams as the paper's benchmarks, scaled down.

Each workload reproduces its application's *kernel-object signature*: the
file/socket churn, the object mix (Fig 2a), the app-vs-kernel reference
split (Fig 2c), and the activity phases the tiering policies exploit.

The names below resolve on first access (PEP 562) and :data:`WORKLOADS`
on lookup, so a run imports only the workload module it drives.
"""

import importlib
from collections.abc import Iterator, Mapping

#: Public name -> defining module, resolved on first attribute access.
_EXPORTS = {
    "Workload": "base",
    "WorkloadConfig": "base",
    "WorkloadResult": "base",
    "RocksDBWorkload": "rocksdb",
    "RedisWorkload": "redis",
    "FilebenchWorkload": "filebench",
    "CassandraWorkload": "cassandra",
    "SparkWorkload": "spark",
    "StreamingInterferer": "interference",
    "ZipfKeys": "keydist",
    "UniformKeys": "keydist",
    "YCSBGenerator": "ycsb",
    "YCSBOp": "ycsb",
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
    """Key -> workload class; a lookup imports only the defining module."""

    def __init__(self, names: dict) -> None:
        self._names = names

    def __getitem__(self, key: str) -> type:
        return __getattr__(self._names[key])

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


#: Name → class registry used by the experiment harness.
WORKLOADS = _Registry({
    "rocksdb": "RocksDBWorkload",
    "redis": "RedisWorkload",
    "filebench": "FilebenchWorkload",
    "cassandra": "CassandraWorkload",
    "spark": "SparkWorkload",
})
