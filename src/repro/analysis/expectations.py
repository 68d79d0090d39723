"""The paper's quantitative claims: one table, each claim written once.

An entry is keyed by (registry id, claim name). It pairs the band a
reproduction on *this* substrate must land in with the code that reads
the claimed value from that experiment's report; ``verdict.check`` is
the only thing that evaluates it. Per-workload claims carry the
workload in the name (``redis/klocs_over_nimble``); an ordering such as
"KLOCs beat Naive" is a ratio band (``klocs_over_naive`` above 1).
Orderings are strict where the shape needs them to be; magnitudes get
wide bands because the simulator compresses ratios (see EXPERIMENTS.md's
reading guide). ``paper_value`` and ``source`` record the paper's own
number where it states one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Reads one claimed value from an experiment report. A lookup that
#: fails (missing workload, empty row set, zero denominator) makes the
#: claim a MISS; it is never skipped.
Reader = Callable[[Any], float]


@dataclass(frozen=True)
class Band:
    """An expected numeric interval with provenance. Ends are inclusive
    unless ``open_lo`` / ``open_hi`` make them strict."""

    lo: float = -math.inf
    hi: float = math.inf
    paper_value: Optional[float] = None
    source: str = ""
    open_lo: bool = False
    open_hi: bool = False

    def contains(self, value: float) -> bool:
        above = value > self.lo if self.open_lo else value >= self.lo
        below = value < self.hi if self.open_hi else value <= self.hi
        return above and below

    def __repr__(self) -> str:
        left = "(" if self.open_lo or self.lo == -math.inf else "["
        right = ")" if self.open_hi or self.hi == math.inf else "]"
        paper = f", paper={self.paper_value}" if self.paper_value is not None else ""
        return f"Band({left}{self.lo}, {self.hi}{right}{paper})"


def gt(x: float) -> Band:
    return Band(lo=x, open_lo=True)


def ge(x: float) -> Band:
    return Band(lo=x)


def lt(x: float) -> Band:
    return Band(hi=x, open_hi=True)


def le(x: float) -> Band:
    return Band(hi=x)


def paper(lo: float, hi: float, value: float, source: str, *, strict: str = "") -> Band:
    """A magnitude band around a number the paper states. ``strict`` names
    the open ends: "lo", "hi" or "both"."""
    return Band(
        lo, hi, value, source,
        open_lo=strict in ("lo", "both"), open_hi=strict in ("hi", "both"),
    )


#: A normalization baseline: 1.0 within pytest.approx's default 1e-6.
UNITY = Band(1 - 1e-6, 1 + 1e-6)


@dataclass(frozen=True)
class Claim:
    band: Band
    read: Reader


def _claims(
    experiment: str, *entries: Tuple[str, Band, Reader]
) -> Dict[Tuple[str, str], Claim]:
    return {(experiment, name): Claim(band, read) for name, band, read in entries}


def _speedup(report: Any, name: str) -> float:
    """Read a claim named ``<workload>/<a>`` (a speedup) or
    ``<workload>/<a>_over_<b>`` (a ratio of two) from ``report.speedups``."""
    workload, quantity = name.split("/")
    a, _, b = quantity.partition("_over_")
    s = report.speedups[workload]
    return float(s[a] / s[b]) if b else float(s[a])


def _speedups(bands: Dict[str, Band]) -> List[Tuple[str, Band, Reader]]:
    """Claims on a speedup table, each read by its own name."""
    return [(name, band, partial(_speedup, name=name)) for name, band in bands.items()]


def _lead(values: Dict[str, float], key: str, skip: Tuple[str, ...] = ()) -> float:
    """``values[key]`` over the largest other value (ignoring ``skip``):
    at least 1 exactly when ``key`` holds the maximum."""
    rest = [v for k, v in values.items() if k != key and k not in skip]
    return float(values[key] / max(rest))


def _over_second_lowest(values: Dict[str, float], key: str) -> float:
    return float(values[key] / sorted(values.values())[1])


def _row(report: Any, key: str) -> Any:
    """A Fig 2 row by workload, or a Fig 5b row by policy."""
    return {getattr(row, "policy", row.workload): row for row in report.rows}[key]


def _ref_frac(report: Any, workload: str) -> float:
    return float(_row(report, workload).references.kernel_fraction())


def _life(report: Any, workload: str, num: str, den: str) -> float:
    life = _row(report, workload).lifetimes
    return float(getattr(life, f"{num}_mean_ns") / getattr(life, f"{den}_mean_ns"))


def _fig5b(report: Any, value: Callable[[Any], float]) -> Dict[str, float]:
    return {row.policy: value(row) for row in report.rows}


def _downgrade_fraction(report: Any) -> float:
    klocs = _row(report, "klocs")
    return float(klocs.migrations_down / (klocs.migrations_down + klocs.migrations_up))


def _fig6(report: Any, cap: int, ratio: int, policy: str) -> float:
    return float(report.cell(cap, ratio, policy).avg)


def _fig6_lead_growth(report: Any, ratio: int) -> float:
    """Growth of KLOCs' lead over Nimble++ from 8GB to 32GB fast memory."""
    lead = {
        cap: _fig6(report, cap, ratio, "klocs") - _fig6(report, cap, ratio, "nimble++")
        for cap in (8, 32)
    }
    return lead[32] - lead[8]


def _fig6_advantage(report: Any, cap: int) -> float:
    return _fig6(report, cap, 8, "klocs") / _fig6(report, cap, 8, "nimble++")


FIG2_WORKLOADS = ("rocksdb", "redis", "filebench", "cassandra", "spark")
FIG4_WORKLOADS = ("rocksdb", "redis", "filebench", "cassandra")

#: Keyed by (registry id, claim name): the reproduction contract in data.
PAPER_EXPECTATIONS: Dict[Tuple[str, str], Claim] = {
    # Fig 2a: kernel objects are a large share of every footprint (§3.1).
    **_claims(
        "fig2a",
        ("workloads", Band(5, 5), lambda r: len(r.rows)),
        *[
            (f"{w}/kernel_footprint_frac", gt(0.25),
             lambda r, w=w: _row(r, w).footprint.kernel_fraction())
            for w in FIG2_WORKLOADS
        ],
        ("rocksdb/page_cache_over_other_kernel", ge(1.0),
         lambda r: _lead(_row(r, "rocksdb").footprint.breakdown(), "page_cache",
                         skip=("app",))),
        ("redis/sockbuf_footprint_frac", gt(0.02),
         lambda r: _row(r, "redis").footprint.breakdown()["sockbuf"]),
    ),
    # Fig 2b: the kernel share persists when inputs shrink 4x.
    **_claims(
        "fig2b",
        *[
            claim
            for w in ("rocksdb", "redis", "filebench")
            for claim in (
                (f"{w}/small_kernel_frac", gt(0.2),
                 lambda r, w=w: r.scaling[w]["small"]),
                (f"{w}/small_large_gap", lt(0.3),
                 lambda r, w=w: abs(r.scaling[w]["small"] - r.scaling[w]["large"])),
            )
        ],
    ),
    # Fig 2c: reference attribution bands (§3.1).
    **_claims(
        "fig2c",
        ("filebench/kernel_ref_frac",
         paper(0.75, 1.0, 0.86, "§3.1: 86% of time in OS", strict="lo"),
         lambda r: _ref_frac(r, "filebench")),
        ("rocksdb/kernel_ref_frac",
         paper(0.35, 0.70, 0.54, "§3.1: 54%", strict="both"),
         lambda r: _ref_frac(r, "rocksdb")),
        ("redis/kernel_ref_frac",
         paper(0.25, 0.55, 0.38, "§3.1: 38%", strict="both"),
         lambda r: _ref_frac(r, "redis")),
        ("cassandra/kernel_ref_frac_over_redis", lt(1.0),
         lambda r: _ref_frac(r, "cassandra") / _ref_frac(r, "redis")),
        ("filebench/kernel_ref_frac_over_rocksdb", gt(1.0),
         lambda r: _ref_frac(r, "filebench") / _ref_frac(r, "rocksdb")),
        ("rocksdb/kernel_ref_frac_over_cassandra", gt(1.0),
         lambda r: _ref_frac(r, "rocksdb") / _ref_frac(r, "cassandra")),
    ),
    # Fig 2d: slab < page cache < application lifetimes, orders apart.
    **_claims(
        "fig2d",
        *[
            claim
            for w in ("rocksdb", "redis")
            for claim in (
                (f"{w}/page_cache_over_slab_lifetime", gt(1.0),
                 lambda r, w=w: _life(r, w, "page_cache", "slab")),
                (f"{w}/app_over_page_cache_lifetime", ge(1.0),
                 lambda r, w=w: _life(r, w, "app", "page_cache")),
                (f"{w}/app_over_slab_lifetime", gt(5.0),
                 lambda r, w=w: _life(r, w, "app", "slab")),
            )
        ],
    ),
    # Fig 4: two-tier speedups vs All Slow (§7.1).
    **_claims(
        "fig4",
        *_speedups({
            **{f"{w}/all_slow": UNITY for w in FIG4_WORKLOADS},
            "rocksdb/klocs_over_naive": paper(
                1.1, 2.5, 1.96, "§7.1: KLOCs 1.96x over Naive (RocksDB)", strict="both"
            ),
            "redis/klocs_over_naive": paper(
                1.3, 3.0, 2.2, "§7.1: KLOCs 2.2x over Naive (Redis)", strict="both"
            ),
            "filebench/klocs_over_naive": gt(1.0),
            "cassandra/klocs_over_naive": gt(1.0),
            "rocksdb/klocs_over_nimble": gt(1.0),
            "redis/klocs_over_nimble": paper(
                1.15, 3.2, 2.7, "§7.1: KLOCs 2.7x over Nimble (Redis)", strict="lo"
            ),
            "filebench/klocs_over_nimble": gt(1.0),
            "cassandra/klocs_over_nimble": gt(1.0),
            # Migration is the difference between the two KLOC bars.
            "rocksdb/klocs_over_klocs_nomigration": gt(1.05),
            "redis/klocs_over_klocs_nomigration": ge(0.98),
            "filebench/klocs_over_klocs_nomigration": ge(0.98),
            "cassandra/klocs_over_klocs_nomigration": ge(0.98),
            "rocksdb/klocs_nomigration_over_naive": paper(
                0.9, 2.2, 1.61, "§7.1: KLOCs-nomigration 1.61x over Naive"
            ),
            "rocksdb/klocs_over_nimble++": gt(1.0),
            "redis/klocs_over_nimble++": gt(1.0),
            "filebench/klocs_over_nimble++": gt(0.97),
            "cassandra/klocs_over_nimble++": paper(
                0.85, 1.25, 1.0, "§7.1: KLOCs similar to Nimble++ for Cassandra",
                strict="both",
            ),
        }),
        # All Fast is the ceiling, within 5%.
        *[
            (f"{w}/max_over_all_fast", le(1.05),
             lambda r, w=w: max(r.speedups[w].values()) / r.speedups[w]["all_fast"])
            for w in FIG4_WORKLOADS
        ],
        # Cassandra benefits least from the all-fast ideal.
        ("cassandra/all_fast_over_second_lowest", le(1.2),
         lambda r: _over_second_lowest(
             {w: s["all_fast"] for w, s in r.speedups.items()}, "cassandra")),
    ),
    # Fig 5a: Optane Memory Mode under interference (§7.1), vs all-remote.
    **_claims(
        "fig5a",
        *_speedups({
            name: band
            for w in ("rocksdb", "redis")
            for name, band in {
                f"{w}/all_remote": UNITY,
                f"{w}/autonuma": gt(1.0),
                f"{w}/all_local": paper(1.3, 3.5, 1.6, "§7.1: ideal 1.6x"),
                f"{w}/klocs_over_autonuma": paper(
                    1.05, 2.0, 1.5, "§7.1: KLOCs ~1.5x over AutoNUMA"
                ),
                f"{w}/klocs_over_nimble": paper(
                    1.0, 1.8, 1.4, "§7.1: KLOCs ~1.4x over Nimble"
                ),
                f"{w}/klocs_over_all_local": gt(0.8),
                f"{w}/autonuma_over_all_local": lt(1.0),
            }.items()
        }),
    ),
    # Fig 5b: RocksDB slow-memory allocations and migrations (§4.4).
    **_claims(
        "fig5b",
        ("rocksdb/klocs_slow_page_cache_over_nimble", lt(1.0),
         lambda r: _row(r, "klocs").slow_allocs["page_cache"]
         / _row(r, "nimble").slow_allocs["page_cache"]),
        ("rocksdb/nimble_slow_page_cache_over_rest", ge(1.0),
         lambda r: _lead(_fig5b(r, lambda p: p.slow_allocs["page_cache"]), "nimble")),
        ("rocksdb/naive_migrations_down", Band(0, 0),
         lambda r: _row(r, "naive").migrations_down),
        ("rocksdb/naive_migrations_up", Band(0, 0),
         lambda r: _row(r, "naive").migrations_up),
        ("rocksdb/klocs_migrations_down", gt(0),
         lambda r: _row(r, "klocs").migrations_down),
        ("rocksdb/klocs_downgrade_fraction",
         paper(0.5, 1.0, 0.88, "§4.4: downgrades are 88% of migrations", strict="lo"),
         _downgrade_fraction),
        ("rocksdb/klocs_fast_ref_frac_over_rest", ge(1.0),
         lambda r: _lead(_fig5b(r, lambda p: p.fast_ref_fraction), "klocs")),
    ),
    # Fig 5c: adding kernel-object types to KLOC coverage (§7.3).
    **_claims(
        "fig5c",
        *_speedups({
            "rocksdb/page_cache_over_none": gt(1.03),
            "rocksdb/block_io": gt(0.97),
            "redis/block_io_over_none": gt(1.05),
            "redis/sockbuf_over_journal": ge(0.97),
            "redis/block_io": gt(0.97),
        }),
    ),
    # Fig 6: capacity x bandwidth sensitivity. Names lead with the cell.
    **_claims(
        "fig6",
        *[
            (f"8GB/{p}_1:8_over_1:2", gt(1.0),
             lambda r, p=p: _fig6(r, 8, 8, p) / _fig6(r, 8, 2, p))
            for p in ("nimble", "nimble++", "klocs")
        ],
        *[
            (f"1:{ratio}/klocs_lead_growth_8GB_to_32GB", lt(0.35),
             lambda r, ratio=ratio: _fig6_lead_growth(r, ratio))
            for ratio in (8, 4)
        ],
        ("8GB_1:8/klocs_over_nimble", gt(1.0),
         lambda r: _fig6(r, 8, 8, "klocs") / _fig6(r, 8, 8, "nimble")),
        ("8GB_1:8/klocs_over_nimble++", gt(0.97),
         lambda r: _fig6(r, 8, 8, "klocs") / _fig6(r, 8, 8, "nimble++")),
        ("8GB_1:8/klocs_avg_over_min", ge(1.0),
         lambda r: r.cell(8, 8, "klocs").avg / r.cell(8, 8, "klocs").lo),
        ("8GB_1:8/klocs_avg_over_max", le(1.0),
         lambda r: r.cell(8, 8, "klocs").avg / r.cell(8, 8, "klocs").hi),
        ("1:8/klocs_advantage_8GB_over_32GB", ge(0.9),
         lambda r: _fig6_advantage(r, 8) / _fig6_advantage(r, 32)),
        ("1:8/klocs_32GB_over_4GB", gt(1.0),
         lambda r: _fig6(r, 32, 8, "klocs") / _fig6(r, 4, 8, "klocs")),
    ),
    # Table 6: KLOC metadata overhead, scaled to paper-equivalent MB.
    **_claims(
        "table6",
        *[
            (f"{w}/fraction_of_fast_mem", lt(0.02),
             lambda r, w=w: r.fraction_of_memory(w))
            for w in FIG2_WORKLOADS
        ],
        *[
            (f"{w}/paper_equivalent_mb", band,
             lambda r, w=w: r.paper_equivalent_mb(w))
            for w, band in {
                "rocksdb": paper(40.0, 250.0, 101.0, "Table 6"),
                "redis": paper(1.0, 300.0, 83.0, "Table 6", strict="both"),
                "filebench": paper(1.0, 300.0, 44.0, "Table 6", strict="both"),
                "cassandra": paper(2.0, 60.0, 12.0, "Table 6"),
                "spark": paper(1.0, 300.0, 43.0, "Table 6", strict="both"),
            }.items()
        ],
        ("rocksdb/metadata_over_rest", ge(1.0),
         lambda r: _lead(r.metadata_bytes, "rocksdb")),
        ("cassandra/metadata_over_second_lowest", le(1.0),
         lambda r: _over_second_lowest(r.metadata_bytes, "cassandra")),
    ),
    # §4.3: per-CPU knode lists.
    **_claims(
        "percpu",
        ("rocksdb/fast_path_hit_frac",
         paper(0.40, 1.0, 0.54, "§4.3: per-CPU lists absorb 54% of accesses",
               strict="lo"),
         lambda r: r.fast_path_reduction),
        ("rocksdb/kmap_accesses_on_over_off", lt(1.0),
         lambda r: r.kmap_accesses_with / r.kmap_accesses_without),
        ("rocksdb/kmap_access_reduction", gt(0.25), lambda r: r.access_reduction),
    ),
    # §7.3: prefetching, readahead on over off.
    **_claims(
        "prefetch",
        ("rocksdb/klocs_readahead_gain",
         paper(1.0, 2.0, 1.26, "§7.3: RocksDB x1.26 with KLOC-aware prefetch",
               strict="both"),
         lambda r: r.ratio("rocksdb", "klocs")),
        ("rocksdb/klocs_gain_over_naive_gain", gt(0.95),
         lambda r: r.ratio("rocksdb", "klocs") / r.ratio("rocksdb", "naive")),
    ),
}
