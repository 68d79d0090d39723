"""Reproduction verdicts: check a report against the paper's claims.

``check(experiment_id, report)`` evaluates every claim the table in
:mod:`repro.analysis.expectations` holds for that registry id. A claim
whose value cannot be read from the report is a MISS, never skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List

from repro.analysis.expectations import PAPER_EXPECTATIONS, Band


@dataclass
class Check:
    """One claim checked against its band."""

    experiment: str
    metric: str
    measured: float
    band: Band
    ok: bool
    #: Why the value could not be read; empty when it was.
    error: str = ""

    def __repr__(self) -> str:
        mark = "PASS" if self.ok else "MISS"
        value = f"unreadable ({self.error})" if self.error else f"{self.measured:.3f}"
        return (
            f"[{mark}] {self.experiment}/{self.metric}: "
            f"measured={value}, expected {self.band!r}"
        )


@dataclass
class Verdict:
    """A bundle of checks with an overall pass flag."""

    checks: List[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(
        self, experiment: str, metric: str, measured: float, error: str = ""
    ) -> Check:
        band = PAPER_EXPECTATIONS[(experiment, metric)].band
        ok = not error and band.contains(measured)
        result = Check(experiment, metric, measured, band, ok, error)
        self.checks.append(result)
        return result

    def format_report(self) -> str:
        return "\n".join(repr(c) for c in self.checks)


def check(experiment_id: str, report: Any) -> Verdict:
    """Audit one experiment's report against every claim keyed to its id."""
    verdict = Verdict()
    for (experiment, metric), claim in PAPER_EXPECTATIONS.items():
        if experiment != experiment_id:
            continue
        try:
            verdict.add(experiment, metric, claim.read(report))
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            verdict.add(experiment, metric, math.nan, f"{type(exc).__name__}: {exc}")
    if not verdict.checks:
        raise KeyError(f"no claims recorded for experiment {experiment_id!r}")
    return verdict
