"""Result analysis: persist experiment reports, compare against the
paper's expected bands, and summarize reproduction status — the
"analysis scripts" side of the artifact."""

from repro.analysis.expectations import PAPER_EXPECTATIONS, Band
from repro.analysis.results import load_results, save_results
from repro.analysis.sweep import SweepResult, run_sweep
from repro.analysis.verdict import Verdict, check

__all__ = [
    "Band",
    "PAPER_EXPECTATIONS",
    "save_results",
    "load_results",
    "run_sweep",
    "SweepResult",
    "Verdict",
    "check",
]
