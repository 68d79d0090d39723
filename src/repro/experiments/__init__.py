"""Experiment harness: one module per paper figure/table.

Every experiment returns a structured result object with a
``format_report()`` method printing the same rows/series the paper
reports; ``repro.analysis.verdict.check`` holds each one to the paper's
claims (``python -m repro.experiments <id> --verdict``).
"""

import importlib

#: Public name -> defining module. Resolved on first attribute access
#: (PEP 562), so importing one submodule such as ``runner`` does not load
#: every figure module and the process pool.
_EXPORTS = {
    "ResultCache": "cache",
    "RunSpec": "cache",
    "SIM_VERSION": "cache",
    "two_tier_spec": "cache",
    "run_fig2a_footprint": "fig2",
    "run_fig2b_scaling": "fig2",
    "run_fig2c_references": "fig2",
    "run_fig2d_lifetimes": "fig2",
    "run_figure4": "fig4",
    "run_fig5a_optane": "fig5",
    "run_fig5b_sources": "fig5",
    "run_fig5c_objtypes": "fig5",
    "run_figure6": "fig6",
    "run_percpu_ablation": "percpu_ablation",
    "run_prefetch_study": "prefetch",
    "default_jobs": "parallel",
    "run_specs": "parallel",
    "EXPERIMENTS": "registry",
    "TwoTierRun": "runner",
    "run_two_tier": "runner",
    "run_table6_overhead": "table6",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
