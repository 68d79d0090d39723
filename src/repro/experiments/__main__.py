"""CLI: regenerate any of the paper's figures/tables.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig4
    python -m repro.experiments fig5b --ops 8000
    python -m repro.experiments prefetch --verdict    # check the paper's claims
    python -m repro.experiments fig4 --jobs 8         # parallel sweep
    python -m repro.experiments fig4 --no-cache       # force recompute
    python -m repro.experiments --cache-info          # result-cache usage
    python -m repro.experiments --cache-clear         # empty the result cache
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.registry import EXPERIMENTS


def _cache_maintenance(info: bool, clear: bool) -> int:
    """Report or empty the result cache."""
    from repro.experiments.cache import ResultCache, usage

    cache = ResultCache(enabled=True)
    if clear:
        print(f"cleared: {cache.clear()} result(s)")
        return 0

    results = usage(cache.root)
    print(f"cache root: {cache.root}")
    print(
        f"  results:   {results['files']:5d} file(s)"
        f"  {results['bytes'] / (1 << 20):8.2f} MB"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate KLOC paper figures/tables on the simulator.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (or 'list' to enumerate)",
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="override the per-run op budget"
    )
    parser.add_argument(
        "--save", default=None, metavar="PATH", help="also write the report as JSON"
    )
    parser.add_argument(
        "--verdict",
        action="store_true",
        help="check the report against the paper's claims; "
        "exit 1 on any MISS",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for grid experiments "
        "(default: REPRO_JOBS or all cores; 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and don't write the .repro_cache result cache",
    )
    parser.add_argument(
        "--cache-info",
        action="store_true",
        help="print result-cache usage and exit",
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="delete every cached result, then exit",
    )
    args = parser.parse_args(argv)

    if args.cache_info or args.cache_clear:
        return _cache_maintenance(args.cache_info, args.cache_clear)
    if args.experiment is None:
        parser.error("an experiment id is required (or 'list' to enumerate)")

    # The engine reads these from the environment so every entry point
    # (figure runners, run_sweep, examples) honors one mechanism. This
    # CLI prologue runs before any component is constructed, so the
    # writes *are* construction-time configuration.
    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        os.environ["REPRO_JOBS"] = str(args.jobs)  # simlint: ok[env-knob]
    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"  # simlint: ok[env-knob]

    if args.experiment == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for exp in EXPERIMENTS.values():
            print(f"{exp.experiment_id:<{width}}  {exp.description}")
        return 0

    exp = EXPERIMENTS.get(args.experiment)
    if exp is None:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'",
            file=sys.stderr,
        )
        return 2

    kwargs = {"ops": args.ops} if args.ops is not None else {}
    report = exp.runner(**kwargs)
    print(report.format_report())

    if args.save:
        from repro.analysis.results import save_results

        path = save_results(
            report, args.save, experiment=args.experiment, config=kwargs
        )
        print(f"\nsaved: {path}")

    if args.verdict:
        from repro.analysis.verdict import check

        verdict = check(args.experiment, report)
        print("\n" + verdict.format_report())
        return 0 if verdict.ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
