"""CLI for simlint: ``python -m repro.analysis src/``.

Exit status 0 when the tree is clean, 1 when any violation survives
suppression filtering, 2 on usage errors. ``--select`` narrows to a
subset of rules; ``--list-rules`` prints the catalog.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.simlint.engine import format_report, lint_paths
from repro.analysis.simlint.rules import DEFAULT_RULES


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "simlint: determinism / env-knob / hot-path / counter-balance "
            "static analysis for the simulator sources"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in DEFAULT_RULES:
            print(f"{rule.id:16s} {rule.description}")
        return 0

    rules: List = list(DEFAULT_RULES)
    if args.select:
        known = {rule.id for rule in rules}
        unknown = set(args.select) - known
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in set(args.select)]

    try:
        violations = lint_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if violations:
        print(format_report(violations))
        print(
            f"\nsimlint: {len(violations)} violation(s) "
            f"across {len({v.path for v in violations})} file(s)",
            file=sys.stderr,
        )
        return 1
    print("simlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
