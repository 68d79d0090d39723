"""Fixture-driven tests for the simlint rules, suppression, and CLI.

Each rule has a bad/good fixture pair under ``fixtures/``: the bad file
must trip the rule (and only sensible rules), the good file must lint
clean. Fixtures live outside ``src/`` so ``python -m repro.analysis src``
stays clean while every rule provably still fires.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.simlint.engine import (
    format_report,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.simlint.rules import DEFAULT_RULES, HotPathRule

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
RULE_IDS = [rule.id for rule in DEFAULT_RULES]

PAIRS = [
    ("determinism", "determinism_bad.py", "determinism_good.py"),
    ("hash-order", "hash_order_bad.py", "hash_order_good.py"),
    ("env-knob", "env_knob_bad.py", "env_knob_good.py"),
    ("hotpath", "hotpath_bad.py", "hotpath_good.py"),
    ("counter-balance", "counter_balance_bad.py", "counter_balance_good.py"),
    ("snapshot-path", "snapshot_path_bad.py", "snapshot_path_good.py"),
]


def rules_hit(path: Path):
    return {v.rule for v in lint_paths([str(path)])}


def test_registry_covers_all_six_rules():
    assert RULE_IDS == [
        "determinism",
        "hash-order",
        "env-knob",
        "hotpath",
        "counter-balance",
        "snapshot-path",
    ]


@pytest.mark.parametrize("rule_id,bad,good", PAIRS)
def test_bad_fixture_trips_rule(rule_id, bad, good):
    assert rule_id in rules_hit(FIXTURES / bad)


@pytest.mark.parametrize("rule_id,bad,good", PAIRS)
def test_good_fixture_is_clean(rule_id, bad, good):
    violations = lint_paths([str(FIXTURES / good)])
    assert violations == [], format_report(violations)


def test_every_rule_has_a_failing_fixture():
    """Acceptance: each rule demonstrably fires on at least one fixture."""
    hit = set()
    for _, bad, _good in PAIRS:
        hit |= rules_hit(FIXTURES / bad)
    assert hit >= set(RULE_IDS)


def test_stale_whitelist_entry_reported(tmp_path):
    """A whitelist entry no @hot function calls (outside a raise) is
    reported at its line in the module that declares the whitelist."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "core" / "hotpath.py").write_text(
        "HOT_CALLEE_WHITELIST = {\n"
        '    "len",\n'
        '    "stale",  # line 3\n'
        '    "ValueError",  # line 4: only ever called inside a raise\n'
        "}\n"
    )
    (pkg / "mod.py").write_text(
        "from repro.core.hotpath import hot\n"
        "\n"
        "\n"
        "@hot\n"
        "def size(xs):\n"
        "    if xs is None:\n"
        "        raise ValueError(len(xs))\n"
        "    return len(xs)\n"
    )
    rule = HotPathRule(whitelist={"len", "stale", "ValueError"})
    violations = lint_paths([str(tmp_path / "src")], rules=[rule])
    assert [(Path(v.path).name, v.line, v.rule) for v in violations] == [
        ("hotpath.py", 3, "hotpath"),
        ("hotpath.py", 4, "hotpath"),
    ]
    assert "'stale'" in violations[0].message
    # Without the declaring module in the lint there is nothing to check.
    assert lint_paths([str(pkg / "mod.py")], rules=[rule]) == []


def test_violation_carries_location_and_message():
    (violation,) = [
        v
        for v in lint_paths([str(FIXTURES / "hash_order_bad.py")])
        if "sorted" in v.message or "id()" in v.message
    ]
    assert violation.rule == "hash-order"
    assert violation.line > 0
    assert violation.path.endswith("hash_order_bad.py")
    assert f":{violation.line}:" in violation.format()


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------


def test_suppressed_fixture_is_clean():
    assert lint_paths([str(FIXTURES / "suppressed.py")]) == []


def test_suppression_is_line_scoped():
    text = FIXTURES.joinpath("suppressed.py").read_text()
    stripped = text.replace("# simlint: ok[hash-order]", "# marker removed")
    violations = lint_source(stripped, rules=DEFAULT_RULES)
    assert {v.rule for v in violations} == {"hash-order"}
    assert len(violations) == 2  # both list(MEMBERS) sites resurface


def test_wrong_rule_id_does_not_suppress():
    text = (
        "from typing import Set\n"
        "MEMBERS: Set[int] = set()\n"
        "def snapshot():\n"
        "    return list(MEMBERS)  # simlint: ok[determinism] wrong rule\n"
    )
    violations = lint_source(text, rules=DEFAULT_RULES)
    assert [v.rule for v in violations] == ["hash-order"]


def test_multiple_ids_in_one_marker():
    text = (
        "import time  # simlint: ok[determinism, env-knob] fixture\n"
        "def stamp():\n"
        "    return time.monotonic()  # simlint: ok[determinism]\n"
    )
    assert lint_source(text, rules=DEFAULT_RULES) == []


# ----------------------------------------------------------------------
# engine plumbing
# ----------------------------------------------------------------------


def test_iter_python_files_rejects_non_python():
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([str(FIXTURES / "missing.txt")]))


def test_source_tree_is_clean():
    """The shipped simulator sources must lint clean — the CI gate."""
    violations = lint_paths([str(REPO_ROOT / "src")])
    assert violations == [], format_report(violations)


# ----------------------------------------------------------------------
# CLI (python -m repro.analysis)
# ----------------------------------------------------------------------


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


def test_cli_clean_file_exits_zero():
    proc = run_cli(str(FIXTURES / "determinism_good.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_bad_file_exits_one_with_report():
    proc = run_cli(str(FIXTURES / "determinism_bad.py"))
    assert proc.returncode == 1
    assert "[determinism]" in proc.stdout
    assert "violation(s)" in proc.stderr


def test_cli_select_narrows_rules():
    proc = run_cli("--select", "hotpath", str(FIXTURES / "determinism_bad.py"))
    assert proc.returncode == 0  # determinism findings filtered out


def test_cli_unknown_rule_exits_two():
    proc = run_cli("--select", "no-such-rule", str(FIXTURES))
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in RULE_IDS:
        assert rule_id in proc.stdout
