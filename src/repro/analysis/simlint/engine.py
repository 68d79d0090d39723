"""simlint engine: source loading, suppression comments, rule protocol.

simlint is the repository's determinism/hot-path lint: a small set of
AST rules (:mod:`repro.analysis.simlint.rules`) that encode the
contracts the fast paths rest on — all randomness through
``repro.core.rng``, env knobs read at construction only, ``@hot``
functions allocation-free, incremental counters balanced. The engine is
deliberately tiny: one pass of ``ast.parse`` per file, rules are plain
visitors, and everything is pure so the lint itself is deterministic.

Suppression syntax (checked on the flagged line or the line above)::

    foo = time.perf_counter()  # simlint: ok[determinism] host-side timing

    # simlint: ok[hash-order] deletions commute; order cannot leak
    for cpu in holders:
        ...

Several ids may be listed: ``# simlint: ok[determinism, env-knob]``.
A function may be declared a legitimate environment-knob read site by
putting ``# simlint: config-site`` on its ``def`` (or decorator) line —
see :class:`~repro.analysis.simlint.rules.EnvKnobRule`.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: ``# simlint: ok[rule-a, rule-b] optional reason``
SUPPRESS_RE = re.compile(r"#\s*simlint:\s*ok\[([a-z0-9_,\s-]+)\]")
#: ``# simlint: config-site`` — marks a def as an env-knob read site.
CONFIG_SITE_RE = re.compile(r"#\s*simlint:\s*config-site\b")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class SourceFile:
    """A parsed module plus its suppression/config-site comment maps."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        #: line number → rule ids suppressed on that line.
        self.suppressions: Dict[int, Set[str]] = {}
        #: lines carrying a ``config-site`` marker.
        self.config_site_lines: Set[int] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = SUPPRESS_RE.search(line)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                self.suppressions[lineno] = {i for i in ids if i}
            if CONFIG_SITE_RE.search(line):
                self.config_site_lines.add(lineno)

    @property
    def module_name(self) -> str:
        """Dotted module path (best effort: the tail after ``src/``)."""
        parts = Path(self.path).with_suffix("").parts
        if "src" in parts:
            parts = parts[parts.index("src") + 1 :]
        elif "repro" in parts:
            parts = parts[parts.index("repro") :]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """True when the line (or the one above it) suppresses the rule."""
        for line in (lineno, lineno - 1):
            if rule_id in self.suppressions.get(line, ()):
                return True
        return False

    def is_config_site(self, node: ast.AST) -> bool:
        """True when a def carries the ``config-site`` marker on its
        ``def`` line or any decorator line."""
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        first = min(
            [node.lineno] + [d.lineno for d in node.decorator_list]
        )
        body_start = node.body[0].lineno if node.body else node.lineno + 1
        return any(
            line in self.config_site_lines for line in range(first, body_start + 1)
        )


class Rule:
    """Base class: one pluggable lint rule.

    Subclasses set :attr:`id`/:attr:`description` and implement
    :meth:`check` yielding raw findings; the engine applies suppression
    filtering, so rules never need to know about comments.
    """

    id: str = "abstract"
    description: str = ""

    def check(self, src: SourceFile) -> Iterator[Violation]:
        raise NotImplementedError

    def check_all(self, sources: Sequence[SourceFile]) -> Iterator[Violation]:
        """Findings that need every linted file at once (none by default)."""
        return iter(())

    def violation(self, src: SourceFile, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")


def _lint(sources: Sequence[SourceFile], rules: Sequence[Rule]) -> List[Violation]:
    by_path = {src.path: src for src in sources}
    out: List[Violation] = []
    for rule in rules:
        found: List[Violation] = []
        for src in sources:
            found.extend(rule.check(src))
        found.extend(rule.check_all(sources))
        for violation in found:
            if not by_path[violation.path].is_suppressed(rule.id, violation.line):
                out.append(violation)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def lint_source(
    text: str, *, path: str = "<string>", rules: Sequence[Rule]
) -> List[Violation]:
    """Lint one source string; returns suppression-filtered violations."""
    return _lint([SourceFile(path, text)], rules)


def lint_paths(
    paths: Sequence[str], *, rules: Optional[Sequence[Rule]] = None
) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` with the given rules
    (default: the full registry)."""
    if rules is None:
        from repro.analysis.simlint.rules import DEFAULT_RULES

        rules = DEFAULT_RULES
    sources = [
        SourceFile(str(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    ]
    return _lint(sources, rules)


def format_report(violations: Iterable[Violation]) -> str:
    return "\n".join(v.format() for v in violations)
