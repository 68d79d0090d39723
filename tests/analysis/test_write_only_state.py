"""No write-only state: every attribute ``src/`` stores is read somewhere.

An AST scan collects each attribute name that ``src/`` assigns
(``obj.name = ...`` or ``obj.name += ...``) and each name that
``src/``, ``examples/``, ``perfbench/`` or ``tests/`` loads
(``obj.name`` in a load context, or ``getattr``/``hasattr`` with a
literal name). A stored name that nothing loads is a counter or field no
report, check or test can see; it costs a store on its path and a line
to maintain, so it is deleted instead of kept.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[2]
READERS = ("src", "examples", "perfbench", "tests")


def _scan(
    tree: ast.AST,
    path: str,
    stored: Dict[str, List[str]],
    loaded: Set[str],
    *,
    record_stores: bool,
) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif record_stores and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, []).append(f"{path}:{node.lineno}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            loaded.add(node.args[1].value)


def write_only_attributes() -> Dict[str, List[str]]:
    """Attribute name → store sites, for names stored in ``src/`` and
    loaded nowhere in :data:`READERS`."""
    stored: Dict[str, List[str]] = {}
    loaded: Set[str] = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = str(path.relative_to(ROOT))
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
            _scan(tree, rel, stored, loaded, record_stores=top == "src")
    return {name: sites for name, sites in sorted(stored.items()) if name not in loaded}


def test_scan_sees_the_tree():
    # Guard against a vacuous pass (a wrong root finds no files).
    assert (ROOT / "src" / "repro" / "kernel" / "kernel.py").is_file()


def test_every_stored_attribute_is_read():
    unread = write_only_attributes()
    assert not unread, "attributes stored in src/ but never read: " + "; ".join(
        f"{name} ({', '.join(sites)})" for name, sites in unread.items()
    )
