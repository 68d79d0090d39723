"""A run imports only the modules it executes.

The packages re-export nothing, the workload and policy registries
import a class's module on lookup, and the kernel imports its KLOC and
NUMA machinery only when the policy uses it. The import checks run in
fresh interpreters, since the test session itself imports every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a two-tier nimble kernel plus the redis workload never call.
NIMBLE_REDIS_UNUSED = (
    "repro.ds.rbtree",
    "repro.kloc.manager",
    "repro.kloc.migrationd",
    "repro.mem.hwcache",
    "repro.mem.node",
    "repro.policies.klocs",
    "repro.policies.autonuma",
    "repro.workloads.rocksdb",
    "repro.workloads.filebench",
    "repro.workloads.cassandra",
    "repro.workloads.spark",
)

#: Package ``__init__`` files allowed module-level imports, and which.
#: ``analysis`` is not in a run's import graph; the three PEP 562 tables
#: need only the lazy-import machinery.
INIT_IMPORTS_ALLOWED = {
    "analysis": None,
    "experiments": {"importlib", "collections.abc"},
    "policies": {"importlib", "collections.abc"},
    "workloads": {"importlib", "collections.abc"},
}


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(out.stdout)


def _loaded_after(build: str, modules) -> list:
    code = (
        "import json, sys\n"
        f"{build}\n"
        f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))\n"
    )
    return _fresh(code)


def test_kernel_build_does_not_import_rbtree():
    build = "import repro.kernel.kernel, repro.workloads.rocksdb"
    assert _loaded_after(build, ["repro.ds.rbtree"]) == []


def test_nimble_redis_run_leaves_unused_modules_unloaded():
    build = (
        "from repro.platforms.twotier import build_two_tier_kernel\n"
        "from repro.workloads import WORKLOADS\n"
        "kernel, _ = build_two_tier_kernel('nimble')\n"
        "WORKLOADS['redis']"
    )
    assert _loaded_after(build, NIMBLE_REDIS_UNUSED) == []


def test_klocs_and_optane_builds_load_their_machinery():
    kloc = ["repro.kloc.manager", "repro.kloc.migrationd", "repro.policies.klocs"]
    build = (
        "from repro.platforms.twotier import build_two_tier_kernel\n"
        "build_two_tier_kernel('klocs')"
    )
    assert _loaded_after(build, kloc) == kloc
    numa = ["repro.mem.node", "repro.mem.hwcache", "repro.policies.autonuma"]
    build = (
        "from repro.platforms.optane import build_optane_kernel\n"
        "build_optane_kernel('autonuma')"
    )
    assert _loaded_after(build, numa) == numa


def test_registry_lookup_is_the_defining_class():
    # perfbench patches classes in place, so a registry must hand back the
    # defining module's class object, not a copy. Look up first, then
    # import the module, so the lazy path is the one checked.
    code = (
        "import importlib, json\n"
        "from repro.policies import OPTANE_POLICIES, TWO_TIER_POLICIES\n"
        "from repro.workloads import WORKLOADS\n"
        "bad = []\n"
        "for registry in (WORKLOADS, TWO_TIER_POLICIES, OPTANE_POLICIES):\n"
        "    for key in registry:\n"
        "        cls = registry[key]\n"
        "        home = importlib.import_module(cls.__module__)\n"
        "        package = importlib.import_module(cls.__module__.rpartition('.')[0])\n"
        "        if not (getattr(home, cls.__name__) is cls\n"
        "                and getattr(package, cls.__name__) is cls):\n"
        "            bad.append(key)\n"
        "print(json.dumps(bad))\n"
    )
    assert _fresh(code) == []


def _module_level_imports(tree: ast.Module) -> set:
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def test_package_inits_import_nothing():
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert len(inits) > 10  # a wrong root would pass vacuously
    offenders = {}
    for path in inits:
        package = path.parent.relative_to(SRC / "repro").parts
        allowed = INIT_IMPORTS_ALLOWED.get(package[0] if package else "", set())
        if allowed is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        extra = sorted(_module_level_imports(tree) - allowed)
        if extra:
            offenders[".".join(("repro",) + package)] = extra
    assert offenders == {}, "module-level imports in " + ", ".join(sorted(offenders))
