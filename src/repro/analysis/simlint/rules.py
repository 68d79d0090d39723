"""The six simlint rules.

Each rule is a small AST pass encoding one contract the simulator's
correctness rests on (see ``docs/ANALYSIS.md`` for the catalog with
examples and rationale):

``determinism``
    all randomness/wall-clock flows through ``repro.core.rng`` and
    ``repro.core.clock``; nothing else imports ``random``/``time``/
    ``uuid``/``secrets`` or calls ``os.urandom``.
``hash-order``
    no hash-order-dependent construct may feed ordered results:
    iterating a set (or a set-valued mapping entry) into a loop, list or
    tuple, and ``key=id`` sorts, are flagged.
``env-knob``
    ``os.environ``/``os.getenv`` may be touched only at module level, in
    ``__init__``, or in a function marked ``# simlint: config-site`` —
    the result cache keys on construction-time configuration, so
    mid-run reads are cache-poisoning bugs.
``hotpath``
    functions registered via :func:`repro.core.hotpath.hot` must stay
    allocation-free: no closures/lambdas/comprehensions, no recursion,
    and every callee on :data:`repro.core.hotpath.HOT_CALLEE_WHITELIST`
    (calls inside ``raise`` statements are exempt — error paths are
    cold by definition). When the lint covers ``repro.core.hotpath``,
    every whitelist entry must be called by some ``@hot`` function.
``counter-balance``
    incrementally maintained counters must balance: paired monotonic
    counters (created/deleted, allocs/frees) both move in any module
    that moves one, up/down counters have a decrement wherever they
    have an increment, and metadata-bearing growth sites sample the
    peak in the same function.
``snapshot-path``
    simulator state is never serialized or deep-copied: runs cross
    process and disk boundaries only as ``RunSpec`` inputs and JSON
    payloads, so ``pickle``/``marshal``/``dill``/``shelve`` imports and
    ``copy.deepcopy`` calls are flagged everywhere.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.simlint.engine import Rule, SourceFile, Violation

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _enclosing_functions(
    tree: ast.AST,
) -> Dict[ast.AST, Tuple[ast.FunctionDef, ...]]:
    """Map every node to its chain of enclosing function defs (outermost
    first). Module-level nodes map to an empty tuple."""
    out: Dict[ast.AST, Tuple[ast.FunctionDef, ...]] = {}

    def walk(node: ast.AST, stack: Tuple[ast.FunctionDef, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            out[child] = stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, stack + (child,))
            else:
                walk(child, stack)

    out[tree] = ()
    walk(tree, ())
    return out


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``x`` for ``self.x``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class DeterminismRule(Rule):
    """Nondeterminism sources outside the sanctioned core modules."""

    id = "determinism"
    description = (
        "randomness/wall-clock only via repro.core.rng and repro.core.clock"
    )

    #: Importing these anywhere else is a determinism hazard.
    BANNED_MODULES = {"random", "uuid", "secrets", "time"}
    #: ``module name`` → attribute calls banned on it. ``"*"`` bans all.
    BANNED_CALLS: Dict[str, Set[str]] = {
        "os": {"urandom", "getrandom"},
        "random": {"*"},
        "uuid": {"*"},
        "secrets": {"*"},
        "time": {"*"},
        "datetime": {"now", "utcnow", "today"},
    }
    #: Modules allowed to wrap the entropy/clock primitives.
    ALLOWED_MODULES = {"repro.core.rng", "repro.core.clock"}

    def check(self, src: SourceFile) -> Iterator[Violation]:
        if src.module_name in self.ALLOWED_MODULES:
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield self.violation(
                            src,
                            node,
                            f"import of {alias.name!r}: randomness and "
                            f"wall-clock must flow through repro.core.rng / "
                            f"repro.core.clock",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self.BANNED_MODULES:
                    yield self.violation(
                        src,
                        node,
                        f"import from {node.module!r}: randomness and "
                        f"wall-clock must flow through repro.core.rng / "
                        f"repro.core.clock",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    banned = self.BANNED_CALLS.get(func.value.id)
                    if banned and ("*" in banned or func.attr in banned):
                        yield self.violation(
                            src,
                            node,
                            f"call to {func.value.id}.{func.attr}(): "
                            f"nondeterministic source outside "
                            f"repro.core.rng / repro.core.clock",
                        )


# ---------------------------------------------------------------------------
# hash-order
# ---------------------------------------------------------------------------


def _ann_is_set(ann: str) -> bool:
    ann = ann.strip()
    if ann.startswith("Optional[") and ann.endswith("]"):
        ann = ann[len("Optional[") : -1].strip()
    return ann.split("[")[0] in {"Set", "set", "FrozenSet", "frozenset"}


def _ann_is_set_valued_mapping(ann: str) -> bool:
    ann = ann.strip()
    if ann.startswith("Optional[") and ann.endswith("]"):
        ann = ann[len("Optional[") : -1].strip()
    head, _, rest = ann.partition("[")
    if head not in {"Dict", "dict", "DefaultDict", "defaultdict", "Mapping"}:
        return False
    # Value type is everything after the first top-level comma.
    depth = 0
    for i, ch in enumerate(rest):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            return _ann_is_set(rest[i + 1 :].rstrip("]").strip())
    return False


class HashOrderRule(Rule):
    """Hash-order-dependent constructs feeding ordered results."""

    id = "hash-order"
    description = "no set iteration into ordered results; no id()-keyed sorts"

    def check(self, src: SourceFile) -> Iterator[Violation]:
        set_names: Set[str] = set()  # plain names known set-typed
        set_attrs: Set[str] = set()  # self.X known set-typed
        map_attrs: Set[str] = set()  # self.X: Dict[..., Set[...]]

        # Pass 1: collect set-typed bindings from annotations/assignments.
        for node in ast.walk(src.tree):
            if isinstance(node, ast.AnnAssign):
                ann = ast.unparse(node.annotation)
                target = node.target
                if _ann_is_set(ann):
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
                    elif _self_attr(target):
                        set_attrs.add(_self_attr(target) or "")
                elif _ann_is_set_valued_mapping(ann):
                    if isinstance(target, ast.Name):
                        # Module-level mapping-of-sets: track name itself.
                        set_names.add(target.id)
                    elif _self_attr(target):
                        map_attrs.add(_self_attr(target) or "")
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                value = node.value
                is_set_value = isinstance(value, ast.Set) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in {"set", "frozenset"}
                )
                # ``x = self._map.get(k)`` / ``.pop(k)`` on a tracked
                # set-valued mapping binds a set too.
                is_map_entry = (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in {"get", "pop"}
                    and _self_attr(value.func.value) in map_attrs
                )
                if is_set_value or is_map_entry:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
                    elif _self_attr(target):
                        set_attrs.add(_self_attr(target) or "")

        def describe_set_expr(expr: ast.AST) -> Optional[str]:
            """A human label when ``expr`` is known set-typed, else None."""
            if isinstance(expr, ast.Set):
                return "a set literal"
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name) and func.id in {
                    "set",
                    "frozenset",
                }:
                    return f"a {func.id}() result"
                if isinstance(func, ast.Attribute) and func.attr in {
                    "get",
                    "pop",
                }:
                    attr = _self_attr(func.value)
                    if attr in map_attrs:
                        return f"a set entry of self.{attr}"
                if isinstance(func, ast.Attribute) and func.attr == "values":
                    attr = _self_attr(func.value)
                    if attr in map_attrs:
                        return f"the set values of self.{attr}"
            if isinstance(expr, ast.Name) and expr.id in set_names:
                return f"set {expr.id!r}"
            attr = _self_attr(expr)
            if attr is not None:
                if attr in set_attrs:
                    return f"set self.{attr}"
                if attr in map_attrs:
                    return f"set-valued mapping self.{attr}"
            if isinstance(expr, ast.Subscript):
                attr = _self_attr(expr.value)
                if attr in map_attrs:
                    return f"a set entry of self.{attr}"
            return None

        # Pass 2: flag ordered consumption of set-typed expressions.
        for node in ast.walk(src.tree):
            if isinstance(node, ast.For):
                label = describe_set_expr(node.iter)
                if label:
                    yield self.violation(
                        src,
                        node,
                        f"for-loop iterates {label}: iteration order is "
                        f"hash/address-dependent; sort or use an ordered "
                        f"container",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    label = describe_set_expr(gen.iter)
                    if label:
                        yield self.violation(
                            src,
                            node,
                            f"comprehension iterates {label}: iteration "
                            f"order is hash/address-dependent; sort or use "
                            f"an ordered container",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in {"list", "tuple"}
                    and len(node.args) == 1
                ):
                    label = describe_set_expr(node.args[0])
                    if label:
                        yield self.violation(
                            src,
                            node,
                            f"{func.id}() materializes {label} in hash/"
                            f"address order; sort first",
                        )
                # ``sorted(xs, key=id)`` / ``xs.sort(key=id)``
                is_sortish = (
                    isinstance(func, ast.Name) and func.id == "sorted"
                ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
                if is_sortish:
                    for kw in node.keywords:
                        if (
                            kw.arg == "key"
                            and isinstance(kw.value, ast.Name)
                            and kw.value.id == "id"
                        ):
                            yield self.violation(
                                src,
                                node,
                                "sort keyed on id(): object addresses vary "
                                "run to run; key on a stable field",
                            )


# ---------------------------------------------------------------------------
# env-knob
# ---------------------------------------------------------------------------


class EnvKnobRule(Rule):
    """Environment knobs read only at construction/config sites."""

    id = "env-knob"
    description = (
        "os.environ / os.getenv only at module level, __init__, or "
        "config-site-marked functions"
    )

    ALLOWED_FUNCTION_NAMES = {"__init__", "__post_init__"}

    def check(self, src: SourceFile) -> Iterator[Violation]:
        enclosing = _enclosing_functions(src.tree)
        for node in ast.walk(src.tree):
            use: Optional[str] = None
            if _dotted(node) == "os.environ":
                use = "os.environ"
            elif (
                isinstance(node, ast.Call) and _dotted(node.func) == "os.getenv"
            ):
                use = "os.getenv()"
            if use is None:
                continue
            chain = enclosing.get(node, ())
            if not chain:
                continue  # module level: import-time configuration
            if any(f.name in self.ALLOWED_FUNCTION_NAMES for f in chain):
                continue
            if any(src.is_config_site(f) for f in chain):
                continue
            yield self.violation(
                src,
                node,
                f"{use} read in {chain[-1].name}(): REPRO_* knobs are part "
                f"of the cache key and must be read at construction time — "
                f"hoist to __init__ or mark the function "
                f"'# simlint: config-site'",
            )


# ---------------------------------------------------------------------------
# hotpath
# ---------------------------------------------------------------------------


#: The module that declares ``HOT_CALLEE_WHITELIST``.
WHITELIST_MODULE = "repro.core.hotpath"


def _raise_subtrees(fn: ast.FunctionDef) -> Set[ast.AST]:
    """Every node under a ``raise`` statement in ``fn``."""
    in_raise: Set[ast.AST] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise):
            in_raise.update(ast.walk(node))
    return in_raise


def _whitelist_entries(tree: ast.Module) -> List[ast.Constant]:
    """The string literals of the ``HOT_CALLEE_WHITELIST`` set display."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target: ast.expr = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and target.id == "HOT_CALLEE_WHITELIST"
            and isinstance(node.value, ast.Set)
        ):
            return [
                elt
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
    return []


class HotPathRule(Rule):
    """``@hot`` functions stay allocation-free and whitelist-bound."""

    id = "hotpath"
    description = (
        "@hot functions: no closures/comprehensions/recursion; callees on "
        "HOT_CALLEE_WHITELIST"
    )

    def __init__(self, whitelist: Optional[Set[str]] = None) -> None:
        if whitelist is None:
            from repro.core.hotpath import HOT_CALLEE_WHITELIST

            whitelist = HOT_CALLEE_WHITELIST
        self.whitelist = whitelist

    @staticmethod
    def _is_hot(fn: ast.FunctionDef) -> bool:
        for dec in fn.decorator_list:
            if isinstance(dec, ast.Name) and dec.id == "hot":
                return True
            if isinstance(dec, ast.Attribute) and dec.attr == "hot":
                return True
        return False

    def _hot_functions(self, src: SourceFile) -> Iterator[ast.FunctionDef]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.FunctionDef) and self._is_hot(node):
                yield node

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for fn in self._hot_functions(src):
            yield from self._check_function(src, fn)

    def check_all(self, sources: Sequence[SourceFile]) -> Iterator[Violation]:
        """Report whitelist entries that no linted ``@hot`` function calls
        outside a ``raise``: a stale entry silently admits a call onto
        the hot path. Runs only when the lint covers the module that
        declares the whitelist."""
        home = [src for src in sources if src.module_name == WHITELIST_MODULE]
        if not home:
            return
        called: Set[str] = set()
        for src in sources:
            for fn in self._hot_functions(src):
                in_raise = _raise_subtrees(fn)
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and node not in in_raise:
                        if isinstance(node.func, ast.Name):
                            called.add(node.func.id)
                        elif isinstance(node.func, ast.Attribute):
                            called.add(node.func.attr)
        for entry in _whitelist_entries(home[0].tree):
            if entry.value not in called:
                yield self.violation(
                    home[0],
                    entry,
                    f"HOT_CALLEE_WHITELIST entry {entry.value!r} is called "
                    f"by no @hot function — remove it",
                )

    def _check_function(
        self, src: SourceFile, fn: ast.FunctionDef
    ) -> Iterator[Violation]:
        # Calls under a ``raise`` build the error being thrown — the path
        # is cold by definition, so exempt the whole subtree.
        in_raise = _raise_subtrees(fn)

        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield self.violation(
                    src,
                    node,
                    f"@hot {fn.name}() defines nested function "
                    f"{node.name}(): closure objects allocate per call",
                )
            elif isinstance(node, ast.Lambda):
                yield self.violation(
                    src,
                    node,
                    f"@hot {fn.name}() builds a lambda: closure objects "
                    f"allocate per call",
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ) and node not in in_raise:
                kind = type(node).__name__
                yield self.violation(
                    src,
                    node,
                    f"@hot {fn.name}() contains a {kind}: comprehensions "
                    f"allocate a new frame and container per call",
                )
            elif isinstance(node, ast.Call) and node not in in_raise:
                func = node.func
                if isinstance(func, ast.Name):
                    if func.id == fn.name:
                        yield self.violation(
                            src,
                            node,
                            f"@hot {fn.name}() recurses into itself: hot "
                            f"paths must be iterative",
                        )
                    elif func.id not in self.whitelist:
                        yield self.violation(
                            src,
                            node,
                            f"@hot {fn.name}() calls {func.id}() which is "
                            f"not on HOT_CALLEE_WHITELIST — inline it or "
                            f"whitelist it in repro.core.hotpath",
                        )
                elif isinstance(func, ast.Attribute):
                    # Only ``self.<name>()`` is self-recursion; a same-named
                    # method on another object (``self.topology.free()``
                    # inside ``free()``) is a plain whitelisted callee.
                    if (
                        func.attr == fn.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        yield self.violation(
                            src,
                            node,
                            f"@hot {fn.name}() recurses into itself: hot "
                            f"paths must be iterative",
                        )
                    elif func.attr not in self.whitelist:
                        yield self.violation(
                            src,
                            node,
                            f"@hot {fn.name}() calls .{func.attr}() which "
                            f"is not on HOT_CALLEE_WHITELIST — inline it or "
                            f"whitelist it in repro.core.hotpath",
                        )
                else:
                    yield self.violation(
                        src,
                        node,
                        f"@hot {fn.name}() makes an indirect call "
                        f"(computed callee): hot-path callees must be "
                        f"statically auditable",
                    )


# ---------------------------------------------------------------------------
# counter-balance
# ---------------------------------------------------------------------------


class CounterBalanceRule(Rule):
    """Incremental counters balance; metadata growth samples the peak."""

    id = "counter-balance"
    description = (
        "paired counters both move per module; up/down counters have both "
        "directions; metadata growth sites sample the peak"
    )

    #: Monotonic pair: a module bumping the left must bump the right.
    PAIRED: Dict[str, str] = {
        "knodes_created": "knodes_deleted",
        "total_allocs": "total_frees",
    }
    #: Up/down counters: a module with ``+=`` needs a ``-=``.
    SELF_BALANCED: Set[str] = {
        "_tracked_objects",
        "total_entries",
        "used_pages",
        "_size",
        "node_count",
    }
    #: Counters that feed metadata_bytes: every growth site's enclosing
    #: function must sample the peak (call ``_note_metadata`` or touch a
    #: ``*peak*`` attribute).
    PEAK_SAMPLED: Set[str] = {
        "knodes_created",
        "_tracked_objects",
        "total_allocs",
        "total_entries",
    }

    @staticmethod
    def _samples_peak(fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name == "_note_metadata":
                    return True
            if isinstance(node, ast.Attribute) and "peak" in node.attr:
                return True
        return False

    def check(self, src: SourceFile) -> Iterator[Violation]:
        enclosing = _enclosing_functions(src.tree)
        # attr → op ("+" / "-") → first AugAssign node seen.
        sites: Dict[str, Dict[str, ast.AugAssign]] = {}
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            attr = _self_attr(node.target)
            if attr is None:
                continue
            if isinstance(node.op, ast.Add):
                op = "+"
            elif isinstance(node.op, ast.Sub):
                op = "-"
            else:
                continue
            sites.setdefault(attr, {}).setdefault(op, node)

            # Peak-sampling check is per growth site.
            if op == "+" and attr in self.PEAK_SAMPLED:
                chain = enclosing.get(node, ())
                if chain and not any(self._samples_peak(f) for f in chain):
                    yield self.violation(
                        src,
                        node,
                        f"metadata counter {attr} grows in "
                        f"{chain[-1].name}() without a peak sample — call "
                        f"_note_metadata() or update the peak watermark in "
                        f"the same function",
                    )

        for inc, dec in self.PAIRED.items():
            inc_site = sites.get(inc, {}).get("+")
            if inc_site is not None and "+" not in sites.get(dec, {}):
                yield self.violation(
                    src,
                    inc_site,
                    f"counter {inc} is incremented here but its pair {dec} "
                    f"never moves in this module — the balance "
                    f"({inc} - {dec}) can only grow",
                )

        for attr in self.SELF_BALANCED:
            ops = sites.get(attr, {})
            if "+" in ops and "-" not in ops:
                yield self.violation(
                    src,
                    ops["+"],
                    f"up/down counter {attr} is incremented in this module "
                    f"but never decremented — growth sites need matching "
                    f"shrink sites",
                )


# ---------------------------------------------------------------------------
# snapshot-path
# ---------------------------------------------------------------------------


class SnapshotPathRule(Rule):
    """Serialization or deep copies of simulator state.

    A run is a pure function of its ``RunSpec``; what leaves a run is its
    JSON payload (result cache, sweep workers, digests). Nothing needs a
    kernel graph as bytes, and a pickled or deep-copied kernel is a
    second copy of state that can drift from the one being measured —
    deep copies also split the references the graph shares (the tier map,
    the frame journal, the registry's coverage set). So the serializing
    modules are banned outright; JSON payloads go through ``json``.
    """

    id = "snapshot-path"
    description = (
        "no pickle/marshal/dill/shelve or deepcopy of simulator state "
        "(runs exchange RunSpecs and JSON payloads only)"
    )

    #: Importing these anywhere is a serialization hazard.
    BANNED_MODULES = {"pickle", "cPickle", "marshal", "dill", "shelve"}

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield self.violation(
                            src,
                            node,
                            f"import of {alias.name!r}: simulator state is "
                            f"never serialized — exchange RunSpecs and JSON "
                            f"payloads instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self.BANNED_MODULES:
                    yield self.violation(
                        src,
                        node,
                        f"import from {node.module!r}: simulator state is "
                        f"never serialized — exchange RunSpecs and JSON "
                        f"payloads instead",
                    )
                elif root == "copy" and any(
                    alias.name == "deepcopy" for alias in node.names
                ):
                    yield self.violation(
                        src,
                        node,
                        "import of copy.deepcopy: deep-copying kernel state "
                        "splits shared references — build a fresh kernel "
                        "from its RunSpec instead",
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted == "copy.deepcopy" or dotted == "deepcopy":
                    yield self.violation(
                        src,
                        node,
                        "call to deepcopy(): deep-copying kernel state "
                        "splits shared references — build a fresh kernel "
                        "from its RunSpec instead",
                    )


#: Registry consumed by the CLI and the engine's default path.
DEFAULT_RULES: Sequence[Rule] = (
    DeterminismRule(),
    HashOrderRule(),
    EnvKnobRule(),
    HotPathRule(),
    CounterBalanceRule(),
    SnapshotPathRule(),
)
