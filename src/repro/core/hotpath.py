"""Registry of the hand-flattened hot-path functions.

Functions whose bodies were hand-flattened for the hot path are marked
with the :func:`hot` decorator. The decorator is a zero-cost no-op at
runtime (it records the qualname and returns the function unchanged);
its purpose is static: ``simlint``'s ``hotpath`` rule
(:mod:`repro.analysis.simlint`) walks every ``@hot``-marked function and
rejects allocation-building constructs (closures, lambdas,
comprehensions, generator expressions), self-recursion, and calls to
anything outside :data:`HOT_CALLEE_WHITELIST` — pinning the discipline
the hand-flattening established so later edits cannot silently
reintroduce per-call overhead.

To mark a new function hot: decorate it with ``@hot``, then extend the
whitelist with any callees it legitimately needs (each addition is a
reviewed, grep-able decision).
"""

from __future__ import annotations

from typing import Callable, Set, TypeVar

F = TypeVar("F", bound=Callable)

#: Qualnames of every function registered via :func:`hot`, for
#: introspection and the lint rule's "is anything registered?" check.
HOT_FUNCTIONS: Set[str] = set()

#: Callees a ``@hot`` function may invoke. Bare names cover builtins and
#: in-module constructors on the allocation paths; attribute names cover
#: the method calls the flattened bodies still make (other registered
#: hot functions, O(1) container operations, and the accounting hooks).
#: The ``simlint`` ``hotpath`` rule imports this set — extending it is
#: the explicit act of admitting a call onto the hot path — and reports
#: entries that no ``@hot`` function calls. Calls inside ``raise``
#: statements (error constructors) are always allowed.
HOT_CALLEE_WHITELIST: Set[str] = {
    # builtins / constructors (bare-name calls)
    "len",
    "int",
    "range",
    "KernelObject",
    "PageFrame",
    "_SlabPage",
    "_KlocPage",
    # clock
    "advance",
    "_fire_due",
    "now",
    # O(1) container operations
    "get",
    "pop",
    "popitem",
    "append",
    "add",
    "discard",
    "remove",
    "setdefault",
    "move_to_end",
    # registered hot functions / same-layer accounting calls
    "access_cost_ns",
    "access_frame",
    "allocate",
    "free",
    "record",
    "lookup",
    "_kmap_get",
    "note_access",
    "_note_metadata",
    "metadata_bytes",
    "add_obj",
    "remove_obj",
    "_cache",
    "_check_cpu",
    "_drop_holder",
    "knode_for_inode",
    # the page-cache write loop's one call per layer for each page
    "_fill_page",
    "insert",
    "touch",
    "alloc_object",
    "access_object",
    "log_metadata",
    # sanitizer hooks (no-ops unless REPRO_SANITIZE=1; see repro.core.sanitize)
    "on_object_free",
    "on_frame_free",
    "call_site",
    "poison_object",
}


def hot(fn: F) -> F:
    """Mark ``fn`` as a hot-path function (statically checked, zero cost).

    Returns ``fn`` unchanged — no wrapper frame, no indirection — after
    recording its qualname in :data:`HOT_FUNCTIONS`.
    """
    HOT_FUNCTIONS.add(fn.__qualname__)
    return fn
