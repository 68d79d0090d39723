"""``AccessBatch`` against the per-call primitives at the deadline boundary.

The page-cache read loop and the socket drain charge only through an
:class:`~repro.kernel.kernel.AccessBatch`, so nothing else shows that a
window reproduces plain ``Kernel.access_object`` / ``free_object`` calls.
Two twin kernels run one sequence of object accesses, frees of a slab, a
KLOC and a page object, and an out-of-band clock advance (which makes the
window rebase): one through a window, the other through plain calls. A
periodic daemon's first deadline lands exactly at, one ns before and one
ns after the end of each step. Everything the kernel records must agree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.config import two_tier_platform_spec
from repro.core.objtypes import KernelObjectType as T
from repro.core.units import MB
from repro.kernel.kernel import Kernel
from repro.kloc.registry import KlocRegistry
from repro.policies import KlocsPolicy

#: (object name, type, attached to the file's knode).
OBJECTS = [
    ("dentry", T.DENTRY, True),  # KLOC allocator, accessed throughout
    ("data", T.SKBUFF_DATA, True),  # page allocator, accessed throughout
    ("kloc", T.DENTRY, True),  # freed: KLOC allocator
    ("page", T.PAGE_CACHE, True),  # freed: page allocator
    ("slab", T.EXTENT, False),  # freed: slab allocator (EXTENT uncovered)
]

#: ("access", name, nbytes, write) | ("free", name) | ("advance", ns).
STEPS: List[Tuple[Any, ...]] = [
    ("access", "dentry", None, False),
    ("access", "data", 1500, True),
    ("free", "slab"),
    ("access", "dentry", 64, False),
    ("advance", 777),
    ("access", "data", None, False),
    ("free", "kloc"),
    ("access", "dentry", None, True),
    ("free", "page"),
    ("access", "data", 2048, False),
]

#: Virtual ns a firing daemon spends, so firings move later charges.
DAEMON_WORK_NS = 5


def _twin() -> Tuple[Kernel, Dict[str, Any], Any]:
    spec = two_tier_platform_spec(fast_capacity_bytes=4 * MB, slow_capacity_bytes=40 * MB)
    registry = KlocRegistry([t for t in T if t is not T.EXTENT])
    kernel = Kernel(spec, KlocsPolicy(), registry=registry, seed=3)
    inode = kernel.fs.create("/twin").inode
    objs = {
        name: kernel.alloc_object(otype, inode if attached else None)
        for name, otype, attached in OBJECTS
    }
    assert [objs[n].allocator for n in ("kloc", "page", "slab")] == [
        "kloc",
        "page",
        "slab",
    ]
    return kernel, objs, inode


def _run(kernel: Kernel, objs: Dict[str, Any], batched: bool) -> Tuple[list, list]:
    """Drive :data:`STEPS`; return the access costs and each step's end."""
    charge: Any = kernel.begin_access_batch() if batched else kernel
    costs: list = []
    ends: list = []
    for step in STEPS:
        if step[0] == "access":
            _, name, nbytes, write = step
            costs.append(charge.access_object(objs[name], nbytes, write=write))
        elif step[0] == "free":
            charge.free_object(objs[step[1]])
        else:
            if batched:
                charge.sync()  # the window's contract for out-of-band work
            kernel.clock.advance(step[1])
        ends.append(None if batched else kernel.clock.now())
    if batched:
        charge.close()
    return costs, ends


def _observed(kernel: Kernel, objs: Dict[str, Any], inode: Any) -> Dict[str, Any]:
    knode = kernel.kloc_manager.kmap.get_uncounted(inode.knode_id)
    return {
        "now": kernel.clock.now(),
        "frame_last_access": {
            n: o.frame.last_access for n, o in objs.items() if o.freed_at is None
        },
        "freed_at": {n: o.freed_at for n, o in objs.items()},
        "knode_last_access": knode.last_access,
        "refs": (
            kernel.kernel_refs,
            kernel.kernel_ref_bytes,
            kernel.app_refs,
            kernel.app_ref_bytes,
            kernel.access_ns_by,
        ),
        "allocators": [
            (
                s.allocs,
                s.frees,
                s.pages_grabbed,
                s.pages_returned,
                s.cpu_cost_ns,
                s.lifetimes.as_rows(),
            )
            for s in (kernel.slab.stats, kernel.kloc_alloc.stats, kernel.page_alloc.stats)
        ],
    }


@lru_cache(maxsize=None)
def _step_ends() -> Tuple[int, ...]:
    """Each step's end on a daemon-free plain run."""
    kernel, objs, _ = _twin()
    return tuple(_run(kernel, objs, batched=False)[1])


CASES = [(i, off) for i in range(len(STEPS)) for off in (-1, 0, 1)]


@pytest.mark.parametrize(
    "step,offset", CASES, ids=[f"step{i}{off:+d}ns" for i, off in CASES]
)
def test_window_matches_plain_calls(step, offset):
    results = []
    for batched in (True, False):
        kernel, objs, inode = _twin()
        clock = kernel.clock
        fires: List[int] = []

        def daemon(now: int, clock=clock, fires=fires) -> None:
            fires.append(now)
            clock.advance(DAEMON_WORK_NS)

        clock.schedule_periodic(_step_ends()[step] + offset - clock.now(), daemon)
        costs, _ = _run(kernel, objs, batched)
        clock.advance(1)  # reaches the deadline one ns past the last step
        assert fires
        results.append((fires, costs, _observed(kernel, objs, inode)))
    window, plain = results
    assert window[0] == plain[0]  # daemon firing times
    assert window[1] == plain[1]  # returned costs
    assert window[2] == plain[2]


def test_window_defers_the_advance_inside_the_deadline():
    """Without a daemon the window coalesces: the clock stays put until
    ``close``, and then lands where plain calls leave it."""
    kernel, objs, _ = _twin()
    start = kernel.clock.now()
    window = kernel.begin_access_batch()
    cost = window.access_object(objs["dentry"])
    window.free_object(objs["slab"])
    assert kernel.clock.now() == start and window.pending > cost
    window.close()
    twin, twin_objs, _ = _twin()
    twin.access_object(twin_objs["dentry"])
    twin.free_object(twin_objs["slab"])
    assert kernel.clock.now() == twin.clock.now() > start
