"""NUMA kernels charge batched runs exactly like a per-frame loop.

On the Optane platform every access consults the node's hardware DRAM
cache, so a page's cost depends on which pages were touched before it,
and AutoNUMA migrations fired by a clock deadline change which node
serves the rest of a run. ``Kernel.access_frames`` defers clock advances
inside a run; this test shows it still computes every cost in per-frame
order and fires the daemon at the same access as a loop over
``Kernel.access_frame``.
"""

from repro.core.units import PAGE_SIZE
from repro.platforms.optane import build_optane_kernel

DISTINCT_PAGES = 96
#: Accesses per run: every page three times, so the DRAM cache both
#: misses (first touch) and hits (repeats).
ROUNDS = 3
#: Virtual ns left before autonuma's next scan when the run starts — a
#: few accesses' worth, so the run crosses it part-way through.
LEAD_NS = 20_000


def _scan_deadline(kernel, pol):
    (deadline,) = [
        d for d, _period, cb in kernel.clock._periodic if cb == pol._scan  # noqa: SLF001
    ]
    return deadline


def _prepared_kernel():
    kernel, pol = build_optane_kernel("autonuma", scale_factor=8192, seed=11)
    assert all(node.hw_cache is not None for node in kernel.nodes.values())
    frames = kernel.alloc_app_pages(DISTINCT_PAGES)
    kernel.set_task_node(1)  # every page is now remote: autonuma has work
    clock = kernel.clock
    clock.advance(_scan_deadline(kernel, pol) - clock.now() - LEAD_NS)
    assert pol.migrated_app == 0
    run = [frames[(i * 7) % DISTINCT_PAGES] for i in range(DISTINCT_PAGES * ROUNDS)]
    return kernel, pol, frames, run


def _state(kernel, pol, frames):
    nodes = {
        name: (
            node.hw_cache.hits,
            node.hw_cache.misses,
            node.local_accesses,
            node.remote_accesses,
        )
        for name, node in kernel.nodes.items()
    }
    return {
        "now": kernel.clock.now(),
        "nodes": nodes,
        "refs_by_tier": kernel.refs_by_tier,
        "access_ns_by": kernel.access_ns_by,
        "app_refs": (kernel.app_refs, kernel.app_ref_bytes),
        "migrated": pol.migrated_app,
        "frames": [(f.fid, f.tier_name, f.last_access, f.reads) for f in frames],
    }


def test_access_frames_matches_per_frame_loop():
    nbytes = PAGE_SIZE * DISTINCT_PAGES * ROUNDS - 100  # partial last chunk

    batched, bpol, bframes, brun = _prepared_kernel()
    deadline = _scan_deadline(batched, bpol)
    bcost = batched.access_frames(brun, nbytes)

    looped, lpol, lframes, lrun = _prepared_kernel()
    lcost = 0
    remaining = nbytes
    for frame in lrun:
        chunk = min(PAGE_SIZE, remaining)
        lcost += looped.access_frame(frame, chunk)
        remaining -= chunk

    # The run crossed an autonuma deadline and the scan moved pages.
    assert batched.clock.now() > deadline
    assert bpol.migrated_app > 0
    assert bcost == lcost
    assert _state(batched, bpol, bframes) == _state(looped, lpol, lframes)
    hits = sum(node.hw_cache.hits for node in batched.nodes.values())
    assert hits > 0
