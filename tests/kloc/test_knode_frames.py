"""Cached knode frame lists, the O(1) kernel share and the kmap listing
against brute-force recomputation.

``Knode.frames`` caches its oid-order walk until membership changes, and
``KlocMigrationDaemon.knode_frames`` merges the KLOC allocator's pages of
the knode on every call. Random sequences of file churn, direct covered
slab and page allocations and frees, adoptions, close/reopen, unlink,
explicit migrations, fast-tier pressure and clock jumps must leave every
knode's ``knode_frames`` equal — same frames, same order — to a fresh
walk of its two member sets followed by its allocator pages. The daemon runs
with a period shorter than a few KLOC allocations, so it also fires
inside ``KlocAllocator.alloc``'s clock advance, between a new page's
registration and the ``add_obj`` of the object placed on it; the check
runs at the start of every daemon pass too.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.objtypes import KernelObjectType
from repro.core.units import KB, PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.mem.frame import PageOwner
from repro.platforms.twotier import two_tier_spec_scaled
from repro.policies import TWO_TIER_POLICIES

SCALE = 4096
#: Shorter than four KLOC allocations (140 ns each).
MIGRATE_PERIOD_NS = 500
SLAB_TYPES = (
    KernelObjectType.DENTRY,
    KernelObjectType.EXTENT,
    KernelObjectType.RADIX_NODE,
    KernelObjectType.INODE,
)
TIERS = ("fast", "slow")


def brute_knode_frames(kernel, knode):
    """The walk ``Knode.frames`` replaced, plus the allocator merge."""
    out, seen = [], set()
    members = list(knode.iter_cache()) + list(knode.iter_slab())
    candidates = [obj.frame for obj in members]
    candidates += kernel.kloc_alloc.knode_frames(knode.knode_id)
    for frame in candidates:
        if frame.live and frame.fid not in seen:
            seen.add(frame.fid)
            out.append(frame)
    return out


def brute_kernel_pages(topology, tier_name):
    return sum(
        1
        for view in topology.live_frames.values()
        for frame in view.values()
        if frame.tier_name == tier_name and frame.owner is not PageOwner.APP
    )


class _Harness:
    def __init__(self):
        spec = two_tier_spec_scaled(scale_factor=SCALE)
        spec = replace(spec, kloc=replace(spec.kloc, migrate_period_ns=MIGRATE_PERIOD_NS))
        self.kernel = kernel = Kernel(spec, TWO_TIER_POLICIES["klocs"](), seed=42)
        self.daemon = daemon = kernel.kloc_daemon
        self.passes = 0
        self.window_hits = 0
        run = daemon.run

        def checked_run(now_ns=0):
            self.passes += 1
            self.check_frames(count_windows=True)
            return run(now_ns)

        # Bound before start(), which schedules ``daemon.run``.
        daemon.run = checked_run
        kernel.start()
        self.fs = kernel.fs
        self.files = {}  # path -> open handle, or None when closed
        self.next_file = 0
        self.objs = []  # test-owned live kernel objects
        self.app_frames = []

    # ------------------------------------------------------------------

    def _pick_file(self, arg):
        paths = sorted(self.files)
        return paths[arg % len(paths)] if paths else None

    def _inode(self, path):
        return self.fs.dcache.lookup(path).inode

    def step(self, op: int, arg: int) -> None:
        kernel, fs = self.kernel, self.fs
        kind = op % 10
        path = self._pick_file(arg)
        if kind == 0 or path is None:  # create
            if len(self.files) < 5:
                path = f"/f{self.next_file}"
                self.next_file += 1
                self.files[path] = fs.create(path)
            return
        fh = self.files[path]
        if kind == 1 and fh is not None:  # page-cache growth through the fs
            fs.write(fh, (arg % 24) * PAGE_SIZE, (1 + arg % 9) * KB)
        elif kind == 2:  # covered slab object on the file's knode
            otype = SLAB_TYPES[arg % len(SLAB_TYPES)]
            self.objs.append(kernel.alloc_object(otype, self._inode(path)))
        elif kind == 3:  # covered page object on the file's knode
            obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE, self._inode(path))
            self.objs.append(obj)
        elif kind == 4 and self.objs:  # free a test-owned object
            kernel.free_object(self.objs.pop(arg % len(self.objs)))
        elif kind == 5:  # adopt: a fresh untracked object, or re-adopt one
            if arg % 2 or not self.objs:
                obj = kernel.alloc_object(SLAB_TYPES[arg % len(SLAB_TYPES)], None)
                self.objs.append(obj)
            else:
                obj = self.objs[arg % len(self.objs)]
            kernel.adopt_object(obj, self._inode(path))
        elif kind == 6:  # close, or reopen
            if fh is not None:
                fs.close(fh)
                self.files[path] = None
            else:
                self.files[path] = fs.open(path)
        elif kind == 7 and arg % 3 == 0:  # unlink (closing first)
            if fh is not None:
                fs.close(fh)
            fs.unlink(path)
            del self.files[path]
        elif kind == 8:  # migrate one knode's frames explicitly
            knodes = kernel.kloc_manager.kmap.all_knodes()
            if knodes:
                knode = knodes[arg % len(knodes)]
                dst = TIERS[arg % 2]
                frames = [
                    f for f in self.daemon.knode_frames(knode) if f.tier_name != dst
                ]
                kernel.engine.migrate(frames[: 1 + arg % 8], dst)
        elif kind == 9:  # fast-tier pressure on and off, then a clock jump
            if arg % 2 and not self.app_frames:
                fast = kernel.topology.tier("fast")
                take = max(0, fast.free_pages - 4)
                if take:
                    self.app_frames = kernel.topology.allocate(
                        take, ["fast"], PageOwner.APP, now_ns=kernel.clock.now()
                    )
            elif self.app_frames:
                kernel.topology.free_all(self.app_frames, now_ns=kernel.clock.now())
                self.app_frames = []
            kernel.clock.advance(1 + (arg % 4) * MIGRATE_PERIOD_NS)

    # ------------------------------------------------------------------

    def check_frames(self, count_windows=False) -> None:
        kernel = self.kernel
        for knode in kernel.kloc_manager.kmap.all_knodes():
            expected = brute_knode_frames(kernel, knode)
            assert self.daemon.knode_frames(knode) == expected
            if count_windows and len(knode.frames()) < len(expected):
                self.window_hits += 1

    def check(self) -> None:
        self.check_frames()
        kernel = self.kernel
        topology = kernel.topology
        for name in topology.tiers:
            assert topology.kernel_pages_in(name) == brute_kernel_pages(topology, name)
        topology.check_invariants()
        kmap = kernel.kloc_manager.kmap
        walked = sorted(kmap.all_knodes(), key=lambda k: k.knode_id)
        assert kmap.all_knodes() == walked
        lru = [k for k in walked if not k.inuse or k.age >= 2]
        lru.sort(key=lambda k: (k.inuse, k.last_access))
        assert kmap.get_lru_knodes(cold_age=2) == lru


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=60,
    )
)
def test_knode_frames_match_a_fresh_walk(tape):
    harness = _Harness()
    for op, arg in tape:
        harness.step(op, arg)
        harness.check()


def test_daemon_fires_between_page_registration_and_add_obj():
    """A fixed sequence that reaches the allocator-page merge window and
    moves pages, so the property above is not vacuous."""
    harness = _Harness()
    tape = [(0, 0), (0, 1), (1, 3), (2, 0), (2, 1), (3, 2), (9, 1), (6, 0)]
    tape += [(2, k) for k in range(40)] + [(9, 3), (9, 0), (5, 4), (5, 3)]
    for op, arg in tape:
        harness.step(op, arg)
        harness.check()
    assert harness.passes > 0
    assert harness.window_hits > 0
    assert harness.daemon.downgraded_pages > 0


def test_frames_cache_is_reused_until_membership_changes():
    harness = _Harness()
    harness.step(0, 0)
    inode = harness._inode("/f0")
    knode = harness.kernel.kloc_manager.kmap.lookup(inode.knode_id)
    first = knode.frames()
    cached = knode._frames
    assert knode.frames() == first and knode._frames is cached
    obj = harness.kernel.alloc_object(KernelObjectType.PAGE_CACHE, inode)
    assert knode._frames is None
    assert obj.frame in knode.frames()
    harness.kernel.free_object(obj)
    assert knode._frames is None
    assert obj.frame not in knode.frames()
