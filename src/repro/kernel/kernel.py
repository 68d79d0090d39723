"""The Kernel: the one real implementation of the KernelContext protocol.

A :class:`Kernel` is a complete simulated OS instance: memory topology,
the three allocator families, the migration engine, the ext4-like
filesystem, the network stack, the KLOC machinery (when the policy uses
it), and the metric counters every experiment reads. The active
:class:`~repro.policies.base.TieringPolicy` decides placement; the kernel
mechanically executes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.alloc.base import KernelObject
from repro.alloc.buddy import PageAllocator
from repro.alloc.kloc_alloc import KlocAllocator
from repro.alloc.slab import SlabAllocator
from repro.core.clock import Clock
from repro.core.config import PlatformSpec
from repro.core.errors import AllocationError, SimulationError
from repro.core.hotpath import hot
from repro.core.objtypes import AllocatorKind, KernelObjectType
from repro.core.rng import DeterministicRNG
from repro.kernel.cpu import CpuSet
from repro.kloc.registry import KlocRegistry
from repro.mem.frame import PageFrame, PageOwner
from repro.mem.migration import MigrationEngine
from repro.mem.thp import CompoundRegistry
from repro.mem.topology import MemoryTopology
from repro.net.stack import NetworkStack
from repro.vfs.filesystem import Filesystem
from repro.vfs.inode import Inode
from repro.vfs.storage import NVMeDevice
from repro.vfs.writeback import WritebackDaemon

if TYPE_CHECKING:
    from repro.kloc.manager import KlocManager
    from repro.kloc.migrationd import KlocMigrationDaemon
    from repro.mem.node import NumaNode

#: Hoisted enum member: the charge hot path tests page ownership once per
#: reference, and ``PageOwner.APP`` is two attribute loads per test.
_OWNER_APP = PageOwner.APP


class Kernel:
    """One simulated OS instance under one tiering policy."""

    def __init__(
        self,
        platform: PlatformSpec,
        policy,
        *,
        registry: Optional[KlocRegistry] = None,
        seed: int = 42,
        page_cache_max_pages: Optional[int] = None,
        readahead_enabled: bool = True,
    ) -> None:
        self.platform = platform
        self.policy = policy
        self.clock = Clock()
        self.rng = DeterministicRNG(seed)
        self.num_cpus = platform.num_cpus
        self.cpus = CpuSet(platform.num_cpus)

        self.topology = MemoryTopology([platform.fast, platform.slow])
        # Direct name → tier map for the access hot path (skips the
        # topology's checked lookup on every charged reference).
        self._tiers = self.topology.tiers
        #: The machine's shared sanitizer ledger (None unless
        #: ``REPRO_SANITIZE=1`` was set when the topology was built).
        self._san = self.topology.sanitizer
        self.engine = MigrationEngine(self.topology, platform.migration)
        self.storage = NVMeDevice(platform.storage)
        self.thp = CompoundRegistry()

        self.slab = SlabAllocator(self.topology, self.clock)
        self.kloc_alloc = KlocAllocator(self.topology, self.clock)
        self.page_alloc = PageAllocator(self.topology, self.clock)

        # NUMA (Optane Memory Mode) wiring: each tier is a socket with an
        # optional hardware DRAM cache in front. The NUMA and KLOC modules
        # are imported in their branches, so a run loads only what it uses.
        self.numa_mode = policy.numa_mode
        self.task_node = 0
        self.nodes: Dict[str, NumaNode] = {}
        if self.numa_mode:
            from repro.mem.hwcache import HardwareDRAMCache
            from repro.mem.node import NumaNode

            for node_id, spec in enumerate([platform.fast, platform.slow]):
                cache = (
                    HardwareDRAMCache(platform.hw_cache_bytes)
                    if platform.hw_cache_bytes
                    else None
                )
                self.nodes[spec.name] = NumaNode(
                    node_id, self.topology.tier(spec.name), cache
                )

        # KLOC machinery (only when the policy asks for it).
        self.kloc_registry = registry if registry is not None else KlocRegistry()
        self.kloc_manager: Optional[KlocManager] = None
        self.kloc_daemon: Optional[KlocMigrationDaemon] = None
        if policy.uses_kloc:
            from repro.kloc.manager import KlocManager
            from repro.kloc.migrationd import KlocMigrationDaemon

            self.kloc_manager = KlocManager(
                self.clock,
                num_cpus=platform.num_cpus,
                registry=self.kloc_registry,
                spec=platform.kloc,
                sanitizer=self._san,
            )
            self.kloc_daemon = KlocMigrationDaemon(
                self.kloc_manager,
                self.engine,
                self.topology,
                fast_tier=platform.fast.name,
                slow_tier=platform.slow.name,
                kloc_allocator=self.kloc_alloc,
                background_charge=self.background_cpu_work,
            )
            self.kloc_manager.on_knode_inactive = policy.on_knode_inactive
            self.kloc_manager.on_knode_active = policy.on_knode_active
            self.kloc_manager.on_knode_deleted = self._on_knode_deleted
        #: Live reference to the registry's coverage set when KLOC
        #: tracking is on — the alloc path's ``covered`` test is a plain
        #: membership check instead of two attribute loads and a method
        #: call per allocation. Empty when the policy has no manager.
        self._covered_types = (
            self.kloc_registry._covered  # noqa: SLF001 - live reference
            if self.kloc_manager is not None
            else frozenset()
        )
        #: Allocator routing, built once: ``_alloc_route[covered][otype]``
        #: is the entry point for one allocation and ``_free_route`` maps
        #: ``obj.allocator`` to its free. Covered slab types go to the
        #: KLOC interface (§4.4: relocatable, knode-grouped pages); a type
        #: is covered only when the policy uses KLOCs.
        slab_alloc = self.slab.alloc
        redirected = self.kloc_alloc.alloc
        page_alloc = self.page_alloc.alloc_object
        self._alloc_route = (
            {
                t: slab_alloc if t.allocator is AllocatorKind.SLAB else page_alloc
                for t in KernelObjectType
            },
            {
                t: redirected if t.allocator is AllocatorKind.SLAB else page_alloc
                for t in KernelObjectType
            },
        )
        self._free_route = {
            "slab": self.slab.free,
            "kloc": self.kloc_alloc.free,
            "page": self.page_alloc.free_object,
        }
        #: Bound hotness hook for the flat reference path (None when the
        #: policy runs without KLOC tracking).
        self._note_access = (
            self.kloc_manager.note_access if self.kloc_manager is not None else None
        )

        # Metric counters (Fig 2c's reference attribution and the access
        # time decomposition), zeroed by reset_reference_counters.
        self.reset_reference_counters()
        #: Optional tracepoint sink (repro.core.trace.Tracer); costs one
        #: None-check per event when unset.
        self.tracer = None

        # Subsystems.
        if page_cache_max_pages is None:
            # Tight enough that steady-state workloads see continual page
            # cache reclaim — the churn that recycles cold (including
            # fast-tier-stranded) pages and bounds cache-page lifetimes.
            total = platform.fast.capacity_pages + platform.slow.capacity_pages
            page_cache_max_pages = max(64, int(total * 0.4))
        self.fs = Filesystem(
            self,
            page_cache_max_pages=page_cache_max_pages,
            readahead_enabled=readahead_enabled,
        )
        demux = policy.early_demux if policy.early_demux is not None else policy.uses_kloc
        self.net = NetworkStack(self, early_demux=demux)
        self.writeback = WritebackDaemon(
            self.fs, period_ns=platform.writeback_period_ns
        )

        policy.attach(self)

    def start(self) -> None:
        """Start background daemons (writeback + policy scanners)."""
        self.writeback.start()
        self.policy.start_daemons()

    # ------------------------------------------------------------------
    # KernelContext: kernel-object lifecycle
    # ------------------------------------------------------------------

    def alloc_object(
        self,
        otype: KernelObjectType,
        inode: Optional[Inode] = None,
        *,
        cpu: int = 0,
    ) -> KernelObject:
        covered = otype in self._covered_types
        tier_order = self.policy.tier_order_kernel(
            otype, inode, covered=covered, cpu=cpu
        )
        knode_id = inode.knode_id if (inode is not None and covered) else None
        allocator = self._alloc_route[covered][otype]
        try:
            obj = allocator(otype, tier_order, knode_id)
        except AllocationError:
            # Memory pressure: shrink the page cache, then retry once.
            self._emergency_reclaim(cpu=cpu)
            obj = allocator(otype, tier_order, knode_id)

        if covered and inode is not None:
            self.kloc_manager.add_object(inode, obj, cpu=cpu)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now(),
                "alloc",
                obj.otype.name,
                allocator=obj.allocator,
                tier=obj.frame.tier_name,
                knode=obj.knode_id,
            )
        return obj

    def free_object(self, obj: KernelObject, *, cpu: int = 0) -> int:
        """Free a kernel object; the allocator advances the clock by its
        CPU cost, which is returned. The free event is stamped with the
        virtual time before that advance."""
        tracer = self.tracer
        if tracer is not None:
            now = self.clock.now()
            tracer.emit(now, "free", obj.otype.name, lifetime_ns=obj.lifetime_ns(now))
        if self.kloc_manager is not None and obj.knode_id is not None:
            self.kloc_manager.remove_object(obj, cpu=cpu)
        return self._free_route[obj.allocator](obj)

    # ------------------------------------------------------------------
    # KernelContext: references
    # ------------------------------------------------------------------

    @hot
    def _charge(self, frame: PageFrame, nbytes: int, write: bool) -> int:
        """Charge one reference of ``nbytes`` to ``frame`` at the current
        virtual time and return its cost; the caller advances the clock.

        The one charge primitive behind every access path: the cost (the
        NUMA node's, hardware DRAM cache included, when the kernel has
        nodes; the tier formula otherwise), the tier byte counters, the
        (owner, tier) cell every reference count and byte total is summed
        from, and the frame's access record.
        """
        tier_name = frame.tier_name
        owner = frame.owner
        nodes = self.nodes
        if nodes:
            cost = nodes[tier_name].access_cost_ns(
                frame.fid, nbytes, write=write, from_node=self.task_node
            )
        else:
            tier = self._tiers[tier_name]
            if write:
                tier.bytes_written += nbytes
                cost = tier.write_latency_ns + int(
                    nbytes * tier.slowdown / tier.write_bw
                )
            else:
                tier.bytes_read += nbytes
                cost = tier.read_latency_ns + int(nbytes * tier.slowdown / tier.read_bw)
        cell = self._charges[owner][tier_name]
        cell[0] += cost
        cell[1] += 1
        cell[2] += nbytes
        # frame.record_access(now, write=write), inlined:
        frame.last_access = self.clock._now  # noqa: SLF001 - hot-path read
        frame.lru_age = 0
        journal = frame.journal
        if journal is not None:
            journal[frame.fid] = frame
        if write:
            frame.writes += 1
            frame.dirty = True
        else:
            frame.reads += 1
        return cost

    @hot
    def access_object(
        self,
        obj: KernelObject,
        nbytes: Optional[int] = None,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        if obj.freed_at is not None:
            if self._san is not None:
                raise self._san.dead_object_error(obj)
            raise SimulationError(f"access to freed object {obj!r}")
        size = nbytes if nbytes is not None else obj.otype.size_bytes
        cost = self._charge(obj.frame, size, write)
        self.clock.advance(cost)
        note_access = self._note_access
        if note_access is not None and obj.knode_id is not None:
            note_access(obj, cpu=cpu)
        return cost

    @hot
    def access_frame(
        self, frame: PageFrame, nbytes: int, *, write: bool = False, cpu: int = 0
    ) -> int:
        if frame.freed_at is not None:
            if self._san is not None:
                raise self._san.dead_frame_error(frame)
            raise SimulationError(f"access to freed frame {frame!r}")
        cost = self._charge(frame, nbytes, write)
        self.clock.advance(cost)
        return cost

    # ------------------------------------------------------------------
    # KernelContext: application memory
    # ------------------------------------------------------------------

    def alloc_app_pages(
        self, npages: int, *, cpu: int = 0, huge: bool = False
    ) -> List[PageFrame]:
        """Anonymous application pages; ``huge=True`` backs the region
        with transparent huge pages (512-page compound groups, §5)."""
        order = self.policy.tier_order_app(cpu=cpu)
        try:
            frames = self.page_alloc.alloc_frames(npages, order, PageOwner.APP)
        except AllocationError:
            self._emergency_reclaim(cpu=cpu)
            frames = self.page_alloc.alloc_frames(npages, order, PageOwner.APP)
        if huge:
            self.thp.make_compounds(frames)
        return frames

    def free_app_pages(self, frames: List[PageFrame]) -> None:
        live = [f for f in frames if f.live]
        self.thp.drop(live)
        self.page_alloc.free_frames(live)

    # ------------------------------------------------------------------
    # KernelContext: storage + background work
    # ------------------------------------------------------------------

    def storage_io(
        self, nbytes: int, *, write: bool, sequential: bool, background: bool = False
    ) -> int:
        cost = self.storage.io_cost_ns(nbytes, write=write, sequential=sequential)
        if background:
            cost = cost // self.num_cpus
        self.storage_ns_total += cost
        self.clock.advance(cost)
        return cost

    def background_cpu_work(self, cost_ns: int) -> None:
        """Daemon CPU time, amortized across cores instead of stalling the
        foreground operation."""
        if cost_ns > 0:
            charged = cost_ns // self.num_cpus
            self.background_ns_total += charged
            self.clock.advance(charged)

    # ------------------------------------------------------------------
    # KernelContext: inode / KLOC lifecycle
    # ------------------------------------------------------------------

    def _on_knode_deleted(self, knode) -> None:
        """KlocManager deletion hook: drop the daemon's pending mark."""
        self.kloc_daemon.unmark(knode.knode_id)

    def on_inode_create(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.create_knode(inode, cpu=cpu)
            if self.tracer is not None:
                self.tracer.emit(
                    self.clock.now(), "knode", "create",
                    knode=inode.knode_id, ino=inode.ino,
                )

    def on_inode_open(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.open_knode(inode, cpu=cpu)

    def on_inode_close(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.close_knode(inode, cpu=cpu)

    def on_inode_unlink(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.delete_knode(inode, cpu=cpu)

    def notify_prefetch(self, inode: Inode, npages: int) -> None:
        """Readahead happened for this inode — let the policy piggyback
        (KLOCs promote the knode's kernel objects, §4.4)."""
        self.policy.on_prefetch(inode, npages)

    def adopt_object(self, obj: KernelObject, inode: Inode, *, cpu: int = 0) -> None:
        """Attach an object allocated before its inode existed (the inode
        structure itself, driver rx buffers resolved by early demux)."""
        if self.kloc_manager is not None:
            self.kloc_manager.add_object(inode, obj, cpu=cpu)

    # ------------------------------------------------------------------
    # NUMA helpers
    # ------------------------------------------------------------------

    def set_task_node(self, node: int) -> None:
        """The scheduler moved the workload to another socket (§6.2's
        interference experiment)."""
        if not self.numa_mode:
            raise SimulationError("set_task_node requires a NUMA-mode policy")
        self.task_node = node
        self.policy.on_task_moved()

    # ------------------------------------------------------------------
    # pressure + reporting
    # ------------------------------------------------------------------

    def _emergency_reclaim(self, *, cpu: int = 0) -> None:
        """Direct reclaim: drop a slice of the coldest page-cache pages."""
        victims = self.fs.cache_mgr.eviction_victims(256)
        if not victims:
            raise AllocationError("memory exhausted and nothing reclaimable")
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now(), "reclaim", "direct", victims=len(victims)
            )
        cache_mgr = self.fs.cache_mgr
        for cache, page in victims:
            if page.dirty:
                self.storage_io(
                    page.obj.size_bytes, write=True, sequential=False, background=True
                )
                page.clean()
            cache_mgr.lru.remove(page)
            cache.remove(page.index)
            self.free_object(page.obj, cpu=cpu)
            cache_mgr.evicted += 1

    @property
    def refs_by_tier(self) -> Dict[tuple, int]:
        """(tier_name, is_kernel) → reference count, for placement quality
        diagnostics (what fraction of traffic actually hit fast memory).

        Tier order, app before kernel, accessed pairs only; summed from
        the (owner, tier) charge counts at reporting time."""
        tiers = self._charges[_OWNER_APP]
        out = {(t, is_kernel): 0 for t in tiers for is_kernel in (False, True)}
        for owner, by_tier in self._charges.items():
            for tier_name, cell in by_tier.items():
                out[(tier_name, owner is not _OWNER_APP)] += cell[1]
        return {key: n for key, n in out.items() if n}

    @property
    def refs_by_owner(self) -> Dict[PageOwner, int]:
        """Owner → reference count, every :class:`PageOwner` present, in
        enum order; summed from the (owner, tier) charge counts."""
        return {
            owner: sum(cell[1] for cell in by_tier.values())
            for owner, by_tier in self._charges.items()
        }

    @property
    def ref_bytes_by_owner(self) -> Dict[PageOwner, int]:
        """Owner → bytes referenced, every :class:`PageOwner` present, in
        enum order; summed from the (owner, tier) charge cells."""
        return {
            owner: sum(cell[2] for cell in by_tier.values())
            for owner, by_tier in self._charges.items()
        }

    @property
    def access_ns_by(self) -> Dict[tuple, int]:
        """(owner, tier) → cumulative access ns, for time decomposition.

        Keys exist for every pair that was accessed at least once (even at
        zero cost)."""
        out: Dict[tuple, int] = {}
        for owner, by_tier in self._charges.items():
            for tier_name, cell in by_tier.items():
                if cell[1]:
                    out[(owner, tier_name)] = cell[0]
        return out

    def reset_reference_counters(self) -> None:
        """Zero the Fig 2c attribution counters and the time decomposition:
        access, storage and background ns (called after a workload's load
        phase so measurements cover steady state only)."""
        self.storage_ns_total = 0
        self.background_ns_total = 0
        #: owner → tier → [cumulative ns, references, bytes]: the one
        #: charge counter. The count decides which keys ``access_ns_by``
        #: reports (a zero-cost access still creates its key), and
        #: ``refs_by_tier``, ``refs_by_owner``, ``ref_bytes_by_owner`` and
        #: the reference report's totals are its marginals.
        self._charges: Dict[PageOwner, Dict[str, List[int]]] = {
            o: {t: [0, 0, 0] for t in self._tiers} for o in PageOwner
        }

    def fast_ref_fraction(self, fast_tier: str = "fast") -> float:
        """Fraction of references served by the fast tier — the quantity
        tiering quality ultimately controls."""
        by_tier = self.refs_by_tier
        total = sum(by_tier.values())
        fast = sum(n for (t, _k), n in by_tier.items() if t == fast_tier)
        return fast / total if total else 0.0

    def sanitize_teardown(self) -> Optional[Dict[str, int]]:
        """End-of-run accounting audit (``REPRO_SANITIZE=1`` only).

        Cross-checks every allocator's alloc/free balance against its live
        structures, the tier page counters against the live-frame index, and
        the KLOC metadata counters against a recomputation, and runs the
        filesystem's fsck sweep. Raises
        :class:`~repro.core.errors.SanitizerError` on any leak (and
        :class:`~repro.core.errors.VFSError` on a corrupt page cache); returns
        the sanitizer's summary counters (None when the mode is off).
        Read-only — charges no simulated time, so callers may audit after
        building their payload without perturbing it.
        """
        san = self._san
        if san is None:
            return None
        self.topology.check_invariants()
        for tier in self.topology.tiers.values():
            san.expect(
                f"tier {tier.name} used_pages (allocs - frees)",
                tier.used_pages,
                tier.total_allocs - tier.total_frees,
            )
        slab = self.slab
        san.expect(
            "slab live objects (allocs - frees) vs oid->page table",
            slab.stats.allocs - slab.stats.frees,
            len(slab._page_of),  # noqa: SLF001 - ground-truth recount
        )
        slab_pages = 0
        for cache in slab._caches.values():  # noqa: SLF001
            slab_pages += len(cache.partial) + len(cache.full)
        san.expect(
            "slab live pages (grabbed - returned) vs cache lists",
            slab.live_pages(),
            slab_pages,
        )
        kloc = self.kloc_alloc
        san.expect(
            "kloc live objects (allocs - frees) vs oid->page table",
            kloc.stats.allocs - kloc.stats.frees,
            len(kloc._page_of),  # noqa: SLF001 - ground-truth recount
        )
        kloc_pages = 0
        for pages in kloc._knode_pages.values():  # noqa: SLF001
            kloc_pages += len(pages)
        san.expect(
            "kloc live pages (grabbed - returned) vs knode page groups",
            kloc.live_pages(),
            kloc_pages,
        )
        if self.kloc_manager is not None:
            self.kloc_manager.verify_counters()
        self.fs.check_consistency()
        return san.report()

    def __repr__(self) -> str:
        return (
            f"Kernel(policy={self.policy.name}, now={self.clock.now_seconds():.3f}s, "
            f"{self.topology!r})"
        )

