"""KlocManager: the lifecycle glue between inodes, objects, and knodes.

Driven by the kernel's hooks (§4.1: "the OS system call interface ...
allocates kernel objects and adds pointers to them in the knodes"):

* inode created  → knode created, added to kmap (KLOC lifetime == inode
  lifetime, §4.2.2)
* inode opened   → knode ``inuse``, hot
* inode closed   → knode inactive → definitely-cold candidate; the
  ``on_knode_inactive`` callback lets the policy migrate immediately
  ("without waiting for scans of active/inactive lists", §4.5)
* inode unlinked → knode deleted; its objects are *freed*, never migrated
* object alloc/free/access → subtree membership + hotness upkeep
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.alloc.base import KernelObject
from repro.core.clock import Clock
from repro.core.config import KLOCSpec
from repro.core.errors import SimulationError
from repro.core.hotpath import hot
from repro.core.sanitize import Sanitizer
from repro.kloc.kmap import KMap
from repro.kloc.knode import KNODE_STRUCT_BYTES, RB_POINTER_BYTES, Knode
from repro.kloc.percpu_cache import PERCPU_ENTRY_BYTES, PerCPUKnodeCache
from repro.kloc.registry import KlocRegistry
from repro.vfs.inode import Inode


class KlocManager:
    """Owns the kmap, the per-CPU fast paths, and knode lifecycle."""

    def __init__(
        self,
        clock: Clock,
        *,
        num_cpus: int = 16,
        registry: Optional[KlocRegistry] = None,
        spec: Optional[KLOCSpec] = None,
        sanitizer: Optional[Sanitizer] = None,
    ) -> None:
        self.clock = clock
        #: The kernel's shared sanitizer (None unless REPRO_SANITIZE=1);
        #: enables the scan-boundary counter cross-checks.
        self.sanitizer = sanitizer
        self.spec = spec or KLOCSpec()
        self.registry = registry if registry is not None else KlocRegistry()
        self.kmap = KMap()
        self.percpu = PerCPUKnodeCache(
            self.kmap, num_cpus, self.spec.percpu_list_max
        )
        self._next_knode_id = 1
        #: Fired when a knode transitions to inactive (file/socket closed).
        self.on_knode_inactive: Optional[Callable[[Knode], None]] = None
        #: Fired when a knode becomes active again (reopen).
        self.on_knode_active: Optional[Callable[[Knode], None]] = None
        #: Fired when a knode is deleted (inode unlinked).
        self.on_knode_deleted: Optional[Callable[[Knode], None]] = None
        self.knodes_created = 0
        self.knodes_deleted = 0
        self.peak_metadata_bytes = 0
        #: Running count of rb-tree pointers (8B each), kept so metadata
        #: accounting is O(1) per allocation rather than a kmap walk.
        self._tracked_objects = 0
        #: Objects whose knode was deleted while they were still members:
        #: their late ``remove_object`` finds no knode and (deliberately)
        #: never decrements ``_tracked_objects``. Counted here so the
        #: sanitizer's recomputation can balance the books exactly.
        self._orphaned_objects = 0
        #: Live reference to the registry's coverage set (mutations in the
        #: registry stay visible) — coverage test without the method call.
        self._covered = self.registry._covered  # noqa: SLF001

    # ------------------------------------------------------------------
    # inode lifecycle
    # ------------------------------------------------------------------

    def create_knode(self, inode: Inode, *, cpu: int = 0) -> Knode:
        """map_knode(): new inode → new knode, registered in the kmap."""
        if inode.knode_id is not None:
            raise SimulationError(f"inode {inode.ino} already has a knode")
        knode = Knode(self._next_knode_id, inode.ino, created_at=self.clock.now())
        inode.knode_id = knode.knode_id
        self.percpu.record(knode.knode_id, cpu=cpu)
        self.register_knode(knode)
        return knode

    def register_knode(self, knode: Knode) -> None:
        """add_to_kmap(): insert a knode into the kmap and account for it.

        The one registration path: bumps ``knodes_created``, moves the
        next-id high-water mark past the knode's id and samples the
        metadata peak.
        """
        self.kmap.add(knode)
        self.knodes_created += 1
        if knode.knode_id >= self._next_knode_id:
            self._next_knode_id = knode.knode_id + 1
        self._note_metadata()

    def open_knode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        knode = self.knode_for_inode(inode, cpu=cpu)
        if knode is None:
            return None
        was_inactive = not knode.inuse
        knode.inuse = True
        knode.touch(self.clock.now())
        self.percpu.record(knode.knode_id, cpu=cpu)
        self._note_metadata()
        if was_inactive and self.on_knode_active is not None:
            self.on_knode_active(knode)
        return knode

    def close_knode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        """Mark the knode inactive once its last opener is gone."""
        knode = self.knode_for_inode(inode, cpu=cpu)
        if knode is None:
            return None
        if inode.open_count == 0:
            knode.inuse = False
            # §4.3: inactive knodes are invalidated from the fast paths.
            self.percpu.invalidate(knode.knode_id)
            self._note_metadata()
            if self.on_knode_inactive is not None:
                self.on_knode_inactive(knode)
        return knode

    def delete_knode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        """Inode deleted → knode deleted (§4.2.2); objects are freed by
        their subsystems, not migrated (§3.2)."""
        if inode.knode_id is None:
            return None
        knode = self.kmap.lookup(inode.knode_id)
        if knode is None:
            return None
        self.percpu.invalidate(knode.knode_id)
        self.kmap.remove(knode.knode_id)
        self._orphaned_objects += knode.object_count
        self.knodes_deleted += 1
        self._note_metadata()
        if self.on_knode_deleted is not None:
            self.on_knode_deleted(knode)
        inode.knode_id = None
        return knode

    # ------------------------------------------------------------------
    # object membership
    # ------------------------------------------------------------------

    def attach_object(self, knode: Knode, obj: KernelObject) -> None:
        """knode_add_obj(): make ``obj`` a member of ``knode`` and account
        for its rb-tree pointer."""
        obj.knode_id = knode.knode_id
        knode.add_obj(obj)
        self._tracked_objects += 1
        self._note_metadata()

    @hot
    def add_object(self, inode: Inode, obj: KernelObject, *, cpu: int = 0) -> bool:
        """Attach an object to the inode's knode (knode_add_obj()).

        Returns False when the inode has no knode or the type is outside
        the registry's coverage (excluded from the KLOC abstraction, as in
        Fig 5c's partial configurations).
        """
        if obj.otype not in self._covered:
            return False
        kid = inode.knode_id
        if kid is None:
            return False
        # A recorded per-CPU entry needs no sample of its own here: the
        # sample after the attach below sees strictly more metadata.
        knode, _recorded = self.percpu.lookup(kid, cpu=cpu)
        if knode is None:
            return False
        obj.knode_id = knode.knode_id
        knode.add_obj(obj)
        knode.age = 0
        knode.last_access = self.clock._now  # noqa: SLF001 - hot-path read
        self._tracked_objects += 1
        # _note_metadata(), inlined: the attach grew the rb-tree pointers.
        size = (
            KNODE_STRUCT_BYTES * (self.knodes_created - self.knodes_deleted)
            + RB_POINTER_BYTES * self._tracked_objects
            + PERCPU_ENTRY_BYTES * self.percpu.total_entries
        )
        if size > self.peak_metadata_bytes:
            self.peak_metadata_bytes = size
        return True

    @hot
    def remove_object(self, obj: KernelObject, *, cpu: int = 0) -> bool:
        kid = obj.knode_id
        if kid is None:
            return False
        knode, recorded = self.percpu.lookup(kid, cpu=cpu)
        if knode is None:
            return False
        removed = knode.remove_obj(obj)
        if removed:
            self._tracked_objects -= 1
            # Only a recorded entry can have grown metadata; a hit followed
            # by a removal strictly shrinks it.
            if recorded:
                self._note_metadata()
        return removed

    @hot
    def note_access(self, obj: KernelObject, *, cpu: int = 0) -> None:
        """A member object was referenced — refresh its KLOC's hotness.

        After the lookup the knode is already at the MRU end of ``cpu``'s
        list (a hit refreshes recency; a miss records it), so no further
        per-CPU update is due.
        """
        kid = obj.knode_id
        if kid is None:
            return
        knode, recorded = self.percpu.lookup(kid, cpu=cpu)
        if knode is None:
            return
        if recorded:
            self._note_metadata()
        knode.age = 0
        knode.last_access = self.clock._now  # noqa: SLF001 - hot-path read

    @hot
    def knode_for_inode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        kid = inode.knode_id
        if kid is None:
            return None
        knode, recorded = self.percpu.lookup(kid, cpu=cpu)
        if recorded:
            self._note_metadata()
        return knode

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def metadata_bytes(self) -> int:
        """Live KLOC metadata (Table 6's accounting): 64B per knode, 8B of
        rb-tree pointer per tracked object, plus the per-CPU lists.

        Every term is a maintained counter — ``knodes_created -
        knodes_deleted`` is the kmap population (knodes only leave via
        :meth:`delete_knode`) — so this (and the peak sampling built on
        it) is pure arithmetic per call.
        """
        return (
            KNODE_STRUCT_BYTES * (self.knodes_created - self.knodes_deleted)
            + RB_POINTER_BYTES * self._tracked_objects
            + PERCPU_ENTRY_BYTES * self.percpu.total_entries
        )

    @hot
    def _note_metadata(self) -> None:
        """Sample the peak after any mutation that can grow metadata.

        Called from every site that changes the kmap population, the
        tracked-object count, or the per-CPU lists — not just object
        attach — so short runs no longer under-report the peak.
        """
        size = self.metadata_bytes()
        if size > self.peak_metadata_bytes:
            self.peak_metadata_bytes = size

    def verify_counters(self) -> None:
        """Sanitizer cross-check: every incrementally maintained counter
        must equal a full recomputation from the live structures.

        Called by the migration daemon at scan boundaries and by kernel
        teardown when ``REPRO_SANITIZE=1``; a no-op otherwise. Read-only —
        the recomputation touches no counters and charges no time.
        """
        san = self.sanitizer
        if san is None:
            return
        knodes = self.kmap.all_knodes()
        san.expect(
            "kmap population (knodes_created - knodes_deleted)",
            self.knodes_created - self.knodes_deleted,
            len(knodes),
        )
        members = 0
        for knode in knodes:
            members += knode.object_count
            san.expect(
                f"knode #{knode.knode_id} frame cache", knode.frames(), knode.walk_frames()
            )
        san.expect(
            "KlocManager._tracked_objects (rb-tree pointers)",
            self._tracked_objects,
            members + self._orphaned_objects,
        )
        percpu = self.percpu
        san.expect(
            "PerCPUKnodeCache.total_entries", percpu.total_entries, percpu.recount()
        )

    def __repr__(self) -> str:
        return (
            f"KlocManager(knodes={len(self.kmap)}, created={self.knodes_created}, "
            f"deleted={self.knodes_deleted})"
        )
