"""The kernel-context protocol: the seam between subsystems and policy.

The filesystem and network stacks do not decide *where* memory comes from
or what a reference costs — they ask the kernel, which consults the
active tiering policy and the KLOC machinery. This protocol is that
interface; :class:`repro.kernel.kernel.Kernel` is the one real
implementation, and ``tests.fakes.FakeKernel`` the test double. Every
service here is required: subsystems call them unconditionally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol

if TYPE_CHECKING:
    from repro.alloc.base import KernelObject
    from repro.core.clock import Clock
    from repro.core.objtypes import KernelObjectType
    from repro.mem.frame import PageFrame
    from repro.vfs.inode import Inode


class KernelContext(Protocol):
    """Services the kernel provides to its subsystems (VFS, net, block)."""

    clock: "Clock"
    num_cpus: int

    # -- kernel object lifecycle ---------------------------------------
    def alloc_object(
        self,
        otype: "KernelObjectType",
        inode: Optional["Inode"] = None,
        *,
        cpu: int = 0,
    ) -> "KernelObject":
        """Allocate a kernel object, route it through the allocator family
        the active configuration picks (slab vs KLOC interface vs page),
        place it per the tiering policy, and — when KLOCs are enabled —
        attach it to the inode's knode."""
        ...

    def free_object(self, obj: "KernelObject", *, cpu: int = 0) -> int:
        """Release a kernel object (and its knode membership); advance the
        clock by the allocator's CPU cost and return it."""
        ...

    def adopt_object(
        self, obj: "KernelObject", inode: "Inode", *, cpu: int = 0
    ) -> None:
        """Attach an object allocated before its inode existed."""
        ...

    # -- references ------------------------------------------------------
    def access_object(
        self,
        obj: "KernelObject",
        nbytes: Optional[int] = None,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        """One reference to a kernel object: charge the tier cost to the
        virtual clock, attribute it in the metrics, refresh hotness.
        Returns the charged cost in ns."""
        ...

    def access_frame(
        self, frame: "PageFrame", nbytes: int, write: bool = False
    ) -> int:
        """One reference to a raw frame (application pages); charged like
        :meth:`access_object`, without the hotness refresh."""
        ...

    # -- application memory ----------------------------------------------
    def alloc_app_pages(
        self, npages: int, *, cpu: int = 0, huge: bool = False
    ) -> List["PageFrame"]: ...

    def free_app_pages(self, frames: List["PageFrame"]) -> None: ...

    # -- storage -----------------------------------------------------------
    def storage_io(
        self, nbytes: int, *, write: bool, sequential: bool, background: bool = False
    ) -> int:
        """Block-device transfer; ``background`` work is amortized across
        CPUs instead of stalling the foreground op."""
        ...

    # -- inode / KLOC lifecycle hooks ---------------------------------------
    def on_inode_create(self, inode: "Inode", *, cpu: int = 0) -> None: ...

    def on_inode_open(self, inode: "Inode", *, cpu: int = 0) -> None: ...

    def on_inode_close(self, inode: "Inode", *, cpu: int = 0) -> None: ...

    def on_inode_unlink(self, inode: "Inode", *, cpu: int = 0) -> None: ...

    def notify_prefetch(self, inode: "Inode", npages: int) -> None:
        """Readahead fetched ``npages`` of this inode."""
        ...
