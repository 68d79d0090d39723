"""The tiering-policy protocol.

A policy answers three questions the kernel asks on its hot paths —
*where do application pages go*, *where do kernel objects go*, and *is
this allocation under KLOC management* — and may register background
daemons (LRU scans, migration threads) when attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.core.objtypes import KernelObjectType
    from repro.kernel.kernel import Kernel
    from repro.kloc.knode import Knode
    from repro.vfs.inode import Inode


class TieringPolicy:
    """Base class with the no-op defaults every strategy refines."""

    name = "base"
    #: Run the KlocManager hooks (knodes, kmap, per-CPU lists)?
    uses_kloc = False
    #: Redirect covered slab allocation sites to the relocatable KLOC
    #: allocation interface?
    uses_kloc_interface = False
    #: Does this policy migrate kernel objects at all?
    migrates_kernel_objects = False
    #: Is this an Optane/NUMA-mode policy (placement by node, not tier)?
    numa_mode = False
    #: Fill skbuffs' 8-byte socket field in the driver (§4.2.3)? Defaults
    #: to following uses_kloc; ideal bounds enable it explicitly.
    early_demux: Optional[bool] = None

    def __init__(self) -> None:
        self.kernel: Optional["Kernel"] = None

    def attach(self, kernel: "Kernel") -> None:
        """Bind to a kernel instance; called once during kernel setup."""
        self.kernel = kernel

    def start_daemons(self) -> None:
        """Register periodic work on the kernel's clock (default: none)."""

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def tier_order_app(self, *, cpu: int = 0) -> List[str]:
        """Allocation order for application pages."""
        return ["fast", "slow"]

    def tier_order_kernel(
        self,
        otype: "KernelObjectType",
        inode: Optional["Inode"],
        *,
        covered: bool,
        cpu: int = 0,
    ) -> List[str]:
        """Allocation order for a kernel object.

        ``covered`` is True when the object type is inside the KLOC
        registry's coverage *and* the policy uses KLOCs.
        """
        return ["fast", "slow"]

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------

    def on_knode_inactive(self, knode: "Knode") -> None:
        """A file/socket closed its last handle (KLOC policies act here)."""

    def on_knode_active(self, knode: "Knode") -> None:
        """A closed file/socket was reopened."""

    def on_prefetch(self, inode: "Inode", npages: int) -> None:
        """The readahead engine prefetched data pages of this inode."""

    def on_task_moved(self) -> None:
        """The scheduler moved the task to another NUMA node
        (:meth:`Kernel.set_task_node`)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
