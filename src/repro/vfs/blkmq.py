"""Block layer: bio submission through multi-queue dispatch.

Every block I/O allocates a bio (Table 1's *block* object) and a blk-mq
request on the submitting CPU's hardware queue (Table 1's *blk_mq*), pays
the device transfer cost, and frees both at completion — the block-layer
object churn visible in Fig 2a's BLOCK_IO slice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.objtypes import KernelObjectType

if TYPE_CHECKING:
    from repro.core.context import KernelContext
    from repro.vfs.inode import Inode

#: Hoisted enum members: every submit allocates one of each.
_BLOCK = KernelObjectType.BLOCK
_BLK_MQ = KernelObjectType.BLK_MQ


class BlockMQ:
    """Multi-queue block layer front end."""

    def __init__(self, ctx: "KernelContext") -> None:
        self.ctx = ctx
        self.submitted = 0
        self.bytes_moved = 0
        #: Per-CPU dispatch counters (the "parallel dispatch" of Table 1).
        self.per_cpu_dispatch: List[int] = [0] * ctx.num_cpus

    def submit(
        self,
        nbytes: int,
        write: bool,
        sequential: bool,
        inode: Optional["Inode"] = None,
        cpu: int = 0,
        background: bool = False,
    ) -> int:
        """One block I/O: allocate bio + request, transfer, complete.
        Returns the device cost in ns."""
        if nbytes <= 0:
            raise ValueError(f"bio must move data: {nbytes}")
        ctx = self.ctx
        bio = ctx.alloc_object(_BLOCK, inode, cpu=cpu)
        req = ctx.alloc_object(_BLK_MQ, inode, cpu=cpu)
        # Building the request touches both structures.
        ctx.access_object(bio, write=True, cpu=cpu)
        ctx.access_object(req, write=True, cpu=cpu)
        cost = ctx.storage_io(
            nbytes, write=write, sequential=sequential, background=background
        )
        ctx.free_object(req, cpu=cpu)
        ctx.free_object(bio, cpu=cpu)
        self.submitted += 1
        self.bytes_moved += nbytes
        self.per_cpu_dispatch[cpu % len(self.per_cpu_dispatch)] += 1
        return cost

    def __repr__(self) -> str:
        return f"BlockMQ(submitted={self.submitted}, bytes={self.bytes_moved})"
