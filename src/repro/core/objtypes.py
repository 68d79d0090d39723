"""Kernel object taxonomy — the paper's Table 1, as code.

Every kernel object the simulator allocates carries a
:class:`KernelObjectType`, which fixes its subsystem (FS / Network /
both), its approximate size (taken from Linux 4.17 slab cache sizes), the
allocator family that creates it, and the :class:`~repro.mem.frame.PageOwner`
bucket used by the Figure 2 footprint attribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.units import KB, PAGE_SIZE
from repro.mem.frame import PageOwner


class Subsystem(enum.Enum):
    FS = "fs"
    NETWORK = "network"
    BOTH = "fs/network"


class AllocatorKind(enum.Enum):
    """Which allocation family creates objects of a type (§3.3).

    SLAB objects are physically addressed and non-relocatable; PAGE
    objects (page cache, journal buffers, rx rings) come from the page
    allocator and can be moved; the KLOC allocation interface (§4.2 /
    §4.4) gives slab-speed *relocatable* allocations and is what the
    paper's 400+ redirected call sites use.
    """

    SLAB = "slab"
    PAGE = "page"


@dataclass(frozen=True)
class ObjectSpec:
    """Static attributes of one kernel object type."""

    size_bytes: int
    subsystem: Subsystem
    allocator: AllocatorKind
    owner: PageOwner


class KernelObjectType(enum.Enum):
    """Table 1: the kernel objects that form the basis of this work."""

    # Identity hash, mirroring PageOwner: registry coverage checks hash a
    # type on every allocation; id() is valid for singleton members.
    __hash__ = object.__hash__

    #: Per-file inode (ext4_inode_cache is ~1KB in Linux 4.17).
    INODE = ObjectSpec(1 * KB, Subsystem.BOTH, AllocatorKind.SLAB, PageOwner.SLAB)
    #: Block I/O structure (bio) for conversion of metadata to disk blocks.
    BLOCK = ObjectSpec(256, Subsystem.FS, AllocatorKind.SLAB, PageOwner.BLOCK_IO)
    #: Filesystem journal buffers (jbd2 journal head + data, page-backed).
    JOURNAL = ObjectSpec(PAGE_SIZE, Subsystem.FS, AllocatorKind.PAGE, PageOwner.JOURNAL)
    #: Buffer-cache page.
    PAGE_CACHE = ObjectSpec(
        PAGE_SIZE, Subsystem.FS, AllocatorKind.PAGE, PageOwner.PAGE_CACHE
    )
    #: Name resolution entry for each file.
    DENTRY = ObjectSpec(192, Subsystem.FS, AllocatorKind.SLAB, PageOwner.SLAB)
    #: Structure grouping contiguous disk blocks (extent_status).
    EXTENT = ObjectSpec(64, Subsystem.FS, AllocatorKind.SLAB, PageOwner.SLAB)
    #: Block layer multi-queue request for parallel dispatch.
    BLK_MQ = ObjectSpec(384, Subsystem.FS, AllocatorKind.SLAB, PageOwner.BLOCK_IO)
    #: Page-cache radix-tree interior node (radix_tree_node cache, 576B).
    RADIX_NODE = ObjectSpec(576, Subsystem.FS, AllocatorKind.SLAB, PageOwner.SLAB)
    #: Socket object for packet buffers.
    SOCK = ObjectSpec(2 * KB, Subsystem.NETWORK, AllocatorKind.SLAB, PageOwner.SLAB)
    #: Header for packet buffer.
    SKBUFF = ObjectSpec(256, Subsystem.NETWORK, AllocatorKind.SLAB, PageOwner.SLAB)
    #: Data buffer for packet (skbuff->data).
    SKBUFF_DATA = ObjectSpec(
        2 * KB, Subsystem.NETWORK, AllocatorKind.PAGE, PageOwner.SOCKBUF
    )
    #: Network receive driver buffer (rx ring entry).
    RX_BUF = ObjectSpec(
        PAGE_SIZE, Subsystem.NETWORK, AllocatorKind.PAGE, PageOwner.SOCKBUF
    )

    def __init__(self, spec: ObjectSpec) -> None:
        # Plain instance attributes rather than properties: these fields
        # are read on every allocation and charge, and a property routes
        # each read through the enum's descriptor machinery (``.value``
        # is a DynamicClassAttribute). Same values, set once per member.
        self.spec = spec
        self.size_bytes = spec.size_bytes
        self.subsystem = spec.subsystem
        self.allocator = spec.allocator
        self.owner = spec.owner
        self.is_slab = spec.allocator is AllocatorKind.SLAB


#: Fig 5c's incremental KLOC-coverage groups, in the order the paper adds
#: them: page caches, then journals, then slab objects, then socket
#: buffers, then block I/O.
FIG5C_GROUPS = {
    "page_cache": (KernelObjectType.PAGE_CACHE,),
    "journal": (KernelObjectType.JOURNAL,),
    "slab": (
        KernelObjectType.INODE,
        KernelObjectType.DENTRY,
        KernelObjectType.EXTENT,
        KernelObjectType.RADIX_NODE,
        KernelObjectType.SOCK,
        KernelObjectType.SKBUFF,
    ),
    "sockbuf": (KernelObjectType.SKBUFF_DATA, KernelObjectType.RX_BUF),
    "block_io": (KernelObjectType.BLOCK, KernelObjectType.BLK_MQ),
}
