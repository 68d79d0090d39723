"""Inodes — the anchor of the KLOC abstraction.

"In Unix-based 'everything is a file' OSes, there is one KLOC of kernel
objects associated with each inode" (§1). The inode therefore carries the
``knode_id`` pointer (Figure 1) plus the usual VFS state; sockets get
inodes too, which is how the network stack joins the same machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.alloc.base import KernelObject
from repro.core.errors import VFSError


class Inode:
    """One file or socket inode."""

    def __init__(
        self,
        ino: int,
        *,
        is_socket: bool = False,
        backing: Optional[KernelObject] = None,
    ) -> None:
        self.ino = ino
        self.is_socket = is_socket
        #: The slab/KLOC object physically holding this inode structure.
        self.backing = backing
        self.size_bytes = 0
        self.open_count = 0
        #: Figure 1: "The inode of each active file or socket maintains a
        #: pointer to a knode data structure."
        self.knode_id: Optional[int] = None
        self.deleted = False

    @property
    def is_open(self) -> bool:
        return self.open_count > 0

    def open(self) -> None:
        if self.deleted:
            raise VFSError(f"inode {self.ino} was unlinked")
        self.open_count += 1

    def close(self) -> None:
        if self.open_count <= 0:
            raise VFSError(f"inode {self.ino} is not open")
        self.open_count -= 1

    def __repr__(self) -> str:
        kind = "sock" if self.is_socket else "file"
        return f"Inode({kind} #{self.ino}, size={self.size_bytes}, knode={self.knode_id})"


class InodeTable:
    """Global inode registry (the VFS inode hash, simplified)."""

    def __init__(self) -> None:
        self._next_ino = 1
        self._inodes: Dict[int, Inode] = {}

    def create(
        self,
        *,
        is_socket: bool = False,
        backing: Optional[KernelObject] = None,
    ) -> Inode:
        inode = Inode(self._next_ino, is_socket=is_socket, backing=backing)
        self._next_ino += 1
        self._inodes[inode.ino] = inode
        return inode

    def get(self, ino: int) -> Inode:
        inode = self._inodes.get(ino)
        if inode is None:
            raise VFSError(f"no such inode: {ino}")
        return inode

    def drop(self, ino: int) -> None:
        if ino not in self._inodes:
            raise VFSError(f"no such inode: {ino}")
        del self._inodes[ino]

    def live_inodes(self) -> List[Inode]:
        return list(self._inodes.values())

    def __len__(self) -> int:
        return len(self._inodes)
