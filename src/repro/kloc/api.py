"""Table 2's KLOC API, name for name.

The paper exposes two system calls to administrators and a handful of
kernel-internal functions to OS developers. This module provides the same
surface over :class:`~repro.kloc.manager.KlocManager`, so examples and
tests can be written against the paper's interface verbatim.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.core.errors import ConfigError

if TYPE_CHECKING:
    from repro.alloc.base import KernelObject
    from repro.kloc.knode import Knode
    from repro.kloc.manager import KlocManager
    from repro.vfs.inode import Inode


class KlocAPI:
    """Table 2, as callable methods."""

    def __init__(self, manager: "KlocManager") -> None:
        self.manager = manager
        self._enabled_for: set = set()

    # -- Admin-facing system calls -------------------------------------

    def sys_enable_kloc(self, app_name: str) -> bool:
        """System call to enable KLOC for an application (via the shared
        user-level library, §4.2.1). Idempotent per application."""
        if not app_name:
            raise ConfigError("application name required")
        fresh = app_name not in self._enabled_for
        self._enabled_for.add(app_name)
        return fresh

    def sys_kloc_memsize(self, memtype: str, size_fraction: float) -> None:
        """System call to limit KLOC's use of one memory type's capacity."""
        if memtype != "fast":
            raise ConfigError(f"only the fast tier is capped: {memtype!r}")
        if not 0.0 < size_fraction <= 1.0:
            raise ConfigError(f"fraction out of range: {size_fraction}")
        self.manager.spec = replace(
            self.manager.spec, fast_capacity_fraction=size_fraction
        )

    # -- OS-developer functions -----------------------------------------

    def map_knode(self, inode: "Inode", *, cpu: int = 0) -> "Knode":
        """Map a new inode to a knode."""
        return self.manager.create_knode(inode, cpu=cpu)

    def knode_add_obj(self, knode: "Knode", obj: "KernelObject") -> None:
        """Add kernel object to a knode."""
        self.manager.attach_object(knode, obj)

    def itr_knode_slab(self, knode: "Knode") -> Iterator["KernelObject"]:
        """Iterate knode's kernel objects in the slab tree."""
        return knode.iter_slab()

    def itr_knode_cache(self, knode: "Knode") -> Iterator["KernelObject"]:
        """Iterate knode's kernel objects in the page-cache tree."""
        return knode.iter_cache()

    def add_to_kmap(self, knode: "Knode") -> None:
        """Add knode to the global kmap."""
        self.manager.register_knode(knode)

    def get_lru_knodes(self, limit: int = 32) -> List["Knode"]:
        """Get LRU knodes from kmap."""
        return self.manager.kmap.get_lru_knodes(limit)

    def find_cpu(self, knode: "Knode") -> Optional[int]:
        """Find CPU that last accessed a knode."""
        return self.manager.percpu.find_cpu(knode.knode_id)

    def __repr__(self) -> str:
        return f"KlocAPI(enabled_for={sorted(self._enabled_for)})"
