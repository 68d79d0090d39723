"""Extent trees: grouping contiguous disk blocks (Table 1's *extent*).

ext4 maps logical file ranges to contiguous disk block runs; each run is
an extent_status slab object. The simulator allocates one extent per
fixed-size logical span on first write, looks extents up on every I/O,
and frees them all at truncate/unlink.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.alloc.base import KernelObject
from repro.core.units import KB, PAGE_SIZE

#: One extent covers 256KB of logical file space (64 pages) — a typical
#: ext4 allocation run under streaming writes.
EXTENT_SPAN_BYTES = 256 * KB
EXTENT_SPAN_PAGES = EXTENT_SPAN_BYTES // PAGE_SIZE


class ExtentTree:
    """Per-inode map: logical span index → extent object."""

    def __init__(self) -> None:
        self._extents: Dict[int, KernelObject] = {}
        self.lookups = 0

    def lookup(self, page_index: int) -> Optional[KernelObject]:
        """Find the extent covering a page (None → hole, needs allocation)."""
        self.lookups += 1
        return self._extents.get(page_index // EXTENT_SPAN_PAGES)

    def insert(self, page_index: int, extent: KernelObject) -> None:
        """Map the span covering ``page_index`` to ``extent``."""
        self._extents[page_index // EXTENT_SPAN_PAGES] = extent

    def remove_all(self) -> List[KernelObject]:
        """Detach every extent (truncate/unlink); caller frees them."""
        extents = list(self._extents.values())
        self._extents.clear()
        return extents

    def __len__(self) -> int:
        return len(self._extents)

    def __repr__(self) -> str:
        return f"ExtentTree(extents={len(self)})"
