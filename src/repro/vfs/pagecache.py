"""Page cache: per-inode radix-tree indexes plus a global LRU manager.

Page-cache pages are the dominant kernel objects for the paper's
filesystem-heavy workloads (Fig 2a: "page cache pages dominate RocksDB
allocation"; §4.4: 79% of downgrade migrations are page cache pages).
Each inode owns a radix tree of cached pages; a global manager enforces a
capacity cap with Linux's two-list LRU, producing the eviction churn that
gives cache pages their ~160ms lifetimes (Fig 2d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.alloc.base import KernelObject
from repro.core.errors import SimulationError
from repro.ds.lru import ActiveInactiveLRU
from repro.ds.radix import RadixTree


@dataclass(eq=False, slots=True)
class CachePage:
    """One cached file page: the PAGE_CACHE object plus its position.
    Hashed by identity: the radix tree admits one page per index, so no
    two live pages are ever equal."""

    obj: KernelObject
    ino: int
    index: int

    @property
    def dirty(self) -> bool:
        return self.obj.frame.dirty

    def clean(self) -> None:
        self.obj.frame.dirty = False


class PageCache:
    """Per-inode page index, backed by a kernel radix tree.

    The data path probes and fills ``tree`` directly (``tree.lookup``,
    ``tree.insert``): one radix call per page, no forwarding frame.

    ``alloc_node``/``free_node`` create and destroy the RADIX_NODE slab
    objects for interior nodes, so index metadata shows up in the
    footprint breakdowns exactly as §3.3 describes.
    """

    def __init__(
        self,
        ino: int,
        alloc_node: Callable[[], KernelObject],
        free_node: Callable[[KernelObject], None],
    ) -> None:
        self.ino = ino
        self._alloc_node = alloc_node
        self._free_node = free_node
        self.tree = RadixTree(
            on_node_alloc=self._node_alloc, on_node_free=self._node_free
        )
        #: Dirty index: every dirty cached page (and maybe stale clean
        #: ones). Enter a page here before dirtying its frame.
        self.dirty: Dict[int, CachePage] = {}

    def _node_alloc(self, node) -> None:
        node.token = self._alloc_node()

    def _node_free(self, node) -> None:
        if node.token is not None:
            self._free_node(node.token)

    def remove(self, index: int) -> Optional[CachePage]:
        self.dirty.pop(index, None)
        return self.tree.delete(index)

    def pages(self) -> List[CachePage]:
        return [page for _idx, page in self.tree.items()]

    def dirty_pages(self) -> List[CachePage]:
        """Dirty pages in index order (stale clean entries skipped)."""
        return [page for _i, page in sorted(self.dirty.items()) if page.obj.frame.dirty]

    def __len__(self) -> int:
        return len(self.tree)


class PageCacheManager:
    """Global page-cache accounting, LRU ordering, and pressure handling.

    The filesystem's data path works on :attr:`lru` directly (insert on
    a fill, touch on a hit, remove on eviction or unlink), checks the
    cap against ``len(lru)`` before each fill, and counts fills in
    :attr:`inserted` and evictions in :attr:`evicted`.
    """

    def __init__(self, max_pages: int) -> None:
        if max_pages <= 0:
            raise ValueError(f"page cache cap must be positive: {max_pages}")
        self.max_pages = max_pages
        self.lru: ActiveInactiveLRU[CachePage] = ActiveInactiveLRU()
        self._caches: Dict[int, PageCache] = {}
        self.inserted = 0
        self.evicted = 0

    def register(self, cache: PageCache) -> None:
        if cache.ino in self._caches:
            raise SimulationError(f"page cache for inode {cache.ino} exists")
        self._caches[cache.ino] = cache

    def unregister(self, ino: int) -> None:
        self._caches.pop(ino, None)

    def cache_for(self, ino: int) -> Optional[PageCache]:
        return self._caches.get(ino)

    @property
    def total_pages(self) -> int:
        return len(self.lru)

    def eviction_victims(self, n: int) -> List[Tuple[PageCache, CachePage]]:
        """Pick the ``n`` coldest pages with their owning caches.

        The caller (filesystem) writes back dirty victims, frees the
        backing objects, and removes them from :attr:`lru`; pages whose
        cache vanished already are skipped defensively.
        """
        victims: List[Tuple[PageCache, CachePage]] = []
        for page in self.lru.eviction_candidates(n):
            cache = self._caches.get(page.ino)
            if cache is not None:
                victims.append((cache, page))
        return victims

    def caches(self) -> Iterable[PageCache]:
        """Registered caches, oldest inode first."""
        return self._caches.values()

    def __repr__(self) -> str:
        return f"PageCacheManager({self.total_pages}/{self.max_pages} pages)"
