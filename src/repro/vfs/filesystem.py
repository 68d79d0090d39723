"""The ext4-like filesystem facade: create/open/read/write/fsync/close/unlink.

Every operation performs the kernel-object work Figure 3(b) walks
through: a write allocates page-cache pages, radix-tree nodes, extents,
and journal records; a cache-miss read raises bios through blk-mq; close
and unlink drive the knode lifecycle via the kernel-context hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.core.errors import SimulationError, VFSError
from repro.core.hotpath import hot
from repro.core.objtypes import KernelObjectType
from repro.core.units import PAGE_SIZE
from repro.vfs.blkmq import BlockMQ
from repro.vfs.dentry import Dentry, DentryCache
from repro.vfs.extent import ExtentTree
from repro.vfs.inode import Inode, InodeTable
from repro.vfs.journal import Journal
from repro.vfs.pagecache import CachePage, PageCache, PageCacheManager
from repro.vfs.readahead import ReadaheadState

if TYPE_CHECKING:
    from repro.core.context import KernelContext

#: Size of the inode field updates journalled per data-extending write.
INODE_UPDATE_RECORDS = 1


class _RadixNodeOps:
    """Alloc/free callbacks for one page cache's radix-tree nodes.

    The creating CPU is captured so node churn stays attributed to the
    CPU that built the cache.
    """

    __slots__ = ("ctx", "inode", "cpu")

    def __init__(self, ctx: "KernelContext", inode: Inode, cpu: int) -> None:
        self.ctx = ctx
        self.inode = inode
        self.cpu = cpu

    def alloc(self) -> object:
        return self.ctx.alloc_object(
            KernelObjectType.RADIX_NODE, self.inode, cpu=self.cpu
        )

    def free(self, node: object) -> None:
        self.ctx.free_object(node, cpu=self.cpu)


@dataclass
class FileHandle:
    """An open file descriptor."""

    fd: int
    path: str
    inode: Inode
    readahead: ReadaheadState = field(default_factory=ReadaheadState)
    closed: bool = False


class Filesystem:
    """Everything-is-a-file VFS over one journal, one device, one cache."""

    def __init__(
        self,
        ctx: "KernelContext",
        *,
        page_cache_max_pages: int = 1 << 20,
        readahead_enabled: bool = True,
        dentry_cache_entries: int = 100_000,
    ) -> None:
        self.ctx = ctx
        self.inodes = InodeTable()
        self.dcache = DentryCache(max_entries=dentry_cache_entries)
        self.cache_mgr = PageCacheManager(max_pages=page_cache_max_pages)
        self.journal = Journal(ctx)
        self.blk = BlockMQ(ctx)
        self.readahead_enabled = readahead_enabled
        self._next_fd = 3
        self._handles: Dict[int, FileHandle] = {}
        self._extents: Dict[int, ExtentTree] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------

    def create(self, path: str, *, cpu: int = 0) -> FileHandle:
        """Create and open a new file (Figure 3(b)'s open/create path)."""
        if self.dcache.lookup(path) is not None:
            raise VFSError(f"file exists: {path}")

        inode_obj = self.ctx.alloc_object(KernelObjectType.INODE, None, cpu=cpu)
        inode = self.inodes.create(backing=inode_obj)
        self.ctx.on_inode_create(inode, cpu=cpu)
        # The inode structure was allocated before its knode existed.
        self.ctx.adopt_object(inode_obj, inode)

        dentry_obj = self.ctx.alloc_object(KernelObjectType.DENTRY, inode, cpu=cpu)
        self.ctx.access_object(dentry_obj, write=True, cpu=cpu)
        for evicted in self.dcache.insert(Dentry(path, inode, dentry_obj)):
            self.ctx.free_object(evicted.backing, cpu=cpu)

        node_ops = _RadixNodeOps(self.ctx, inode, cpu)
        cache = PageCache(
            inode.ino, alloc_node=node_ops.alloc, free_node=node_ops.free
        )
        self.cache_mgr.register(cache)
        self._extents[inode.ino] = ExtentTree()

        # Directory + inode metadata hit the journal.
        self.journal.log_metadata(inode, 2, cpu=cpu)
        return self._open_inode(path, inode, cpu=cpu)

    def open(self, path: str, *, cpu: int = 0) -> FileHandle:
        """Open an existing file."""
        dentry = self.dcache.lookup(path)
        if dentry is None:
            raise VFSError(f"no such file: {path}")
        # Name resolution touches the dentry and the inode structure.
        self.ctx.access_object(dentry.backing, cpu=cpu)
        if dentry.inode.backing is not None:
            self.ctx.access_object(dentry.inode.backing, cpu=cpu)
        return self._open_inode(path, dentry.inode, cpu=cpu)

    def _open_inode(self, path: str, inode: Inode, *, cpu: int) -> FileHandle:
        inode.open()
        self.ctx.on_inode_open(inode, cpu=cpu)
        handle = FileHandle(self._next_fd, path, inode)
        self._next_fd += 1
        self._handles[handle.fd] = handle
        return handle

    def close(self, handle: FileHandle, *, cpu: int = 0) -> None:
        if handle.closed:
            raise VFSError(f"fd {handle.fd} already closed")
        handle.closed = True
        del self._handles[handle.fd]
        handle.inode.close()
        if handle.inode.backing is not None:
            self.ctx.access_object(handle.inode.backing, write=True, cpu=cpu)
        self.ctx.on_inode_close(handle.inode, cpu=cpu)

    def unlink(self, path: str, *, cpu: int = 0) -> None:
        """Delete a file: its kernel objects are *deallocated*, not
        migrated (§3.2 implication two)."""
        dentry = self.dcache.lookup(path)
        if dentry is None:
            raise VFSError(f"no such file: {path}")
        inode = dentry.inode
        if inode.is_open:
            # Reject before mutating anything: a failed unlink must leave
            # the namespace untouched.
            raise VFSError(f"cannot unlink open file: {path}")
        self.dcache.remove(path)
        inode.deleted = True

        cache = self.cache_mgr.cache_for(inode.ino)
        if cache is not None:
            lru = self.cache_mgr.lru
            tree = cache.tree
            dirty = cache.dirty
            ctx = self.ctx
            # Page by page, in index order: a daemon fired by a free sees
            # the pages not yet dropped still cached (and still dirty).
            for index, page in tree.items():
                lru.remove(page)
                dirty.pop(index, None)
                tree.delete(index)
                ctx.free_object(page.obj, cpu=cpu)
            self.cache_mgr.unregister(inode.ino)
        extents = self._extents.pop(inode.ino, None)
        if extents is not None:
            for extent in extents.remove_all():
                self.ctx.free_object(extent, cpu=cpu)

        self.ctx.free_object(dentry.backing, cpu=cpu)
        self.journal.log_metadata(inode, 2, cpu=cpu)
        self.ctx.on_inode_unlink(inode, cpu=cpu)
        if inode.backing is not None:
            self.ctx.free_object(inode.backing, cpu=cpu)
        self.inodes.drop(inode.ino)

    def exists(self, path: str) -> bool:
        return path in self.dcache

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------

    @hot
    def write(self, handle: FileHandle, offset: int, nbytes: int, *, cpu: int = 0) -> int:
        """Buffered write: page cache population + metadata journalling.

        One pass over the pages the write touches. Each page makes one
        radix lookup and one access charge for the bytes landing on it.
        A cached page adds one LRU touch and one charge to the radix root
        (the index walk); a new page adds one fill and one extent lookup.
        """
        if handle.closed:
            raise VFSError(f"fd {handle.fd} is closed")
        if nbytes <= 0:
            raise ValueError(f"write needs bytes: {nbytes}")
        inode = handle.inode
        cache = self._cache(inode)
        tree = cache.tree
        dirty = cache.dirty
        lru = self.cache_mgr.lru
        extents = self._extents[inode.ino]
        ctx = self.ctx
        end = offset + nbytes
        pos = offset
        for index in range(offset // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
            page = tree.lookup(index)
            if page is None:
                page = self._fill_page(cache, inode, index, cpu, False)
                # New data may need a new extent, which is journalled.
                if extents.lookup(index) is None:
                    extent = ctx.alloc_object(KernelObjectType.EXTENT, inode, cpu=cpu)
                    extents.insert(index, extent)
                    ctx.access_object(extent, write=True, cpu=cpu)
                    self.journal.log_metadata(inode, 1, cpu=cpu)
            else:
                lru.touch(page)
                token = tree.root.token
                if token is not None and token.freed_at is None:
                    ctx.access_object(token, 64, cpu=cpu)
            page_end = (index + 1) * PAGE_SIZE
            # Index before dirtying: the access may fire the writeback timer.
            dirty[index] = page
            ctx.access_object(
                page.obj, (page_end if page_end < end else end) - pos, write=True, cpu=cpu
            )
            pos = page_end

        if end > inode.size_bytes:
            inode.size_bytes = end
        if inode.backing is not None:
            ctx.access_object(inode.backing, write=True, cpu=cpu)
        self.journal.log_metadata(inode, INODE_UPDATE_RECORDS, cpu=cpu)
        return nbytes

    def read(self, handle: FileHandle, offset: int, nbytes: int, *, cpu: int = 0) -> int:
        """Buffered read with cache-miss block I/O and adaptive readahead.

        :meth:`write`'s loop shape; a miss instead goes to disk (extent
        lookup, one bio, a fill), and each page ends with one readahead
        update.
        """
        if handle.closed:
            raise VFSError(f"fd {handle.fd} is closed")
        if nbytes <= 0:
            raise ValueError(f"read needs bytes: {nbytes}")
        inode = handle.inode
        cache = self._cache(inode)
        limit = min(offset + nbytes, inode.size_bytes)
        if offset >= limit:
            return 0

        ctx = self.ctx
        tree = cache.tree
        lru = self.cache_mgr.lru
        readahead = handle.readahead if self.readahead_enabled else None
        max_index = (inode.size_bytes - 1) // PAGE_SIZE
        pos = offset
        for index in range(offset // PAGE_SIZE, (limit - 1) // PAGE_SIZE + 1):
            page = tree.lookup(index)
            if page is None:
                self.cache_misses += 1
                extent = self._extents[inode.ino].lookup(index)
                if extent is not None:
                    ctx.access_object(extent, cpu=cpu)
                self.blk.submit(PAGE_SIZE, False, False, inode, cpu)
                page = self._fill_page(cache, inode, index, cpu, True)
            else:
                self.cache_hits += 1
                lru.touch(page)
                token = tree.root.token
                if token is not None and token.freed_at is None:
                    ctx.access_object(token, 64, cpu=cpu)
            page_end = (index + 1) * PAGE_SIZE
            ctx.access_object(
                page.obj, (page_end if page_end < limit else limit) - pos, cpu=cpu
            )
            pos = page_end

            if readahead is not None:
                to_fetch = []
                for i in readahead.update(index):
                    if i <= max_index and tree.lookup(i) is None:
                        to_fetch.append(i)
                if to_fetch:
                    self._readahead(cache, inode, to_fetch, cpu)

        return limit - offset

    def fsync(self, handle: FileHandle, *, cpu: int = 0, background: bool = False) -> int:
        """Flush this inode's dirty pages and force a journal commit.

        ``background=True`` models fsyncs issued from an application's own
        background threads (LSM flush/compaction workers, fork-based
        checkpointers): the device work overlaps foreground progress.
        """
        if handle.closed:
            raise VFSError(f"fd {handle.fd} is closed")
        inode = handle.inode
        cache = self._cache(inode)
        dirty = cache.dirty_pages()
        if dirty:
            self.blk.submit(
                len(dirty) * PAGE_SIZE,
                write=True,
                sequential=True,
                inode=inode,
                cpu=cpu,
                background=background,
            )
            for page in dirty:
                page.obj.frame.dirty = False
        cache.dirty.clear()
        self.journal.commit(cpu=cpu, background=background)
        return len(dirty)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _cache(self, inode: Inode) -> PageCache:
        cache = self.cache_mgr.cache_for(inode.ino)
        if cache is None:
            raise VFSError(f"inode {inode.ino} has no page cache")
        return cache

    def _fill_page(
        self, cache: PageCache, inode: Inode, index: int, cpu: int, from_disk: bool
    ) -> CachePage:
        """Allocate a page-cache page, evicting under global pressure."""
        cache_mgr = self.cache_mgr
        lru = cache_mgr.lru
        need = len(lru) + 1 - cache_mgr.max_pages
        if need > 0:
            self._reclaim(need, cpu)
        obj = self.ctx.alloc_object(KernelObjectType.PAGE_CACHE, inode, cpu=cpu)
        page = CachePage(obj, inode.ino, index)
        if from_disk:
            # Device data lands in the page: one full-page write.
            self.ctx.access_object(obj, PAGE_SIZE, write=True, cpu=cpu)
            page.clean()  # disk contents are clean until modified
        if not cache.tree.insert(index, page):
            raise SimulationError(f"page {index} of inode {inode.ino} already cached")
        lru.insert(page)
        cache_mgr.inserted += 1
        return page

    def _reclaim(self, need: int, cpu: int) -> None:
        """Shrink the page cache by ``need`` pages, coldest first."""
        cache_mgr = self.cache_mgr
        for cache, page in cache_mgr.eviction_victims(need):
            if page.dirty:
                self.blk.submit(PAGE_SIZE, True, False, None, cpu, True)
                page.clean()
            cache_mgr.lru.remove(page)
            cache.remove(page.index)
            self.ctx.free_object(page.obj, cpu=cpu)
            cache_mgr.evicted += 1

    def _readahead(
        self, cache: PageCache, inode: Inode, to_fetch: List[int], cpu: int
    ) -> None:
        """Fetch the uncached pages of a readahead window."""
        # One sequential bio brings the whole window in asynchronously.
        self.blk.submit(len(to_fetch) * PAGE_SIZE, False, True, inode, cpu, True)
        for i in to_fetch:
            self._fill_page(cache, inode, i, cpu, True)
        self.ctx.notify_prefetch(inode, len(to_fetch))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """fsck-style invariant sweep; raises VFSError on corruption.

        Verifies: every dentry's inode is registered and undeleted; every
        registered page cache belongs to a live inode; cached pages map
        within their file's size and, when dirty, in its dirty index (which
        names only cached pages); open handles reference open inodes; and
        the global LRU count matches the per-inode caches.
        """
        live_inos = {inode.ino for inode in self.inodes.live_inodes()}
        for path in list(self.dcache._entries):  # noqa: SLF001 - audit walk
            dentry = self.dcache._entries[path]  # noqa: SLF001
            if dentry.inode.ino not in live_inos:
                raise VFSError(f"dentry {path} points at dropped inode")
            if dentry.inode.deleted:
                raise VFSError(f"dentry {path} points at deleted inode")
        total_cached = 0
        for ino in list(self.cache_mgr._caches):  # noqa: SLF001 - audit walk
            if ino not in live_inos:
                raise VFSError(f"page cache registered for dropped inode {ino}")
            inode = self.inodes.get(ino)
            cache = self.cache_mgr.cache_for(ino)
            max_index = (
                (inode.size_bytes - 1) // PAGE_SIZE if inode.size_bytes else -1
            )
            for page in cache.pages():
                total_cached += 1
                if not page.obj.live:
                    raise VFSError(f"inode {ino} caches a freed page object")
                if page.index > max_index:
                    raise VFSError(
                        f"inode {ino} caches page {page.index} beyond EOF "
                        f"({inode.size_bytes} bytes)"
                    )
                if page.dirty and cache.dirty.get(page.index) is not page:
                    raise VFSError(f"inode {ino} page {page.index} dirty, unindexed")
            if any(cache.tree.lookup(i) is not p for i, p in cache.dirty.items()):
                raise VFSError(f"inode {ino} dirty index names an uncached page")
        if total_cached != self.cache_mgr.total_pages:
            raise VFSError(
                f"page cache LRU holds {self.cache_mgr.total_pages} pages, "
                f"caches hold {total_cached}"
            )
        for handle in self._handles.values():
            if handle.closed or not handle.inode.is_open:
                raise VFSError(f"stale handle fd={handle.fd}")

    def dirty_page_count(self) -> int:
        return sum(len(cache.dirty_pages()) for cache in self.cache_mgr.caches())

    def file_count(self) -> int:
        return len(self.dcache)

    def __repr__(self) -> str:
        return (
            f"Filesystem(files={self.file_count()}, "
            f"cached_pages={self.cache_mgr.total_pages})"
        )
