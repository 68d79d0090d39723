"""jbd2-style filesystem journal.

Metadata updates (inode changes, extent allocations, directory edits)
append records into the running transaction's journal buffer pages —
Table 1's JOURNAL objects. Transactions commit when full, on fsync, or
when the periodic commit timer fires; committed buffers are written to
the log sequentially and then released, which is why journal pages are
short-lived kernel objects (§3.3's "in-memory journals").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.objtypes import KernelObjectType
from repro.core.units import PAGE_SIZE

if TYPE_CHECKING:
    from repro.core.context import KernelContext
    from repro.vfs.inode import Inode

#: One metadata record (journal descriptor entry) is 64 bytes.
RECORD_BYTES = 64
RECORDS_PER_PAGE = PAGE_SIZE // RECORD_BYTES


class Journal:
    """One running transaction at a time, jbd2-fashion."""

    def __init__(self, ctx: "KernelContext", *, max_txn_pages: int = 64) -> None:
        if max_txn_pages <= 0:
            raise ValueError(f"transaction must hold pages: {max_txn_pages}")
        self.ctx = ctx
        self.max_txn_pages = max_txn_pages
        self._txn_pages: List = []  # KernelObject (JOURNAL)
        self._records_in_last = RECORDS_PER_PAGE  # force a page on first record
        self.commits = 0
        self.records = 0

    @property
    def txn_pages(self) -> int:
        return len(self._txn_pages)

    def log_metadata(
        self, inode: Optional["Inode"], nrecords: int = 1, *, cpu: int = 0
    ) -> None:
        """Append metadata records for ``inode`` to the running txn."""
        if nrecords <= 0:
            raise ValueError(f"need at least one record: {nrecords}")
        self.records += nrecords
        for _ in range(nrecords):
            if self._records_in_last >= RECORDS_PER_PAGE:
                page = self.ctx.alloc_object(
                    KernelObjectType.JOURNAL, inode, cpu=cpu
                )
                self._txn_pages.append(page)
                self._records_in_last = 0
            self._records_in_last += 1
            # Writing the record touches the journal buffer page.
            self.ctx.access_object(
                self._txn_pages[-1], RECORD_BYTES, write=True, cpu=cpu
            )
        if len(self._txn_pages) >= self.max_txn_pages:
            self.commit(cpu=cpu, background=True)

    def commit(self, *, cpu: int = 0, background: bool = False) -> int:
        """Write the running transaction to the log and release buffers.

        Returns the number of pages committed. ``background=True`` models
        the periodic jbd2 commit thread; fsync passes False and stalls the
        caller.
        """
        if not self._txn_pages:
            return 0
        # Detach the transaction first: freeing buffers advances the clock,
        # which may fire the periodic commit daemon re-entrantly.
        pages = self._txn_pages
        self._txn_pages = []
        self._records_in_last = RECORDS_PER_PAGE
        npages = len(pages)
        self.ctx.storage_io(
            npages * PAGE_SIZE, write=True, sequential=True, background=background
        )
        for page in pages:
            self.ctx.free_object(page, cpu=cpu)
        self.commits += 1
        return npages

    def __repr__(self) -> str:
        return (
            f"Journal(txn_pages={self.txn_pages}, commits={self.commits}, "
            f"records={self.records})"
        )
