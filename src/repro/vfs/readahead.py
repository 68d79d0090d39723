"""Adaptive readahead, after Linux's on-demand readahead (§4.4).

Sequential streams grow a prefetch window (doubling up to a cap); random
access collapses it. §4.4/§7.3: KLOCs plug into this mechanism — the
prefetcher is given the inode's kernel objects so useful ones are pulled
up quickly and useless ones identified as cold sooner. The KLOC hook here
is a flag the filesystem consults to promote the knode alongside data
prefetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Initial and maximum readahead windows, in pages (Linux: 128KB max by
#: default = 32 pages).
INITIAL_WINDOW = 4
MAX_WINDOW = 32


@dataclass
class ReadaheadState:
    """Per-open-file readahead tracking."""

    last_index: int = -2  # "nothing read yet"
    window: int = INITIAL_WINDOW
    streak: int = 0
    prefetched: int = 0
    hits_on_prefetched: int = 0
    _outstanding: set = field(default_factory=set)
    #: End (exclusive) of the page range the last prefetch queued.
    _queued_end: int = 0

    def update(self, index: int) -> List[int]:
        """Record a read at ``index``; return page indexes to prefetch."""
        outstanding = self._outstanding
        if index in outstanding:
            outstanding.discard(index)
            self.hits_on_prefetched += 1

        if index == self.last_index + 1:
            self.streak += 1
        else:
            self.streak = 0
            self.window = INITIAL_WINDOW
        self.last_index = index

        if self.streak < 2:
            return []
        # Established sequential stream: prefetch ahead and grow. Past the
        # stream's first prefetch, the previous update queued ``index`` up
        # to ``_queued_end`` and only ``index`` has been read since, so
        # only the pages from ``_queued_end`` on can be missing.
        end = index + 1 + self.window
        start = self._queued_end if self.streak > 2 else index + 1
        pages = []
        for i in range(start, end):
            if i not in outstanding:
                pages.append(i)
        self._queued_end = end
        outstanding.update(pages)
        self.prefetched += len(pages)
        self.window = min(self.window * 2, MAX_WINDOW)
        return pages

    def useful_fraction(self) -> float:
        """How much of the prefetched data was actually consumed."""
        return self.hits_on_prefetched / self.prefetched if self.prefetched else 0.0
