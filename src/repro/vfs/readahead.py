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
        # Established sequential stream: prefetch ahead and grow.
        pages = []
        for i in range(index + 1, index + 1 + self.window):
            if i not in outstanding:
                pages.append(i)
        outstanding.update(pages)
        self.prefetched += len(pages)
        self.window = min(self.window * 2, MAX_WINDOW)
        return pages

    def useful_fraction(self) -> float:
        """How much of the prefetched data was actually consumed."""
        return self.hits_on_prefetched / self.prefetched if self.prefetched else 0.0
