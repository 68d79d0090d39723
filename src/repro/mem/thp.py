"""Transparent huge pages — the §5 future-work extension.

"For applications that can use larger page sizes, the KLOC abstraction
relies on existing Linux LRU support ... KLOCs should provide higher
performance gains with THP, although this hypothesis needs to be tested
in future studies."

The simulator models a THP as a *compound group*: 512 consecutive 4KB
frames sharing a ``compound_id``. Groups age and migrate as units —
which buys one remap (page-table update + TLB shootdown) per 2MB instead
of per 4KB, and costs the classic THP downside: one hot member keeps the
whole 2MB hot. ``TestTHPHypothesis`` in tests/mem/test_thp.py tests the
paper's hypothesis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.mem.frame import PageFrame

#: 2MB huge pages of 4KB base pages.
THP_PAGES = 512


class CompoundRegistry:
    """Tracks THP membership: compound id → member frames."""

    def __init__(self, pages_per_compound: int = THP_PAGES) -> None:
        if pages_per_compound <= 1:
            raise ValueError(
                f"compounds need multiple base pages: {pages_per_compound}"
            )
        self.pages_per_compound = pages_per_compound
        self._members: Dict[int, List[PageFrame]] = {}
        self._next_id = 1

    def make_compounds(self, frames: List[PageFrame]) -> int:
        """Group ``frames`` into compounds of the configured size; returns
        the number of compounds formed. A trailing remainder smaller than
        a compound stays as ordinary base pages (as the kernel would)."""
        formed = 0
        for start in range(0, len(frames) - self.pages_per_compound + 1,
                           self.pages_per_compound):
            cid = self._next_id
            self._next_id += 1
            group = frames[start : start + self.pages_per_compound]
            for frame in group:
                frame.compound_id = cid
            self._members[cid] = list(group)
            formed += 1
        return formed

    def members(self, compound_id: int) -> List[PageFrame]:
        return [f for f in self._members.get(compound_id, ()) if f.live]

    def expand(self, frames: Iterable[PageFrame]) -> List[PageFrame]:
        """Expand a frame set to whole compounds (deduplicated): THPs move
        together or not at all."""
        out: List[PageFrame] = []
        seen_compounds: Set[int] = set()
        seen_frames: Set[int] = set()
        for frame in frames:
            cid = frame.compound_id
            if cid is None:
                if frame.fid not in seen_frames:
                    seen_frames.add(frame.fid)
                    out.append(frame)
            elif cid not in seen_compounds:
                seen_compounds.add(cid)
                for member in self.members(cid):
                    if member.fid not in seen_frames:
                        seen_frames.add(member.fid)
                        out.append(member)
        return out

    def group_recently_referenced(self, compound_id: int, since_ns: int) -> bool:
        """THP hotness: the group is hot if *any* member was referenced —
        the pollution downside of huge-page granularity."""
        return any(f.last_access >= since_ns for f in self.members(compound_id))

    def drop(self, frames: Iterable[PageFrame]) -> None:
        """Forget compound membership for freed frames."""
        for frame in frames:
            cid = frame.compound_id
            if cid is None:
                continue
            frame.compound_id = None
            members = self._members.get(cid)
            if members is not None:
                members[:] = [f for f in members if f.fid != frame.fid]
                if not members:
                    del self._members[cid]

    def compound_count(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return (
            f"CompoundRegistry(compounds={self.compound_count()}, "
            f"pages_per={self.pages_per_compound})"
        )
