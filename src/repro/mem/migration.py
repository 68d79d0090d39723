"""Page migration engine with Nimble-style parallel page copy.

§4.4: once cold KLOCs are identified, all kernel objects under the knode
subtree are migrated together. The cost of moving one page is one source
read + one destination write + a fixed remap overhead (page-table/radix
updates and TLB shootdown). Nimble parallelizes the copy across kernel
threads; the remap portion stays serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.config import MigrationSpec
from repro.core.units import PAGE_SIZE
from repro.mem.frame import PageFrame
from repro.mem.topology import MemoryTopology


@dataclass
class MigrationResult:
    """Outcome of one migration batch."""

    moved: int = 0
    skipped_nonrelocatable: int = 0
    skipped_pinned: int = 0
    cost_ns: int = 0
    frames: List[PageFrame] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.moved > 0


class MigrationEngine:
    """Moves batches of page frames between tiers and prices each batch.

    Migration is asynchronous work done by dedicated kernel threads (§5):
    the engine never advances the clock. Each caller decides what the
    returned ``cost_ns`` is charged to — the daemons charge it as
    background CPU work.
    """

    def __init__(
        self,
        topology: MemoryTopology,
        spec: Optional[MigrationSpec] = None,
    ) -> None:
        self.topology = topology
        self.spec = spec or MigrationSpec()
        self.total_moved = 0
        self.total_cost_ns = 0

    def migrate(
        self, frames: Iterable[PageFrame], dst_tier_name: str
    ) -> MigrationResult:
        """Migrate a batch of frames to ``dst_tier_name``.

        Non-relocatable (slab physical-address) frames are skipped. Frames
        pinned to fast memory by the ping-pong guard (§4.5 8-bit counters)
        are skipped when moving *away* from fast memory. The batch's cost
        is returned and recorded in the engine's counters, not charged.
        """
        dst = self.topology.tier(dst_tier_name)
        result = MigrationResult()
        movable: List[PageFrame] = []
        for frame in frames:
            if not frame.live or frame.tier_name == dst_tier_name:
                continue
            if not frame.relocatable:
                result.skipped_nonrelocatable += 1
                continue
            if frame.pinned_fast and dst_tier_name != "fast":
                result.skipped_pinned += 1
                continue
            movable.append(frame)

        if not movable:
            return result

        # The destination only fills up (nothing frees mid-batch), so the
        # per-frame has_room check collapses to a headroom prefix.
        headroom = dst.free_pages
        if headroom < len(movable):
            movable = movable[:headroom]

        # Batch-group the copies by source tier: the per-page cost is
        # state-independent within a batch, so one read-cost and one
        # write-cost computation per (src, dst) pair prices the whole
        # group — identical totals, O(tiers) instead of O(pages) calls.
        per_src: Dict[str, int] = {}
        for frame in movable:
            per_src[frame.tier_name] = per_src.get(frame.tier_name, 0) + 1
            self.topology.move_frame(frame, dst_tier_name)
            result.frames.append(frame)
        moved = len(movable)
        copy_ns = 0
        for src_name, count in per_src.items():
            src = self.topology.tier(src_name)
            copy_ns += src.bulk_access_cost_ns(PAGE_SIZE, count, write=False)
            copy_ns += dst.bulk_access_cost_ns(PAGE_SIZE, count, write=True)

        # Nimble-style parallel migration: both the page copies and the
        # per-page remap work (page tables, batched TLB shootdowns) are
        # spread across the migration threads. Huge pages (compound
        # groups) need only ONE remap per 2MB — the mechanism behind §5's
        # THP hypothesis.
        remap_units = len(
            {f.compound_id for f in result.frames if f.compound_id is not None}
        ) + sum(1 for f in result.frames if f.compound_id is None)
        parallel_copy_ns = copy_ns // self.spec.copy_threads
        remap_ns = remap_units * self.spec.remap_overhead_ns // self.spec.copy_threads
        result.cost_ns = parallel_copy_ns + remap_ns
        result.moved = moved

        self.total_moved += moved
        self.total_cost_ns += result.cost_ns
        return result

    def __repr__(self) -> str:
        return (
            f"MigrationEngine(moved={self.total_moved}, "
            f"cost={self.total_cost_ns}ns, threads={self.spec.copy_threads})"
        )
