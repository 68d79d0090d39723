"""Runtime state of one memory tier (device)."""

from __future__ import annotations

from repro.core.config import TierSpec
from repro.core.errors import SimulationError
from repro.core.units import PAGE_SIZE


class CostTable(dict):
    """``{nbytes: ns}`` for one direction of one tier, valid at the tier's
    current ``slowdown``. A miss prices ``nbytes`` through the tier's one
    cost formula, ``latency + int(nbytes * slowdown / bw)``, and keeps the
    result; references come in a handful of sizes, so nearly every
    lookup is a hit."""

    __slots__ = ("tier", "latency_ns", "bw")

    def __init__(self, tier: "MemoryTier", latency_ns: int, bw: float) -> None:
        super().__init__()
        self.tier = tier
        self.latency_ns = latency_ns
        self.bw = bw

    def __missing__(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError(f"negative access size: {nbytes}")
        cost = self.latency_ns + int(nbytes * self.tier.slowdown / self.bw)
        self[nbytes] = cost
        return cost


class MemoryTier:
    """A memory device with capacity, latency, bandwidth, and usage counters.

    The access-cost model is ``latency + bytes / effective_bandwidth``;
    *effective* bandwidth shrinks when interfering streams share the device
    (used by the Optane experiments, where a streaming co-runner contends
    for a socket's memory bandwidth — §6.2).
    """

    def __init__(self, spec: TierSpec) -> None:
        self.spec = spec
        # Identity fields as plain attributes: ``name`` alone is read
        # hundreds of thousands of times per run by the frame-accounting
        # paths, so a property forwarding to the spec is measurable.
        self.name = spec.name
        self.capacity_pages = spec.capacity_pages
        self.used_pages = 0
        self.peak_pages = 0
        self.total_allocs = 0
        self.total_frees = 0
        self._contention_streams = 0
        #: ``1 + contention_streams``, refreshed whenever the stream count
        #: changes (interference experiments mutate it between phases,
        #: never inside an access).
        self.slowdown = 1
        #: Per-direction cost tables, indexed by ``write`` (read, then
        #: write): ``{nbytes: ns}`` at the current ``slowdown``. The
        #: ``contention_streams`` setter empties both.
        self.costs = (
            CostTable(self, spec.read_latency_ns, spec.read_bw_bytes_per_ns),
            CostTable(self, spec.write_latency_ns, spec.write_bw_bytes_per_ns),
        )

    @property
    def contention_streams(self) -> int:
        """Number of interfering bandwidth streams (0 = uncontended)."""
        return self._contention_streams

    @contention_streams.setter
    def contention_streams(self, value: int) -> None:
        self._contention_streams = value
        self.slowdown = 1 + value
        for table in self.costs:
            table.clear()

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.used_pages

    def has_room(self, npages: int = 1) -> bool:
        return self.free_pages >= npages

    def reserve(self, npages: int) -> None:
        """Account ``npages`` as allocated; callers must check capacity."""
        if npages < 0:
            raise ValueError(f"negative reservation: {npages}")
        if self.used_pages + npages > self.capacity_pages:
            raise SimulationError(
                f"tier {self.name} over-committed: "
                f"{self.used_pages} + {npages} > {self.capacity_pages}"
            )
        used = self.used_pages + npages
        self.used_pages = used
        self.total_allocs += npages
        if used > self.peak_pages:
            self.peak_pages = used

    def release(self, npages: int) -> None:
        if npages < 0:
            raise ValueError(f"negative release: {npages}")
        if npages > self.used_pages:
            raise SimulationError(
                f"tier {self.name} released more pages than in use: "
                f"{npages} > {self.used_pages}"
            )
        self.used_pages -= npages
        self.total_frees += npages

    def access_cost_ns(self, nbytes: int, *, write: bool = False) -> int:
        """Cost of moving ``nbytes`` to/from this device, with contention."""
        return self.costs[write][nbytes]

    def bulk_access_cost_ns(
        self, nbytes: int, count: int, *, write: bool = False
    ) -> int:
        """Cost of ``count`` independent ``nbytes`` accesses: ``count``
        times the unit cost (contention cannot change mid-batch in the
        single-threaded simulator)."""
        if count <= 0:
            return 0
        return self.costs[write][nbytes] * count

    def utilization(self) -> float:
        return self.used_pages / self.capacity_pages

    def __repr__(self) -> str:
        return (
            f"MemoryTier({self.name}, {self.used_pages}/{self.capacity_pages} pages, "
            f"{PAGE_SIZE}B each)"
        )
