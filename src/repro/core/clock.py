"""Virtual nanosecond clock shared by every simulated component.

The simulator is discrete-time: kernel actions (page accesses, tree
operations, migrations, device I/O) advance a single global clock by their
modeled cost. Wall-clock never enters the picture, so runs are exactly
reproducible.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.hotpath import hot
from repro.core.units import SEC


class Clock:
    """Monotonic virtual clock in nanoseconds.

    Components call :meth:`advance` to account for work they perform and
    :meth:`now` to read the current virtual time. Periodic daemons (LRU
    scanner, writeback, KLOC migration threads) register callbacks via
    :meth:`schedule_periodic`; the clock fires every callback whose period
    elapsed whenever time advances past its next deadline.
    """

    #: Sentinel deadline: no periodic work registered, or a daemon is
    #: firing right now.
    _NEVER = float("inf")

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError(f"clock cannot start in the past: {start_ns}")
        self._now = start_ns
        # (next_deadline, period, callback) — small list, scanned linearly,
        # but only when the cached minimum deadline is actually due.
        self._periodic: List[Tuple[int, int, Callable[[int], None]]] = []
        #: True while _fire_due runs the callbacks.
        self._firing = False
        # Cached min deadline across _periodic; advance() compares against
        # this instead of scanning the daemon list on every call.
        self._next_deadline = Clock._NEVER

    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def now_seconds(self) -> float:
        """Current virtual time in seconds (for reporting only)."""
        return self._now / SEC

    @hot
    def advance(self, delta_ns: int) -> int:
        """Advance the clock by ``delta_ns`` and fire any due periodic work.

        Returns the new virtual time. Negative deltas are rejected —
        simulated time never flows backwards.
        """
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative delta: {delta_ns}")
        now = self._now + delta_ns
        self._now = now
        # Fast path: nothing due. Two comparisons, no daemon scan.
        if now >= self._next_deadline:
            self._fire_due()
        return now

    def schedule_periodic(
        self, period_ns: int, callback: Callable[[int], None], *, phase_ns: int = 0
    ) -> None:
        """Register ``callback(now_ns)`` to fire every ``period_ns``.

        ``phase_ns`` offsets the first firing; daemons with the same period
        can be staggered this way. Callbacks run synchronously during
        :meth:`advance` (after the time update), mirroring kernel daemons
        that wake on timer ticks.
        """
        if period_ns <= 0:
            raise ValueError(f"period must be positive: {period_ns}")
        first = self._now + period_ns + phase_ns
        self._periodic.append((first, period_ns, callback))
        # While firing, the loop in _fire_due sees the new daemon and the
        # deadline is recomputed when it ends.
        if first < self._next_deadline and not self._firing:
            self._next_deadline = first

    def _fire_due(self) -> None:
        # A callback may advance the clock (its own work costs time); we
        # do not re-dispatch from inside a callback. The deadline reads
        # _NEVER meanwhile, so those nested advances take the fast path,
        # and the loop below picks up anything newly due.
        self._firing = True
        self._next_deadline = Clock._NEVER
        try:
            fired = True
            while fired:
                fired = False
                for i, (deadline, period, cb) in enumerate(self._periodic):
                    if self._now >= deadline:
                        # Skip ahead if we overshot several periods: daemons
                        # coalesce missed ticks into one run, like real
                        # kernel deferred work.
                        missed = (self._now - deadline) // period
                        self._periodic[i] = (
                            deadline + (missed + 1) * period,
                            period,
                            cb,
                        )
                        cb(self._now)
                        fired = True
        finally:
            self._firing = False
            self._next_deadline = min(
                (deadline for deadline, _period, _cb in self._periodic),
                default=Clock._NEVER,
            )

    def __repr__(self) -> str:
        return f"Clock(now={self._now}ns, daemons={len(self._periodic)})"
