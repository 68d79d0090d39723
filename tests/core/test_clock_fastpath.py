"""Regression tests for the cached-next-deadline clock fast path.

``Clock.advance`` must behave exactly as the original scan-every-daemon
dispatch did: same firing order, same coalescing of missed ticks, same
re-entrancy semantics — the cached minimum deadline is purely an
optimization that skips the daemon scan while nothing is due.
"""

import pytest

from repro.core.clock import Clock
from repro.core.units import MS, US


class TestFastPathInvariant:
    def test_cache_starts_unset(self):
        clock = Clock()
        assert clock._next_deadline == Clock._NEVER

    def test_cache_tracks_min_deadline(self):
        clock = Clock()
        clock.schedule_periodic(100, lambda t: None)
        clock.schedule_periodic(40, lambda t: None)
        assert clock._next_deadline == 40
        clock.advance(40)  # fires the 40ns daemon, next at 80
        assert clock._next_deadline == 80

    def test_cache_never_exceeds_real_min(self):
        """The invariant the fast path relies on: cached deadline is the
        true minimum after every mutation."""
        clock = Clock()
        clock.schedule_periodic(7, lambda t: None)
        clock.schedule_periodic(13, lambda t: None, phase_ns=2)
        for step in (3, 5, 1, 20, 2, 40):
            clock.advance(step)
            real = min(d for d, _p, _cb in clock._periodic)
            assert clock._next_deadline == real

    def test_advance_below_deadline_skips_scan(self):
        clock = Clock()
        fires = []
        clock.schedule_periodic(1000, fires.append)
        for _ in range(999):
            clock.advance(1)
        assert fires == []
        clock.advance(1)
        assert fires == [1000]


class TestFiringOrderUnchanged:
    def test_interleaved_daemons_fire_in_list_order_when_both_due(self):
        """Two daemons due on the same advance fire in registration order,
        exactly as the original linear scan dispatched them."""
        clock = Clock()
        order = []
        clock.schedule_periodic(10, lambda t: order.append(("a", t)))
        clock.schedule_periodic(10, lambda t: order.append(("b", t)))
        clock.advance(10)
        assert order == [("a", 10), ("b", 10)]

    def test_staggered_daemons_fire_at_their_own_deadlines(self):
        clock = Clock()
        order = []
        clock.schedule_periodic(10, lambda t: order.append(("fast", t)))
        clock.schedule_periodic(25, lambda t: order.append(("slow", t)))
        for _ in range(6):
            clock.advance(5)
        assert order == [("fast", 10), ("fast", 20), ("slow", 25), ("fast", 30)]

    def test_callback_scheduling_new_daemon_updates_cache(self):
        clock = Clock()
        fires = []

        def parent(now):
            fires.append(("parent", now))
            clock.schedule_periodic(5, lambda t: fires.append(("child", t)))

        clock.schedule_periodic(10, parent)
        clock.advance(10)  # parent fires, child scheduled for 15
        assert clock._next_deadline == 15
        clock.advance(5)
        assert fires == [("parent", 10), ("child", 15)]


class TestCoalescingUnchanged:
    def test_missed_ticks_coalesce_into_one_firing(self):
        clock = Clock()
        fires = []
        clock.schedule_periodic(10, fires.append)
        clock.advance(1000)
        assert fires == [1000]

    def test_deadline_after_coalesce_is_phase_aligned(self):
        clock = Clock()
        fires = []
        clock.schedule_periodic(10, fires.append)
        clock.advance(25)  # fires once; next deadline snaps to 30
        assert clock._next_deadline == 30
        clock.advance(5)
        assert fires == [25, 30]

    def test_callback_advancing_clock_does_not_recurse(self):
        clock = Clock()
        fires = []

        def daemon(now):
            fires.append(now)
            clock.advance(3 * US)  # its own work; must not re-dispatch

        clock.schedule_periodic(1 * MS, daemon)
        clock.advance(1 * MS)
        assert len(fires) == 1
        assert clock.now() == 1 * MS + 3 * US

    def test_callback_overrunning_own_period_fires_again_from_outer_loop(self):
        """A daemon whose work overruns its own period is re-dispatched by
        the outer while-loop (not recursively) — original semantics."""
        clock = Clock()
        fires = []

        def daemon(now):
            fires.append(now)
            if len(fires) < 3:
                clock.advance(15)  # overruns the 10ns period

        clock.schedule_periodic(10, daemon)
        clock.advance(10)
        # 10 → work to 25 → outer loop sees deadline 20 due → fires at 25
        # → work to 40 → deadline 30 due → fires at 40 → stops.
        assert fires == [10, 25, 40]
        assert clock._next_deadline == 50


class TestFiringHidesDeadline:
    """While a daemon fires, the cached deadline reads ``inf``: nested
    advances take the fast path instead of re-entering ``_fire_due``."""

    @staticmethod
    def count_fire_due(clock):
        calls = []
        fire_due = clock._fire_due

        def counting():
            calls.append(clock.now())
            fire_due()

        clock._fire_due = counting
        return calls

    def test_nested_advances_enter_fire_due_once(self):
        clock = Clock()
        seen = []

        def daemon(now):
            for _ in range(100):
                clock.advance(1)
                seen.append(clock._next_deadline)

        clock.schedule_periodic(1000, daemon)
        calls = self.count_fire_due(clock)
        clock.advance(1000)
        assert calls == [1000]
        assert seen == [Clock._NEVER] * 100
        assert clock.now() == 1100
        assert clock._next_deadline == 2000

    def test_callback_scheduling_daemon_enters_fire_due_once(self):
        clock = Clock()
        fires = []

        def child(now):
            fires.append(("child", now))

        def parent(now):
            fires.append(("parent", now))
            if len(fires) == 1:
                clock.schedule_periodic(5, child)  # first deadline 15
                for _ in range(12):
                    clock.advance(1)  # past the child's and its own deadline

        clock.schedule_periodic(10, parent)
        calls = self.count_fire_due(clock)
        clock.advance(10)
        assert calls == [10]
        # The firing loop picks up both newly due daemons once the callback
        # returns: the child (next 25) and the parent again (next 30).
        assert fires == [("parent", 10), ("child", 22), ("parent", 22)]
        assert clock._next_deadline == 25
        clock.advance(3)
        assert fires[-1] == ("child", 25)
        assert calls == [10, 25]
