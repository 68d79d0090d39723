"""Clock edge cases: the deadline boundary, re-advancing callbacks and
phase staggering.

An advance that ends exactly on a deadline fires the daemon at that
instant, a daemon whose own work crosses another daemon's deadline does
not fire it recursively, and ``phase_ns`` offsets keep their stagger.
"""

from repro.core.clock import Clock


class TestDeadlineBoundary:
    def test_advance_ending_exactly_on_deadline_fires(self):
        """`now == deadline` is due."""
        clock = Clock()
        fires = []
        clock.schedule_periodic(100, fires.append)
        clock.advance(99)
        assert fires == []
        clock.advance(1)
        assert fires == [100]


class TestCallbackReAdvance:
    def test_callback_advancing_past_second_daemon_deadline(self):
        """A daemon whose work pushes time past another daemon's deadline
        does not fire it recursively; the outer dispatch loop does, in
        registration order."""
        clock = Clock()
        order = []

        def worker(now):
            order.append(("worker", now))
            clock.advance(7)  # crosses the observer's t=15 deadline

        clock.schedule_periodic(10, worker)
        clock.schedule_periodic(15, lambda t: order.append(("observer", t)))
        clock.advance(10)
        # worker fires at 10, its work moves time to 17; the outer loop
        # then dispatches the observer at now=17 (not recursively at 15).
        assert order == [("worker", 10), ("observer", 17)]
        assert clock.now() == 17


class TestPhaseStagger:
    def test_phase_ns_offsets_first_firing(self):
        clock = Clock()
        fires = []
        clock.schedule_periodic(100, lambda t: fires.append(("a", t)))
        clock.schedule_periodic(100, lambda t: fires.append(("b", t)), phase_ns=30)
        clock.advance(100)
        assert fires == [("a", 100)]
        clock.advance(30)
        assert fires == [("a", 100), ("b", 130)]
        # Subsequent periods keep the stagger.
        clock.advance(70)
        assert fires[-1] == ("a", 200)
        clock.advance(30)
        assert fires[-1] == ("b", 230)

    def test_staggered_deadline_seeds_fast_path_cache(self):
        clock = Clock()
        clock.schedule_periodic(100, lambda t: None, phase_ns=30)
        assert clock._next_deadline == 130
