"""Tests for the adaptive readahead window."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vfs.readahead import INITIAL_WINDOW, MAX_WINDOW, ReadaheadState


class TestSequentialDetection:
    def test_no_prefetch_on_first_reads(self):
        ra = ReadaheadState()
        assert ra.update(0) == []
        assert ra.update(1) == []

    def test_prefetch_after_streak(self):
        ra = ReadaheadState()
        ra.update(0)
        ra.update(1)
        pages = ra.update(2)
        assert pages == list(range(3, 3 + INITIAL_WINDOW))

    def test_window_doubles(self):
        ra = ReadaheadState()
        for i in range(3):
            ra.update(i)
        first = len(ra.update(3))
        assert first <= 2 * INITIAL_WINDOW
        assert ra.window <= MAX_WINDOW

    def test_window_capped(self):
        ra = ReadaheadState()
        for i in range(64):
            ra.update(i)
        assert ra.window <= MAX_WINDOW

    def test_random_access_resets(self):
        ra = ReadaheadState()
        ra.update(0)
        ra.update(1)
        ra.update(2)
        assert ra.window > INITIAL_WINDOW
        assert ra.update(100) == []  # jump resets
        assert ra.window == INITIAL_WINDOW
        assert ra.streak == 0

    def test_no_duplicate_prefetch(self):
        ra = ReadaheadState()
        ra.update(0)
        ra.update(1)
        first = set(ra.update(2))
        second = set(ra.update(3))
        assert not (first & second)

    def test_useful_fraction(self):
        ra = ReadaheadState()
        ra.update(0)
        ra.update(1)
        prefetched = ra.update(2)
        assert prefetched
        for idx in prefetched:
            ra.update(idx)
        assert ra.useful_fraction() > 0

    def test_useful_fraction_empty(self):
        assert ReadaheadState().useful_fraction() == 0.0


class _ReferenceReadahead:
    """The window loop as first written: every page of the window is
    checked against the outstanding set on every update."""

    def __init__(self):
        self.last_index = -2
        self.window = INITIAL_WINDOW
        self.streak = 0
        self.prefetched = 0
        self.hits_on_prefetched = 0
        self.outstanding = set()

    def update(self, index):
        if index in self.outstanding:
            self.outstanding.discard(index)
            self.hits_on_prefetched += 1
        if index == self.last_index + 1:
            self.streak += 1
        else:
            self.streak = 0
            self.window = INITIAL_WINDOW
        self.last_index = index
        if self.streak < 2:
            return []
        pages = []
        for i in range(index + 1, index + 1 + self.window):
            if i not in self.outstanding:
                pages.append(i)
        self.outstanding.update(pages)
        self.prefetched += len(pages)
        self.window = min(self.window * 2, MAX_WINDOW)
        return pages


#: Index streams: runs of sequential reads from random starts, so
#: streams break, restart inside queued ranges, and re-read pages.
_runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=300), st.integers(1, 80)),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(_runs)
def test_update_matches_the_full_window_loop(runs):
    ra, ref = ReadaheadState(), _ReferenceReadahead()
    for start, length in runs:
        for index in range(start, start + length):
            assert ra.update(index) == ref.update(index)
            assert ra.prefetched == ref.prefetched
            assert ra.hits_on_prefetched == ref.hits_on_prefetched
            assert ra.window == ref.window
