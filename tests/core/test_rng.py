"""Tests for the deterministic RNG."""

import random
import zlib

import pytest

from repro.core.rng import DeterministicRNG


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRNG(seed=7)
        b = DeterministicRNG(seed=7)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_diverge(self):
        a = DeterministicRNG(seed=1)
        b = DeterministicRNG(seed=2)
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_streams_are_reproducible(self):
        a = DeterministicRNG(seed=7).stream("workload")
        b = DeterministicRNG(seed=7).stream("workload")
        assert a.randint(0, 10**9) == b.randint(0, 10**9)

    def test_streams_are_independent(self):
        root = DeterministicRNG(seed=7)
        s1 = root.stream("workload")
        # Drawing from one stream must not perturb a sibling.
        _ = [s1.random() for _ in range(100)]
        s2 = root.stream("interference")
        fresh = DeterministicRNG(seed=7).stream("interference")
        assert s2.randint(0, 10**9) == fresh.randint(0, 10**9)


def _draws(rng, n=10_000):
    """A mixed sequence of ``n`` draws through the three draw methods."""
    seq = ("a", "b", "c", "d", "e")
    out = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            out.append(rng.random())
        elif kind == 1:
            out.append(rng.randint(0, 1 << 20))
        else:
            out.append(rng.choice(seq))
    return out


class TestSameDrawsAsRandom:
    """The draws are ``random.Random``'s, bit for bit: binding them must
    not change a single payload."""

    def test_root_stream(self):
        assert _draws(DeterministicRNG(42)) == _draws(random.Random(42))

    def test_named_stream(self):
        child_seed = zlib.crc32(b"7:workload") & 0x7FFFFFFF
        got = _draws(DeterministicRNG(7).stream("workload"))
        assert got == _draws(random.Random(child_seed))

    def test_zipf_shares_the_generator(self):
        """``zipf`` draws from the same generator as ``random``."""
        rng, bare = DeterministicRNG(3), random.Random(3)
        rng.zipf(1000)
        bare.random()
        assert rng.random() == bare.random()


class TestZipf:
    def test_range(self):
        rng = DeterministicRNG(seed=3)
        draws = [rng.zipf(1000) for _ in range(2000)]
        assert min(draws) >= 0
        assert max(draws) < 1000

    def test_skew(self):
        """The head of the distribution should dominate."""
        rng = DeterministicRNG(seed=3)
        draws = [rng.zipf(10_000, theta=0.99) for _ in range(5000)]
        head = sum(1 for d in draws if d < 100)
        assert head / len(draws) > 0.3  # heavy skew toward hot keys

    def test_single_element_universe(self):
        rng = DeterministicRNG(seed=3)
        assert rng.zipf(1) == 0

    def test_invalid_universe(self):
        with pytest.raises(ValueError):
            DeterministicRNG().zipf(0)


class TestPareto:
    def test_positive(self):
        rng = DeterministicRNG(seed=5)
        assert all(rng.pareto_bytes(4096) >= 1 for _ in range(100))

    def test_mean_roughly_respected(self):
        rng = DeterministicRNG(seed=5)
        draws = [rng.pareto_bytes(4096, shape=2.5) for _ in range(20_000)]
        mean = sum(draws) / len(draws)
        assert 0.5 * 4096 < mean < 2.0 * 4096

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            DeterministicRNG().pareto_bytes(0)
