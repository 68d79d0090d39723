"""Deterministic random number generation.

All stochastic behaviour in the simulator — key distributions, file
selection, request interleaving — flows through :class:`DeterministicRNG`
so that a (seed, stream-name) pair fully determines every experiment.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, Tuple

ZipfConstants = Tuple[float, float, float, float]

#: Exact ``zeta(n, theta)`` for the key universes the workloads draw
#: from, so no process pays the n-term sum on its first zipf draw. Each
#: literal is the ``repr`` of the left-to-right float sum
#: ``acc += 1.0 / (i ** theta)`` for i in 1..n, bit for bit (what
#: ``sum`` computes on Python 3.11); any other (n, theta) falls back to
#: :meth:`DeterministicRNG._zeta`'s sum. Compute a new entry with that
#: plain loop, never with a compensated sum (``math.fsum``, or ``sum``
#: on Python >= 3.12), which rounds differently.
ZETA_TABLE: Dict[Tuple[int, float], float] = {
    (4_000_000, 0.99): 16.994612044998036,  # Redis key space
    (200_000, 0.99): 13.558760829368774,  # Cassandra YCSB key space
}


class DeterministicRNG:
    """A seeded RNG with named sub-streams.

    Sub-streams (:meth:`stream`) let independent components draw random
    numbers without perturbing each other: adding a draw to the workload
    generator must not change what the interference generator sees.
    """

    def __init__(self, seed: int = 42) -> None:
        self._seed = seed
        self._random = rand = random.Random(seed)
        # The draws are the seeded generator's own bound methods, so a
        # draw costs no wrapper frame.
        #: Uniform float in [0, 1).
        self.random = rand.random
        #: ``randint(lo, hi)``: uniform integer in [lo, hi] inclusive.
        self.randint = rand.randint
        #: ``choice(seq)``: one element of a non-empty sequence.
        self.choice = rand.choice

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> "DeterministicRNG":
        """Derive an independent, reproducible sub-stream.

        Uses CRC32 rather than ``hash()``: Python randomizes string
        hashing per process, which would silently break cross-process
        reproducibility of every experiment.
        """
        child_seed = zlib.crc32(f"{self._seed}:{name}".encode()) & 0x7FFFFFFF
        return DeterministicRNG(child_seed)

    def zipf(self, n: int, theta: float = 0.99) -> int:
        """Zipfian draw in [0, n), YCSB-style skew parameter ``theta``.

        Uses the rejection-free inverse-CDF approximation from Gray et al.
        ("Quickly generating billion-record synthetic databases"), the same
        construction YCSB uses, so Cassandra/RocksDB key streams match the
        paper's workload generators in shape.
        """
        if n <= 0:
            raise ValueError(f"zipf needs a positive universe, got {n}")
        if n == 1:
            return 0
        consts = self._zipf_cache.get((n, theta))
        if consts is None:
            consts = self._zipf_constants(n, theta)
        zetan, alpha, eta, one_cut = consts
        u = self._random.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < one_cut:
            return 1
        return int(n * ((eta * u) - eta + 1) ** alpha)

    #: (n, theta) -> (zetan, alpha, eta, 1 + 0.5**theta), built on first use.
    _zipf_cache: Dict[Tuple[int, float], ZipfConstants] = {}

    @classmethod
    def _zipf_constants(cls, n: int, theta: float) -> ZipfConstants:
        zetan = cls._zeta(n, theta)
        alpha = 1.0 / (1.0 - theta)
        eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - cls._zeta(2, theta) / zetan)
        consts = (zetan, alpha, eta, 1.0 + 0.5 ** theta)
        cls._zipf_cache[(n, theta)] = consts
        return consts

    _zeta_cache: Dict[Tuple[int, float], float] = dict(ZETA_TABLE)

    @classmethod
    def _zeta(cls, n: int, theta: float) -> float:
        key = (n, theta)
        if key not in cls._zeta_cache:
            cls._zeta_cache[key] = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        return cls._zeta_cache[key]

    def pareto_bytes(self, mean_bytes: float, shape: float = 1.5) -> int:
        """Heavy-tailed size draw with the given mean (request/file sizes)."""
        if mean_bytes <= 0:
            raise ValueError(f"mean must be positive: {mean_bytes}")
        scale = mean_bytes * (shape - 1) / shape
        u = self._random.random()
        return max(1, int(scale / math.pow(1 - u, 1 / shape)))

    def __repr__(self) -> str:
        return f"DeterministicRNG(seed={self._seed})"
