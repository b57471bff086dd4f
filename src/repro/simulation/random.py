"""Seeded randomness for simulations and workload generators.

All stochastic behaviour in the simulator flows through one of these streams
so that every experiment is reproducible from its seed.  Independent
subsystems derive independent child streams (``fork``) to keep their draws
decoupled: adding a draw in the network model must not change the durations a
workload generator produces.
"""

from __future__ import annotations

import math
import random
import zlib
from itertools import repeat, starmap
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRandom:
    """A named, seeded random stream with distribution helpers."""

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._rng = random.Random(seed)

    def fork(self, name: str) -> "DeterministicRandom":
        """Derive an independent child stream keyed by ``name``.

        The child's seed depends only on the parent seed and the name, never
        on how many draws the parent has made.  The derivation must be
        stable across interpreter processes — the built-in ``hash`` is
        salted per process for strings, which would make "the same seed"
        produce different workloads run to run — so it uses CRC32 over a
        canonical key instead.
        """
        child_seed = zlib.crc32(f"{self.seed}:{name}".encode("utf-8")) & 0x7FFFFFFF
        return DeterministicRandom(seed=child_seed, name=f"{self.name}/{name}")

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def randoms(self, n: int) -> List[float]:
        """The next ``n`` draws, equal to ``n`` calls of :meth:`random`."""
        return list(starmap(self._rng.random, repeat((), n)))

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """``k`` distinct picks of ``items`` in draw order, in O(k) draws."""
        return self._rng.sample(items, k)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed sample with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return self._rng.expovariate(1.0 / mean)

    def lognormal(self, median: float, sigma: float) -> float:
        """Log-normal sample, parameterized by its median (heavy-tailed durations)."""
        if median <= 0:
            raise ValueError(f"median must be positive, got {median!r}")
        return self._rng.lognormvariate(math.log(median), sigma)

    def __repr__(self) -> str:
        return f"DeterministicRandom(seed={self.seed}, name={self.name!r})"
