"""Deterministic random number generation.

All stochastic choices in the reproduction (workload address streams,
generated litmus programs, jittered compute times, fault draws) draw from a
:class:`DeterministicRng` so runs are exactly reproducible from a seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

__all__ = ["DeterministicRng"]

T = TypeVar("T")


class DeterministicRng:
    """A seeded RNG with convenience helpers and child-stream derivation."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        #: Uniform float in [0, 1), bound here so that a draw (one per
        #: faulted message) is one C call.
        self.random = self._random.random

    def child(self, label: str) -> "DeterministicRng":
        """Derive an independent stream keyed by ``label``.

        Child streams decouple e.g. per-core address generation from
        network-level perturbation so adding randomness in one place does not
        shift the other.  Derivation uses a stable hash so child seeds are
        identical across processes (Python's built-in string hash is
        salted per process).
        """
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        derived = int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
        return DeterministicRng(derived)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        return self._random.choice(options)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return self._random.sample(population, k)

    def geometric_jitter(self, mean: float, spread: float = 0.1) -> float:
        """A mean-centred multiplicative jitter in [mean*(1-spread), mean*(1+spread)]."""
        if mean <= 0:
            return 0.0
        return mean * (1.0 + spread * (2.0 * self._random.random() - 1.0))
