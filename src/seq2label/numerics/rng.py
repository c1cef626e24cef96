"""Seeded random stream with a recorded draw position.

Every stochastic choice in the library (init, shuffling, dropout, synthetic
data) flows through an RngStream so that a (seed, config, corpus) triple fully
determines a run. ``position`` counts scalar draws, which makes divergence
between two supposedly identical runs easy to localize.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class RngStream:
    ALGORITHM = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        self.position = 0
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, algorithm={self.ALGORITHM}, position={self.position})"

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        out = self._gen.uniform(low, high, shape)
        self.position += int(np.prod(shape, dtype=np.int64)) if shape else 1
        return out

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Draw ints from [low, high)."""
        out = self._gen.integers(low, high, shape)
        self.position += int(np.prod(shape, dtype=np.int64)) if shape else 1
        return out

    def permutation(self, n: int) -> np.ndarray:
        out = self._gen.permutation(n)
        self.position += n
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates on a python list."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self._gen.integers(0, i + 1))
            items[i], items[j] = items[j], items[i]
        self.position += max(len(items) - 1, 0)
