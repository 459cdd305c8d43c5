"""Seeded counter-based random streams.

A stream is addressed by the pair ``(seed, stream)``; distinct ids give
statistically independent sequences.  Monte Carlo block *j* draws from
stream *j*, so a histogram depends only on the seed and the trial count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class RandomStream:
    """Uniform [0, 1) draws from a 64-bit seeded counter-based generator."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, n: int) -> np.ndarray:
        """The stream's next n draws; splitting a block into several calls
        does not change the values."""
        return self._gen.random(int(n))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream={self.stream})"
