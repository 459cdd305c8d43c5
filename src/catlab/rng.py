"""Seeded counter-based random streams.

A stream is addressed by the pair ``(seed, stream)``; distinct ids give
statistically independent sequences.  The package draws only multinomial
counts: Monte Carlo splits its trial counts on stream 0, and
``discriminate`` samples its two sources on streams 0 and 1, so a
histogram depends only on the seed and the trial count.
"""

from __future__ import annotations

import numpy as np

MAX_SEED = (1 << 64) - 1  # the generator is keyed with 64 bits


class RandomStream:
    """Multinomial draws from a 64-bit seeded counter-based generator."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & MAX_SEED
        self.stream = int(stream) & MAX_SEED
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def multinomial(self, n: int, pvals) -> np.ndarray:
        """Counts of ``n`` draws over outcomes of probabilities ``pvals``,
        by numpy's conditional-binomial generator: one binomial draw per
        outcome but the last, which takes the remainder."""
        return self._gen.multinomial(n, pvals)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream={self.stream})"
