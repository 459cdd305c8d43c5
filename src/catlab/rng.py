"""Seeded counter-based random streams.

A stream is addressed by the pair ``(seed, stream)``; distinct ids give
statistically independent sequences.  The package draws only counts split
over rows, through ``RandomStream.draw``: one binomial draw for two rows
and one multinomial draw for more, which for two rows are the same draw.
Monte Carlo splits its trial counts on stream 0, over the weights that
``Laboratory.step`` keeps per (operation, state) pair, and
``discriminate`` samples its two sources on streams 0 and 1, so a
histogram depends only on the seed and the trial count.

A run takes its stream with ``take_stream``, which re-keys an idle stream
from the process's pool and builds one only when none is idle, and hands
it to ``give_back`` when it ends: a stream is held by one run at a time.
Philox is counter-based, so its whole state is a key and a counter, and
a stream re-keyed at counter 0 draws bit for bit what a new one would.
The pool grows only to the peak number of concurrent runs; ``list.pop``
and ``list.append`` are atomic, so it needs no lock.  A stream that a
caller builds itself never enters the pool.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MAX_SEED = (1 << 64) - 1  # the generator is keyed with 64 bits


@cache
def _key_type() -> type:
    """The seed sequence that hands ``Philox`` the key ``[seed, stream]``
    itself when it asks for its two 64-bit key words.  ``Philox(key=...)``
    would first build a ``SeedSequence`` from OS entropy and discard it;
    this one holds no entropy, so keying a stream reads nothing from the
    OS.  Made on the first stream, since importing ``numpy.random`` would
    cost every command that draws nothing."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key

    return Key


def draw_weights(weights: np.ndarray) -> float | np.ndarray:
    """The form in which ``RandomStream.draw`` draws over ``weights``, the
    probabilities of two or more rows: for two, the first weight as a
    Python float; for more, the array itself, made read-only.  The one
    place that tells a two-row split from a wider one."""
    if len(weights) == 2:
        return float(weights[0])
    weights.setflags(write=False)
    return weights


class RandomStream:
    """Binomial and multinomial draws from a 64-bit seeded counter-based
    generator: a ``Philox`` keyed with ``[seed, stream]`` at counter 0, bit
    for bit ``np.random.Philox(key=k)`` for the uint64 array ``k`` of the
    two.  Each stream owns its generator and is held by one run at a
    time."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & MAX_SEED
        self.stream = int(stream) & MAX_SEED
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(_key_type()(key)))

    def rekey(self, seed: int, stream: int = 0) -> None:
        """Make this the stream ``(seed, stream)`` at counter 0, as if it
        were built anew: the key and counter, the output buffer and the
        spare 32-bit draw are all written through the bit generator's
        public ``state``.  The generator's binomial set-up is a cache of
        its last ``(n, p)`` alone, so it carries nothing over."""
        self.seed = int(seed) & MAX_SEED
        self.stream = int(stream) & MAX_SEED
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [self.seed, self.stream]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def multinomial(self, n: int, pvals) -> np.ndarray:
        """Counts of ``n`` draws over outcomes of probabilities ``pvals``,
        by numpy's conditional-binomial generator: one binomial draw per
        outcome but the last, which takes the remainder."""
        return self._gen.multinomial(n, pvals)

    def draw(self, n: int, weights: float | np.ndarray) -> tuple[int, int] | list[int]:
        """Counts of ``n`` draws over rows whose weights are in
        ``draw_weights``' form: one binomial draw on a float, the first of
        two rows' weights, and one multinomial draw on an array.
        ``multinomial(n, [p, q])`` makes that one binomial draw, on the same
        generator state, and gives the rest to the second row, so
        ``(k, n - k)`` are its counts bit for bit."""
        if weights.__class__ is float:
            k = self._gen.binomial(n, weights)
            return k, n - k
        return self.multinomial(n, weights).tolist()

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream={self.stream})"


_IDLE: list[RandomStream] = []  # streams that no run holds


def take_stream(seed: int, stream: int = 0) -> RandomStream:
    """The stream ``(seed, stream)`` for one run: an idle one re-keyed, or
    a new one when none is idle.  The run hands it to ``give_back`` when
    it ends, and draws from it no more."""
    try:
        rs = _IDLE.pop()
    except IndexError:
        return RandomStream(seed, stream)
    rs.rekey(seed, stream)
    return rs


def give_back(rs: RandomStream) -> None:
    """Return a stream from ``take_stream`` to the idle pool."""
    _IDLE.append(rs)
