import numpy as np

from catlab.rng import RandomStream

P = [0.1, 0.2, 0.3, 0.4]


def splits(stream, k=32, n=1000):
    """The stream's next k splits of n draws over P, one per row."""
    return np.array([stream.multinomial(n, P) for _ in range(k)])


def test_reproducible():
    assert np.all(splits(RandomStream(123, 4)) == splits(RandomStream(123, 4)))


def test_streams_differ():
    base = splits(RandomStream(9, 0))
    for stream in (1, 2, 1 << 40):
        assert not np.all(base == splits(RandomStream(9, stream)))


def test_seed_changes_sequence():
    assert not np.all(splits(RandomStream(1, 0)) == splits(RandomStream(2, 0)))


def test_range():
    counts = splits(RandomStream(77), k=1000)
    assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == 1000)
    # 1e6 draws in all: each outcome's frequency within 6 sigma of P
    freq = counts.sum(axis=0) / 1e6
    assert np.all(np.abs(freq - P) <= 6 * np.sqrt(np.multiply(P, 1 - np.array(P)) / 1e6))


def test_wide_ints_masked_to_64_bits():
    assert RandomStream(-1).seed == (1 << 64) - 1
    big = RandomStream(1 << 80, 1 << 72)
    assert big.seed == 0 and big.stream == 0
    assert np.all(splits(big, k=4) == splits(RandomStream(0, 0), k=4))
