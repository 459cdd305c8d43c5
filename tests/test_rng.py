import numpy as np
import numpy.random.bit_generator
import pytest

from catlab.lab import _weights
from catlab.protocols import MAX_TRIALS
import catlab.rng
from catlab.rng import MAX_SEED, RandomStream, draw_weights, give_back, take_stream

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


# 0, the top of the key range, and wide ints that mask to 64 bits
KEYS = [0, 1, 123456789, (1 << 63) + 5, MAX_SEED, -1, (1 << 80) | 3]


def reference(seed, stream):
    """The generator a stream is defined as: Philox keyed with [seed, stream].
    The key goes in as uint64, since numpy converts a list key through
    float64, which rounds keys above 2**53."""
    key = np.array([seed & MAX_SEED, stream & MAX_SEED], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", KEYS)
@pytest.mark.parametrize("stream", [0, 1, MAX_SEED, (1 << 72) | 9])
def test_streams_match_the_reference_generator(seed, stream):
    ref = reference(seed, stream)
    assert np.array_equal(
        splits(RandomStream(seed, stream)), [ref.multinomial(1000, P) for _ in range(32)]
    )


def state(gen):
    """A generator's bit-generator state, with its arrays as lists."""
    inner = gen.bit_generator.state
    return {**inner, "state": {k: v.tolist() for k, v in inner["state"].items()},
            "buffer": inner["buffer"].tolist()}


def test_one_pair_keys_one_state():
    a, b = RandomStream(5, 9), RandomStream(5, 9)
    assert state(a._gen) == state(b._gen) == state(reference(5, 9))
    assert a._gen.bit_generator is not b._gen.bit_generator


def test_keying_a_stream_draws_no_entropy(monkeypatch):
    def no_entropy(*args):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(numpy.random.bit_generator, "randbits", no_entropy)
    stream = RandomStream(3, 4)
    assert not hasattr(stream._gen.bit_generator.seed_seq, "entropy")
    assert np.array_equal(splits(stream, k=4), splits(RandomStream(3, 4), k=4))
    # re-keying writes the state it is given and reads nothing
    stream.rekey(5, 6)
    assert np.array_equal(splits(stream, k=4), splits(RandomStream(5, 6), k=4))
    # and so does a pool that builds a stream or re-keys an idle one
    monkeypatch.setattr(catlab.rng, "_IDLE", [])
    for _ in range(2):
        taken = take_stream(7, 8)
        assert np.array_equal(splits(taken, k=4), splits(RandomStream(7, 8), k=4))
        give_back(taken)


THREE = draw_weights(_weights([0.2, 0.3, 0.5]))
# numpy's binomial inversion for n * p < 30 and BTPE above, each twice, the
# second time on the set-up that the generator kept from the first
DRAWS = [(1000, THREE), (10, 0.3), (10, 0.3), (10**6, 0.3), (10**6, 0.3)]


def draws(stream, order=DRAWS):
    return [stream.draw(n, weights) for n, weights in order]


@pytest.mark.parametrize("seed", [0, 1, MAX_SEED])
@pytest.mark.parametrize("stream", [0, 1])
def test_a_rekeyed_stream_is_a_new_stream(seed, stream):
    ours = RandomStream(seed ^ 12345, 77)
    draws(ours)
    ours.rekey(seed, stream)
    assert (ours.seed, ours.stream) == (seed, stream)
    assert state(ours._gen) == state(reference(seed, stream))
    # its first draw is the (n, p) of its last before the re-key
    fresh = RandomStream(seed, stream)
    for order in (DRAWS[::-1], DRAWS):
        assert draws(ours, order) == draws(fresh, order)
    assert state(ours._gen) == state(fresh._gen)


def test_the_pool_rekeys_an_idle_stream_and_builds_only_when_none_is(monkeypatch):
    pool = []
    monkeypatch.setattr(catlab.rng, "_IDLE", pool)
    first = take_stream(1, 2)
    assert (first.seed, first.stream) == (1, 2) and pool == []
    second = take_stream(3)  # the first is held, so a second is built
    assert second is not first
    draws(first)
    give_back(first)
    give_back(second)
    assert pool == [first, second]
    again = take_stream(4, 5)
    assert again is second and pool == [first]
    assert state(again._gen) == state(reference(4, 5))


GRID = 1 << 40  # lab.SPLIT_GRID
# a first weight of 0 and 1, one grid step from each, an even split, and
# grid weights drawn once from a seeded generator
FIRST_WEIGHTS = [0.0, 2.0**-40, 0.5, 1 - 2.0**-40, 1.0] + [
    int(a) / GRID for a in np.random.default_rng(37).integers(0, GRID, 6, endpoint=True)
]
TRIALS = [1, 2, 10**4, 1 << 40, MAX_TRIALS]


@pytest.mark.parametrize("seed", [0, 1, MAX_SEED])
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("first", FIRST_WEIGHTS)
def test_a_two_row_draw_is_the_multinomial_draw(seed, stream, first):
    # A two-row split draws one binomial on the first weight; numpy's
    # multinomial over the pair makes that one draw and gives the rest to
    # the second row, so the counts and the randomness consumed must agree.
    pair = _weights([first, 1.0 - first])
    assert pair[0] == first
    weights = draw_weights(pair)
    assert weights.__class__ is float and weights == first
    ours, ref = RandomStream(seed, stream), reference(seed, stream)
    for n in TRIALS:
        for _ in range(3):  # a repeat reuses the binomial set-up of the last draw
            counts = ours.draw(n, weights)
            assert counts == tuple(ref.multinomial(n, pair).tolist()), (n, first)
            assert all(c.__class__ is int for c in counts)
            assert state(ours._gen) == state(ref)


def test_a_wider_draw_is_the_multinomial_draw():
    rng = np.random.default_rng(41)
    for rows in (1, 3, 4, 5):
        pvals = _weights(rng.dirichlet(np.ones(rows)))
        weights = draw_weights(pvals)
        assert weights is pvals and not weights.flags.writeable
        ours, ref = RandomStream(9, rows), reference(9, rows)
        for n in TRIALS:
            assert ours.draw(n, weights) == ref.multinomial(n, pvals).tolist()
            assert state(ours._gen) == state(ref)
