import numpy as np

from catlab.rng import RandomStream


def test_reproducible():
    a = RandomStream(123, 4)
    b = RandomStream(123, 4)
    assert np.all(a.uniforms(100) == b.uniforms(100))


def test_batch_equals_single_draws():
    a = RandomStream(5, 3)
    b = RandomStream(5, 3)
    xs = a.uniforms(64)
    ys = np.array([b.uniforms(1)[0] for _ in range(64)])
    assert np.all(xs == ys)


def test_streams_differ():
    base = RandomStream(9, 0).uniforms(32)
    for stream in (1, 2, 1 << 40):
        other = RandomStream(9, stream).uniforms(32)
        assert not np.all(base == other)


def test_seed_changes_sequence():
    assert not np.all(
        RandomStream(1, 0).uniforms(32) == RandomStream(2, 0).uniforms(32)
    )


def test_range():
    u = RandomStream(77).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_wide_ints_masked_to_64_bits():
    assert RandomStream(-1).seed == (1 << 64) - 1
    big = RandomStream(1 << 80, 1 << 72)
    assert big.seed == 0 and big.stream == 0
    assert np.all(big.uniforms(4) == RandomStream(0, 0).uniforms(4))
