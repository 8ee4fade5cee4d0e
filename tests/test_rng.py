import numpy as np

from killedwalk.rng import keyed_bits, keyed_uniform, mix_counters, stream_generator, stream_key, substream


def _splitmix64_reference(x: int) -> int:
    mask = 0xFFFFFFFFFFFFFFFF
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _keyed_bits_reference(seed: int, stream: int, counter: int) -> int:
    mask = 0xFFFFFFFFFFFFFFFF
    k = _splitmix64_reference(seed & mask)
    k = _splitmix64_reference(k ^ ((stream + 0x9E3779B97F4A7C15) & mask))
    return _splitmix64_reference(k ^ ((counter * 0x9E3779B97F4A7C15) & mask))


def test_matches_pure_python_reference():
    for seed, stream, counter in [(0, 0, 0), (1, 2, 3), (2**63, 5, -7), (12345, 2**40, 2**50)]:
        got = int(keyed_bits(seed, stream, np.int64(counter).astype(np.uint64)))
        want = _keyed_bits_reference(seed, stream, counter & 0xFFFFFFFFFFFFFFFF)
        assert got == want


def test_uniform_range_and_determinism():
    sites = np.arange(-500, 500)
    u1 = keyed_uniform(9, 4, sites)
    u2 = keyed_uniform(9, 4, sites)
    assert np.array_equal(u1, u2)
    assert np.all((0.0 <= u1) & (u1 < 1.0))


def test_counter_purity_under_reordering():
    sites = np.arange(-20, 20)
    full = keyed_uniform(3, 1, sites)
    shuffled = keyed_uniform(3, 1, sites[::-1])[::-1]
    one_at_a_time = np.array([float(keyed_uniform(3, 1, int(x))) for x in sites])
    assert np.array_equal(full, shuffled)
    assert np.array_equal(full, one_at_a_time)


def test_streams_and_seeds_decorrelate():
    sites = np.arange(4000)
    base = keyed_uniform(0, 0, sites)
    other_stream = keyed_uniform(0, 1, sites)
    other_seed = keyed_uniform(1, 0, sites)
    assert np.mean(base == other_stream) < 1e-3
    assert np.mean(base == other_seed) < 1e-3
    # crude uniformity: mean 1/2 +- 5 sigma, variance 1/12-ish
    for u in (base, other_stream, other_seed):
        assert abs(u.mean() - 0.5) < 5 * (1.0 / np.sqrt(12 * u.size))
        assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_substream_is_pure_and_distinct():
    a = substream(7, 3)
    assert a == substream(7, 3)
    children = {substream(7, i) for i in range(1000)}
    assert len(children) == 1000
    indices = np.arange(-500, 500)
    assert isinstance(a, int)
    assert substream(7, indices).tolist() == [substream(7, int(i)) for i in indices]


def test_stream_generator_reproducible():
    g1 = stream_generator(1, 2, 3)
    g2 = stream_generator(1, 2, 3)
    assert np.array_equal(g1.random(100), g2.random(100))
    assert not np.array_equal(stream_generator(1, 2, 4).random(100), stream_generator(1, 2, 3).random(100))


def test_python_int_keys_wrap_to_64_bits():
    sites = np.arange(-4, 4)
    mask = 0xFFFFFFFFFFFFFFFF
    assert np.array_equal(keyed_uniform(2**64 + 7, 3, sites), keyed_uniform(7, 3, sites))
    assert np.array_equal(keyed_uniform(7, 2**65 + 3, sites), keyed_uniform(7, 3, sites))
    assert np.array_equal(keyed_uniform(-1, 3, sites), keyed_uniform(mask, 3, sites))
    assert keyed_bits(2**64 + 7, 0, 5) == keyed_bits(7, 0, 5)
    assert substream(2**64 + 3, 1) == substream(3, 1)


def test_in_place_draws_match_allocating_draws():
    mask = 0xFFFFFFFFFFFFFFFF
    counters = np.arange(-300, 700)
    counters_gamma = np.array([c * 0x9E3779B97F4A7C15 & mask for c in counters.tolist()], dtype=np.uint64)
    streams = np.array([0, 5, 2**40], dtype=np.uint64)[:, None]
    for seed, stream in ((9, 4), (2**63 + 1, streams)):
        want = keyed_bits(seed, stream, counters)
        key = stream_key(seed, stream)
        # in place in the premultiplied counters' own memory, as a forest hashes
        words = np.broadcast_to(counters_gamma, want.shape).copy()
        scratch = np.full(want.shape, 77, dtype=np.uint64)
        assert mix_counters(key, words, out=words, scratch=scratch) is words
        assert np.array_equal(words, want)
        # without scratch, one is allocated; out's old contents never leak in
        out = np.full(want.shape, 5, dtype=np.uint64)
        assert mix_counters(key, counters_gamma, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(keyed_uniform(seed, stream, counters), (want >> np.uint64(11)) * 2.0**-53)


def test_keyed_bits_is_the_stream_key_mixed_into_the_counters():
    mask = 0xFFFFFFFFFFFFFFFF
    counters = np.arange(-300, 700)
    counters_gamma = np.array([c * 0x9E3779B97F4A7C15 & mask for c in counters.tolist()], dtype=np.uint64)
    streams = np.array([0, 5, 2**40, mask], dtype=np.uint64)[:, None]
    for seed, stream in ((9, 4), (-3, 2**64 + 5), (2**63 + 1, streams)):
        assert np.array_equal(mix_counters(stream_key(seed, stream), counters_gamma), keyed_bits(seed, stream, counters))
    for seed, stream, counter in [(0, 0, 0), (1, 2, 3), (2**63, 5, -7)]:
        word = np.uint64(counter * 0x9E3779B97F4A7C15 & mask)
        assert int(mix_counters(stream_key(seed, stream), word)) == _keyed_bits_reference(seed, stream, counter & mask)
