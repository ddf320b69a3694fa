"""Packed clouds against the set-based samplers they replaced, and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remlab.combinatorics import cloud_pair_census
from remlab.core import (
    _SCAN_CHUNK,
    Cloud,
    _sample_exact,
    _sample_large_n,
    grid_index,
    sample_cloud,
)
from remlab.errors import UsageError


def _reference_exact(n, p, rng):
    kept = []
    total = 1 << n
    for start in range(0, total, _SCAN_CHUNK):
        size = min(_SCAN_CHUNK, total - start)
        u = rng.random(size)
        kept.extend((start + np.nonzero(u < p)[0]).tolist())
    return kept


def _reference_large_n(n, m, rng, rounds=None):
    target = int(rng.poisson(2.0**m))
    nbytes = (n + 7) // 8
    tail_mask = 0xFF if n % 8 == 0 else (1 << (n % 8)) - 1
    seen = set()
    while len(seen) < target:
        need = target - len(seen)
        raw = rng.integers(0, 256, size=(need, nbytes), dtype=np.uint8)
        raw[:, -1] &= tail_mask
        for row in raw:
            seen.add(int.from_bytes(row.tobytes(), "little"))
        if rounds is not None:
            rounds.append(need)
    return sorted(seen)


def _ints(packed):
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _rows(n, ints):
    nbytes = (n + 7) // 8
    return np.array([list(b.to_bytes(nbytes, "little")) for b in ints], dtype=np.uint8)


def _same_draws(new, reference, seed, *args):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = new(*args, rng_new), reference(*args, rng_ref)
    assert got.dtype == np.uint8 and got.shape == (len(want), (args[0] + 7) // 8)
    assert _ints(got) == want
    # the same generator calls were made: both streams end in the same state
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("n", [17, 20, 24, 33, 64, 65, 200])
def test_large_n_matches_set_based_sampler(n):
    m = min(8.0, n / 2)
    for seed in range(4):
        _same_draws(_sample_large_n, _reference_large_n, seed, n, m)


@pytest.mark.parametrize("n, seeds", [(5, 6), (17, 3), (20, 2), (24, 1)])
def test_exact_matches_set_based_sampler(n, seeds):
    p = 2.0 ** (min(6.0, n - 1) - n)
    for seed in range(seeds):
        _same_draws(_sample_exact, _reference_exact, seed, n, p)


def test_large_n_top_up_loop_matches():
    # 256 strings out of 2^16: about half the clouds draw a duplicate
    topped_up = 0
    for seed in range(8):
        rounds = []
        _reference_large_n(16, 8.0, np.random.default_rng(seed), rounds)
        topped_up += len(rounds) > 1
        _same_draws(_sample_large_n, _reference_large_n, seed, 16, 8.0)
    assert topped_up >= 2


def test_large_n_refuses_more_strings_than_exist():
    # seed 68 draws a Poisson(2) target of 5 at n = 2, where only 4 strings
    # exist; the distinct-string loop used to spin forever on it
    with pytest.raises(UsageError):
        _sample_large_n(2, 1.0, np.random.default_rng(68))


def test_packed_members_are_validated():
    with pytest.raises(UsageError):  # bit 5 is beyond n = 5
        Cloud(n=5, m=1.0, members=np.array([[1], [32]], dtype=np.uint8))
    with pytest.raises(UsageError):  # two bytes per row at n = 5
        Cloud(n=5, m=1.0, members=np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(UsageError):
        Cloud(n=5, m=1.0, members=np.array([[3], [3]], dtype=np.uint8))
    # beyond 64 bits the order runs over several words
    low, high = 1 << 3, 1 << 65
    with pytest.raises(UsageError):
        Cloud(n=70, m=1.0, members=_rows(70, [high, low]))
    cloud = Cloud(n=70, m=1.0, members=_rows(70, [low, high]))
    assert _ints(cloud.packed) == [low, high]
    assert not cloud.packed.flags.writeable


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["exact", "large_n"]))
def test_sampled_cloud_invariants(n, density, seed, mode):
    # below n = 6 a Poisson target can outnumber the 2^n strings, which large_n refuses
    n = min(n, 12) if mode == "exact" else max(n, 6)
    # at most 2^9 members on average, so every example stays small
    m = density * min(9.0, n / 2 if mode == "large_n" else n)
    cloud = sample_cloud(n, m, np.random.default_rng(seed), mode=mode)  # any size, 0 included
    bits = _ints(cloud.packed)
    assert bits == sorted(set(bits))
    assert all(0 <= b < (1 << n) for b in bits)
    assert cloud.packed.shape == (len(cloud), (n + 7) // 8)
    signs = cloud.sign_matrix
    assert signs.shape == (len(cloud), n)
    for row, b in zip(signs, bits):
        assert row.tolist() == [1.0 if b >> i & 1 else -1.0 for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), data=st.data())
def test_from_bits_matches_int_oracle(n, data):
    # n up to 130 makes rows span several 64-bit words
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    cloud = Cloud.from_bits(n, values)
    bits = _ints(cloud.packed)
    assert bits == sorted(set(values))
    gram = cloud.overlap_matrix()
    for i, a in enumerate(bits):
        for j, b in enumerate(bits):
            d = (a ^ b).bit_count()
            assert gram[i, j] == (n - 2 * d) / n
            assert grid_index(n, gram[i, j]) == d
    if len(bits) >= 2:
        assert sum(cloud_pair_census(cloud).values()) == len(bits) * (len(bits) - 1)


@pytest.mark.parametrize("n, value", [(5, -1), (5, 1 << 5), (0, 0)])
def test_from_bits_refuses_values_off_the_cube(n, value):
    with pytest.raises(UsageError):
        Cloud.from_bits(n, [value])
