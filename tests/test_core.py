import math
import subprocess
import sys

import numpy as np
import pytest

from remlab.core import Cloud, check_cloud, delta_n, grid_index, overlap_grid, sample_cloud
from remlab.errors import UsageError

LOG2 = math.log(2.0)


def _ints(packed):
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def test_overlap_result_is_on_grid():
    rng = np.random.default_rng(3)
    grid = set(overlap_grid(10).tolist())
    cloud = Cloud.from_bits(10, rng.integers(0, 1 << 10, size=20).tolist())
    bits = _ints(cloud.packed)
    gram = cloud.overlap_matrix()
    for i, a in enumerate(bits):
        for j, b in enumerate(bits):
            # bit-for-bit membership, not approximate
            assert gram[i, j] in grid
            assert grid_index(10, gram[i, j]) == (a ^ b).bit_count()


def test_overlap_grid_shape():
    grid = overlap_grid(8)
    assert grid[0] == 1.0 and grid[-1] == -1.0
    assert np.all(np.diff(grid) == -2.0 / 8)
    with pytest.raises(UsageError):
        grid_index(8, 0.3)


def test_delta_n_values():
    assert delta_n(10000, 10.0) == pytest.approx(0.16070749666434675, abs=1e-12)
    # cap active where the raw bound is vacuous
    raw = 4.0 * math.sqrt(10 * LOG2 / 100 + math.log(100) / 100)
    assert raw == pytest.approx(1.3586, abs=1e-4)
    assert delta_n(100, 10.0) == 1.0
    # m = 0: both summands vanish as n grows
    vals = [delta_n(10**k, 0.0) for k in range(1, 7)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02
    with pytest.raises(UsageError):
        delta_n(1, 5.0)


def test_cloud_invariants():
    with pytest.raises(UsageError):
        Cloud(n=4, m=1.0, members=np.array([[3], [3]], dtype=np.uint8))
    with pytest.raises(UsageError):
        Cloud(n=4, m=1.0, members=np.array([[5], [3]], dtype=np.uint8))
    with pytest.raises(UsageError):  # a plain sequence is not a packed array
        Cloud(n=4, m=1.0, members=[3, 5])
    cloud = Cloud.from_bits(4, [9, 3, 12])
    bits = _ints(cloud.packed)
    assert bits == [3, 9, 12]
    gram = cloud.overlap_matrix()
    for i, a in enumerate(bits):
        for j, b in enumerate(bits):
            assert gram[i, j] == (4 - 2 * (a ^ b).bit_count()) / 4


def test_sample_cloud_saturation():
    cloud = sample_cloud(10, 10.0, np.random.default_rng(0))
    assert len(cloud) == 1024


def test_sample_cloud_exact_deterministic():
    a = sample_cloud(16, 6.0, np.random.default_rng(123))
    b = sample_cloud(16, 6.0, np.random.default_rng(123))
    assert np.array_equal(a.packed, b.packed)


def test_sample_cloud_large_n_deterministic_and_valid():
    rng = np.random.default_rng(9)
    cloud = sample_cloud(100, 10.0, rng)
    assert abs(len(cloud) - 1024) < 5 * 32  # Poisson(1024) within 5 sigma
    assert all(b < (1 << 100) for b in _ints(cloud.packed))
    again = sample_cloud(100, 10.0, np.random.default_rng(9))
    assert np.array_equal(again.packed, cloud.packed)


def test_sample_cloud_mode_contracts():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        sample_cloud(30, 5.0, rng, mode="exact")
    with pytest.raises(UsageError):
        sample_cloud(10, 12.0, rng)
    # drawn once, whatever its size: an empty cloud is a cloud
    assert len(sample_cloud(10, -5.0, np.random.default_rng(4))) == 0


def test_large_n_refuses_dense_clouds_without_hanging():
    # the distinct-string draw once looped forever here: Poisson(16) > 2^4 strings
    code = (
        "import numpy as np\n"
        "from remlab.core import sample_cloud\n"
        "from remlab.errors import UsageError\n"
        "try:\n"
        "    sample_cloud(4, 4.0, np.random.default_rng(0), mode='large_n')\n"
        "except UsageError:\n"
        "    raise SystemExit(2)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 2
    with pytest.raises(UsageError):
        sample_cloud(40, 20.5, np.random.default_rng(0))  # auto mode, n > 24


def test_large_n_is_refused_below_n_6_before_any_draw():
    # at m <= n/2 the Poisson(2^m) target outnumbers the 2^n strings with
    # probability 0.17 at n = 1, 1.1e-6 at n = 4 and 2.3e-36 at n = 6
    with pytest.raises(UsageError, match="n >= 6"):
        check_cloud(5, 2.0, "large_n")
    assert check_cloud(6, 3.0, "large_n") == "large_n"
    for seed in range(200):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        with pytest.raises(UsageError, match="n >= 6"):
            sample_cloud(1, 0.5, rng, mode="large_n")
        assert rng.bit_generator.state == state


def test_sample_cloud_refuses_oversized_sign_matrix():
    # both once ended in numpy's MemoryError: 2^41.25 random rows, and a
    # 6.5-million-member cloud whose 7.9 GiB sign matrix failed to allocate
    for n, m in ((163, 41.25), (163, 22.4)):
        with pytest.raises(UsageError, match="GiB sign matrix"):
            sample_cloud(n, m, np.random.default_rng(0))


def test_max_overlap_within_delta_bound():
    # mean size 256 at n = 4000: the bound 0.235 is far above typical 0.08
    cloud = sample_cloud(4000, 8.0, np.random.default_rng(5))
    gram = cloud.overlap_matrix()
    np.fill_diagonal(gram, 0.0)
    assert np.abs(gram).max() <= delta_n(4000, 8.0)
    # the literal small-n case is vacuous (cap active) but must still hold
    cloud2 = sample_cloud(100, 10.0, np.random.default_rng(6))
    gram2 = cloud2.overlap_matrix()
    np.fill_diagonal(gram2, 0.0)
    assert np.abs(gram2).max() <= delta_n(100, 10.0)


def test_cloud_size_statistics():
    # Binomial(2^20, 2^-10) mean check over many seeds
    sizes = np.array([
        len(sample_cloud(20, 10.0, np.random.default_rng(s))) for s in range(1000)
    ])
    se = math.sqrt(1024 * (1 - 2.0**-10)) / math.sqrt(len(sizes))
    assert abs(sizes.mean() - 1024) <= 3 * se
    # Chernoff-style sanity: large deviations of |X| are rare
    sizes8 = np.array([
        len(sample_cloud(20, 8.0, np.random.default_rng(10_000 + s))) for s in range(500)
    ])
    assert np.mean(np.abs(sizes8 - 256) > 128) < 0.01
