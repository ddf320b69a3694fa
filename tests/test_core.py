import math
import subprocess
import sys

import numpy as np
import pytest

from remlab.core import Cloud, OverlapGrid, SpinConfig, delta_n, hamming, overlap, sample_cloud
from remlab.errors import UsageError

LOG2 = math.log(2.0)


def test_overlap_identity_and_antipodal():
    rng = np.random.default_rng(1)
    for n in (1, 5, 8, 33):
        signs = np.where(rng.random(n) < 0.5, -1, 1)
        a = SpinConfig.from_signs(signs)
        assert overlap(a, a) == 1.0
        assert hamming(a, a) == 0
        assert overlap(a, a.complement()) == -1.0
        assert hamming(a, a.complement()) == n


def test_overlap_small_example():
    a = SpinConfig.from_signs([1, 1, 1, 1])
    b = SpinConfig.from_signs([1, 1, -1, -1])
    assert hamming(a, b) == 2
    assert overlap(a, b) == 0.0


def test_overlap_matches_per_bit_loop():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        sa = np.where(rng.random(n) < 0.5, -1, 1)
        sb = np.where(rng.random(n) < 0.5, -1, 1)
        a, b = SpinConfig.from_signs(sa), SpinConfig.from_signs(sb)
        d = sum(1 for x, y in zip(sa, sb) if x != y)
        assert hamming(a, b) == d
        assert overlap(a, b) == (n - 2 * d) / n


def test_overlap_result_is_on_grid():
    rng = np.random.default_rng(3)
    grid = OverlapGrid(10)
    for _ in range(20):
        a = SpinConfig(n=10, bits=int(rng.integers(0, 1 << 10)))
        b = SpinConfig(n=10, bits=int(rng.integers(0, 1 << 10)))
        r = overlap(a, b)
        # bit-for-bit membership, not approximate
        assert r in set(grid.values.tolist())
        assert grid.k_of(r) == hamming(a, b)


def test_dimension_mismatch_rejected():
    a = SpinConfig.from_signs([1, 1])
    b = SpinConfig.from_signs([1, 1, 1])
    with pytest.raises(UsageError):
        hamming(a, b)
    with pytest.raises(UsageError):
        overlap(a, b)


def test_spinconfig_validation_and_roundtrip():
    with pytest.raises(UsageError):
        SpinConfig(n=3, bits=1 << 3)
    signs = [1, -1, -1, 1, 1, -1, 1]
    cfg = SpinConfig.from_signs(signs)
    assert cfg.to_signs().tolist() == signs


def test_overlap_grid_shape():
    grid = OverlapGrid(8)
    assert grid.values[0] == 1.0 and grid.values[-1] == -1.0
    assert np.all(np.diff(grid.values) == -2.0 / 8)
    with pytest.raises(UsageError):
        grid.k_of(0.3)


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
        Cloud(n=4, m=1.0, members=(SpinConfig(4, 3), SpinConfig(4, 3)))
    with pytest.raises(UsageError):
        Cloud(n=4, m=1.0, members=(SpinConfig(4, 5), SpinConfig(4, 3)))
    cloud = Cloud.from_bits(4, [9, 3, 12])
    assert [c.bits for c in cloud.members] == [3, 9, 12]
    gram = cloud.overlap_matrix()
    for i, a in enumerate(cloud.members):
        for j, b in enumerate(cloud.members):
            assert gram[i, j] == overlap(a, b)


def test_sample_cloud_saturation():
    cloud = sample_cloud(10, 10.0, np.random.default_rng(0))
    assert len(cloud) == 1024


def test_sample_cloud_exact_deterministic():
    a = sample_cloud(16, 6.0, np.random.default_rng(123))
    b = sample_cloud(16, 6.0, np.random.default_rng(123))
    assert [c.bits for c in a.members] == [c.bits for c in b.members]


def test_sample_cloud_large_n_deterministic_and_valid():
    rng = np.random.default_rng(9)
    cloud = sample_cloud(100, 10.0, rng)
    assert abs(len(cloud) - 1024) < 5 * 32  # Poisson(1024) within 5 sigma
    assert all(c.bits < (1 << 100) for c in cloud.members)
    again = sample_cloud(100, 10.0, np.random.default_rng(9))
    assert [c.bits for c in again.members] == [c.bits for c in cloud.members]


def test_sample_cloud_mode_contracts():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        sample_cloud(30, 5.0, rng, mode="exact")
    with pytest.raises(UsageError):
        sample_cloud(10, 12.0, rng)
    with pytest.raises(UsageError):
        sample_cloud(10, -5.0, np.random.default_rng(4))  # empty after resample


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
