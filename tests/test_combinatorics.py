import math

import numpy as np
import pytest

from remlab.combinatorics import (
    _ndelta_ints,
    brute_force_pair_census,
    brute_force_triple_census,
    classify_pair_regime,
    classify_triple_regime,
    cloud_pair_census,
    count_v2_exact,
    count_w3_exact,
    log_count_columns,
    log_count_v2,
    rate_j,
    rate_j2,
    solve_ndelta,
    triple_grid,
)
from remlab.core import Cloud, grid_index, overlap_grid, sample_cloud
from remlab.errors import UsageError

LOG2 = math.log(2.0)


def rate_j_series(x, terms=40):
    # J(x) = sum_{k>=1} x^(2k) / (2k (2k-1))
    return sum(x ** (2 * k) / (2 * k * (2 * k - 1)) for k in range(1, terms + 1))


def test_rate_j_values():
    assert rate_j(0.0) == 0.0
    assert rate_j(1.0) == pytest.approx(LOG2, abs=1e-15)
    assert rate_j(-1.0) == pytest.approx(LOG2, abs=1e-15)
    assert rate_j(0.5) == pytest.approx(0.13081203594113697, abs=1e-15)
    assert rate_j(0.5) == pytest.approx(rate_j_series(0.5), rel=1e-12)
    assert rate_j(1.0001) == math.inf and rate_j(-2.0) == math.inf


def test_rate_j_even_convex_and_quadratic_bound():
    xs = np.linspace(-1, 1, 401)
    vals = rate_j(xs)
    assert np.allclose(vals, rate_j(-xs))
    assert np.all(vals >= xs**2 / 2 - 1e-15)
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-12)


def test_rate_j2_values_and_reduction():
    assert rate_j2(0, 0, 0) == 0.0
    for x in np.linspace(-0.9, 0.9, 19):
        assert rate_j2(x, 0, 0) == pytest.approx(float(rate_j(x)), abs=1e-14)
    # frozen from a 40-digit arbitrary-precision evaluation of the four-term sum
    assert rate_j2(0.5, 0.5, 0.5) == pytest.approx(
        0.3127515147113674, abs=1e-15
    )
    assert rate_j2(0.9, -0.9, 0.9) == math.inf  # inadmissible


def test_rate_j2_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y, z = rng.uniform(-1, 1, 3)
        vals = {
            rate_j2(x, y, z), rate_j2(y, x, z), rate_j2(z, y, x),
            rate_j2(x, z, y), rate_j2(y, z, x), rate_j2(z, x, y),
        }
        finite = {v for v in vals if math.isfinite(v)}
        if finite:
            assert max(finite) - min(finite) < 1e-12
        else:
            assert vals == {math.inf}


def test_rate_j2_domain_is_the_nonnegative_column_counts():
    # finite on every realizable triple, including those with a zero column
    # count whose float sum rounds just below 0
    for n in range(1, 61):
        r12, r23, r31, _, _ = triple_grid(n)
        assert np.all(np.isfinite(rate_j2(r12, r23, r31))), n
    # (-0.8, 0.6, -0.8) at n = 10 has 92160 ordered triples
    assert count_w3_exact(10, (-0.8, 0.6, -0.8)) == 92160
    assert rate_j2(-0.8, 0.6, -0.8) == pytest.approx(0.74726, abs=1e-5)
    assert classify_triple_regime(10, 40.0, (-0.8, 0.6, -0.8)).label == "Concentrated"
    # off the cube [-1, 1]^3, as rate_j is
    assert rate_j2(-3.0, 0.0, 0.0) == math.inf
    assert rate_j2(1.0 + 1e-9, 0.0, 0.0) == math.inf


def test_solve_ndelta_examples():
    assert solve_ndelta(4, (0, 0, 0)) == (1, 1, 1, 1)
    assert solve_ndelta(4, (1, 1, 1)) == (4, 0, 0, 0)
    # plugging (0.5, 0.5, 0) into the four closed forms
    assert solve_ndelta(8, (0.5, 0.5, 0.0)) == (4, 2, 0, 2)


def test_solve_ndelta_reconstructs_overlaps():
    rng = np.random.default_rng(1)
    n = 12
    grid = overlap_grid(n)
    for _ in range(100):
        t = tuple(rng.choice(grid, 3))
        npp_, npm, nmp, nmm = solve_ndelta(n, t)
        assert npp_ + npm + nmp + nmm == pytest.approx(n, abs=1e-9)
        assert (npp_ + npm - nmp - nmm) / n == pytest.approx(t[0], abs=1e-9)
        assert (npp_ - npm - nmp + nmm) / n == pytest.approx(t[1], abs=1e-9)
        assert (npp_ - npm + nmp - nmm) / n == pytest.approx(t[2], abs=1e-9)
        # the triangle-type constraints every realizable triple satisfies
        if (1.0 + t[0] >= abs(t[1] + t[2]) - 1e-12
                and 1.0 - t[0] >= abs(t[1] - t[2]) - 1e-12):
            assert min(npp_, npm, nmp, nmm) >= -1e-9


def test_count_v2_examples():
    assert count_v2_exact(4, 0.5) == 128
    assert count_v2_exact(4, 1.0) == 32
    assert count_v2_exact(2, 0.0) == 8
    with pytest.raises(UsageError):
        count_v2_exact(4, 0.3)


def test_count_v2_total_mass():
    for n in range(1, 11):
        grid = overlap_grid(n)
        total = sum(count_v2_exact(n, r) for r in sorted({abs(v) for v in grid}))
        assert total == 4**n


def test_count_w3_examples():
    assert count_w3_exact(4, (0, 0, 0)) == 384
    assert count_w3_exact(4, (1, 1, 1)) == 16
    # non-integer column counts: unrealizable triple
    assert count_w3_exact(4, (0.5, 0.0, 0.0)) == 0


def test_counts_match_brute_force_small():
    for n in (2, 3, 4, 6):
        census = brute_force_pair_census(n)
        assert sum(census.values()) == 4**n
        for r, c in census.items():
            assert count_v2_exact(n, r) == c
    for n in (2, 3, 4, 6):
        tcensus = brute_force_triple_census(n)
        assert sum(tcensus.values()) == 8**n
        for key, c in tcensus.items():
            assert count_w3_exact(n, key) == c
        # the scalar rate is finite on every realizable triple and equals the
        # array evaluation
        keys = np.array(list(tcensus))
        j2 = rate_j2(*keys.T)
        for key, v in zip(tcensus, j2):
            assert math.isfinite(rate_j2(*key)) and rate_j2(*key) == v
        # the column-count grid lists exactly the census triples, with their counts
        r12, r23, r31, log_count, distinct = triple_grid(n)
        grid = {key: (lc, d) for key, lc, d in zip(zip(r12, r23, r31), log_count, distinct)}
        assert grid.keys() == tcensus.keys()
        for key, c in tcensus.items():
            lc, d = grid[key]
            assert math.exp(lc) == pytest.approx(c, rel=1e-12)
            assert d == (max(key) < 1.0)


def test_triple_census_matches_full_enumeration():
    # the gauge reduction (first configuration pinned to all-ones) against a
    # raw triple loop
    n = 4
    full = {}
    for a in range(1 << n):
        for b in range(1 << n):
            for c in range(1 << n):
                key = (
                    (n - 2 * bin(a ^ b).count("1")) / n,
                    (n - 2 * bin(b ^ c).count("1")) / n,
                    (n - 2 * bin(c ^ a).count("1")) / n,
                )
                full[key] = full.get(key, 0) + 1
    assert brute_force_triple_census(n) == full


def test_log_counts_agree_with_exact():
    for n in (8, 40, 200):
        grid = overlap_grid(n)
        for r in (grid[1], grid[n // 2], grid[n // 4]):
            assert log_count_v2(n, abs(r)) == pytest.approx(
                math.log(count_v2_exact(n, abs(r))), rel=1e-12
            )
    t = (0.5, 0.5, 0.0)
    assert log_count_columns(8, *_ndelta_ints(8, t)) == pytest.approx(
        math.log(count_w3_exact(8, t)), rel=1e-12
    )
    assert _ndelta_ints(8, (0.25, 0, 0)) is None


def test_pair_count_lower_bound():
    # |pairs with |R| <= R| / 4^n >= 1 - 2 exp(-n R^2 / 8) once n R^2 >= 64
    for n, r in ((64, 1.0 * 64 / 64), (128, 0.75)):
        grid = overlap_grid(n)
        r_on_grid = grid[np.argmin(np.abs(grid - r))]
        above = sum(
            count_v2_exact(n, abs(v)) for v in sorted({abs(v) for v in grid})
            if v > abs(r_on_grid) + 1e-12
        )
        frac = 1.0 - above / 4**n
        assert n * r_on_grid**2 >= 64
        assert frac >= 1.0 - 2.0 * math.exp(-n * r_on_grid**2 / 8.0)


def test_stirling_scaling_of_pair_counts():
    # count * 2^(-2n) * sqrt(n) * exp(n J(r)) approaches a constant
    r = 0.25
    qs = []
    for n in (200, 400, 800):
        logq = (
            log_count_v2(n, r) - 2 * n * LOG2 + 0.5 * math.log(n) + n * float(rate_j(r))
        )
        qs.append(math.exp(logq))
    assert abs(qs[1] / qs[0] - 1) < 0.15
    assert abs(qs[2] / qs[1] - 1) < 0.15


def test_pair_regime_classifier():
    # J(0.02) * 10000 = 2.0 sits between m*log2 - 0.6 log n and the Empty bound
    assert classify_pair_regime(10000, 10.0, 0.02).label == "Polylog"
    # the theorem holds for any c1 > 1/2; close to the infimum the same point
    # classifies as Concentrated
    assert classify_pair_regime(10000, 10.0, 0.02, c1=0.51).label == "Concentrated"
    assert classify_pair_regime(100, 10.0, 0.0).label == "Concentrated"
    assert classify_pair_regime(100, 10.0, 0.9).label == "Empty"
    with pytest.raises(UsageError):
        classify_pair_regime(100, 10.0, 0.5, c1=0.5)
    with pytest.raises(UsageError):
        classify_pair_regime(100, 10.0, 0.5, c2=1.5)


def test_pair_regime_empty_threshold_variant():
    # n J(r) = 5.22 lies between m log2 + c2 log 2 and m log2 + c2 log n
    n, m, r = 100, 4.0, 0.32
    assert classify_pair_regime(n, m, r).label == "Empty"
    assert classify_pair_regime(n, m, r, empty_uses_log_n=True).label == "Polylog"


def test_triple_regime_classifier():
    assert classify_triple_regime(100, 10.0, (0, 0, 0)).label == "Concentrated"
    assert classify_triple_regime(100, 10.0, (0.1, 0.1, 0.1)).label == "Concentrated"
    assert classify_triple_regime(100, 10.0, (0.9, -0.9, 0.9)).label == "Empty"
    with pytest.raises(UsageError):
        classify_triple_regime(100, 10.0, (0, 0, 0), c1=1.0)


def test_cloud_pair_census_antipodal():
    cloud = Cloud.from_bits(4, [0b0000, 0b1111])
    assert cloud_pair_census(cloud) == {-1.0: 2}


def test_cloud_pair_census_mass_and_expectation():
    rng = np.random.default_rng(3)
    cloud = sample_cloud(20, 8.0, rng)
    census = cloud_pair_census(cloud)
    assert sum(census.values()) == len(cloud) * (len(cloud) - 1)

    # mean census over seeds vs p^2 * (exact signed pair count)
    n, m, seeds = 20, 8.0, 200
    totals = np.zeros((seeds, n + 1))
    for s in range(seeds):
        c = sample_cloud(n, m, np.random.default_rng(500 + s))
        for r, cnt in cloud_pair_census(c).items():
            totals[s, grid_index(n, r)] = cnt
    p2 = 2.0 ** (2 * (m - n))
    for k in range(1, n + 1):
        expected = p2 * (1 << n) * math.comb(n, k)
        if expected < 50:
            continue
        mean = totals[:, k].mean()
        se = totals[:, k].std(ddof=1) / math.sqrt(seeds)
        assert abs(mean - expected) <= 3 * se
