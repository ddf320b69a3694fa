import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtr

import remlab
from remlab.errors import UsageError
from remlab.pointproc import (
    SQRT_2LOG2,
    BorelWindow,
    CountVector,
    GofReport,
    Normalization,
    factorial_moment,
    gof_defined,
    moment_ratio,
    poisson_gof,
    spacing_test,
)

SRC = str(Path(remlab.__file__).resolve().parents[1])


def test_normalization_values():
    norm = Normalization(16.0)
    assert norm.b_n == 0.25
    assert norm.a_n == pytest.approx(4.326080659802649, abs=1e-12)


def test_normalization_minimum_m():
    with pytest.raises(UsageError):
        Normalization(1.5)
    Normalization(2.0)  # boundary is allowed


def test_normalization_product_trend():
    # a_n * b_n increases toward sqrt(2 log 2)
    prods = [Normalization(m).a_n * Normalization(m).b_n for m in (16, 64, 256, 1024)]
    assert all(b > a for a, b in zip(prods, prods[1:]))
    assert all(p < SQRT_2LOG2 for p in prods)
    assert abs(prods[-1] - SQRT_2LOG2) < 0.15


def test_borel_window_validation():
    with pytest.raises(UsageError):
        BorelWindow(intervals=())
    with pytest.raises(UsageError):
        BorelWindow.single(0.0, 0.0)
    with pytest.raises(UsageError):
        BorelWindow.single(0.0, math.inf)
    with pytest.raises(UsageError):
        BorelWindow(intervals=((0.0, 2.0), (1.0, 3.0)))
    w = BorelWindow(intervals=((-1.0, 0.0), (0.5, 1.5)))
    assert w.intervals == ((-1.0, 0.0), (0.5, 1.5))


_FLOATS = st.floats(-20.0, 20.0)


@st.composite
def _window_and_values(draw):
    """A window of 1-3 sorted disjoint intervals, and values that include its edges."""
    k = draw(st.integers(1, 3))
    edges = sorted(draw(st.lists(_FLOATS, min_size=2 * k, max_size=2 * k, unique=True)))
    window = BorelWindow(tuple((edges[2 * i], edges[2 * i + 1]) for i in range(k)))
    values = draw(st.lists(_FLOATS | st.sampled_from(edges), max_size=40))
    return window, np.array(values, dtype=float)


@settings(max_examples=80, deadline=None)
@given(_window_and_values())
def test_window_mask_is_union_of_half_open_intervals(case):
    window, values = case
    expected = [any(lo <= v < hi for lo, hi in window.intervals) for v in values]
    assert window.mask(values).tolist() == expected


@settings(max_examples=80, deadline=None)
@given(_window_and_values(), _FLOATS)
def test_count_in_window_adds_up_over_a_split_window(case, cut):
    window, values = case

    def count_part(lo_cut, hi_cut):
        parts = tuple((max(lo, lo_cut), min(hi, hi_cut)) for lo, hi in window.intervals
                      if max(lo, lo_cut) < min(hi, hi_cut))
        return BorelWindow(parts).mask(values).sum() if parts else 0

    total = window.mask(values).sum()
    assert count_part(-math.inf, cut) + count_part(cut, math.inf) == total


def test_count_in_window_half_open():
    w = BorelWindow.single(0.0, 1.0)
    assert w.mask([0.5, 1.0, 0.0]).tolist() == [True, False, True]


def test_count_invariant_under_splitting():
    rng = np.random.default_rng(0)
    values = rng.uniform(-2, 2, 500)
    whole = BorelWindow.single(-1.0, 1.0)
    split = BorelWindow(intervals=((-1.0, -0.25), (-0.25, 0.5), (0.5, 1.0)))
    assert whole.mask(values).sum() == split.mask(values).sum()


def test_factorial_moment_basics():
    all_ones = CountVector(np.ones(100, dtype=int))
    rep = factorial_moment(all_ones, 2)
    assert rep.estimate == 0.0 and rep.stderr == 0.0
    rep1 = factorial_moment(all_ones, 1)
    assert rep1.estimate == 1.0 and rep1.stderr == 0.0
    pair = factorial_moment(CountVector(np.array([3, 3])), 2)
    assert pair.estimate == 6.0 and pair.stderr == 0.0
    with pytest.raises(UsageError):
        factorial_moment(CountVector(np.array([3])), 2)
    with pytest.raises(UsageError):
        factorial_moment(all_ones, 0)


def test_factorial_moment_order_one_is_mean():
    rng = np.random.default_rng(1)
    counts = CountVector(rng.poisson(1.3, 5000))
    assert factorial_moment(counts, 1).estimate == counts.counts.mean()


def test_factorial_moment_poisson_third():
    rng = np.random.default_rng(2)
    counts = CountVector(rng.poisson(2.0, 100_000))
    rep = factorial_moment(counts, 3)
    assert abs(rep.estimate - 8.0) <= 3 * rep.stderr


def test_moment_ratio_poisson_is_one():
    rng = np.random.default_rng(3)
    counts = CountVector(rng.poisson(0.4, 200_000))
    ratio, se = moment_ratio(counts)
    assert abs(ratio - 1.0) <= 3 * se
    assert se < 0.05


def test_poisson_gof_calibration():
    # size of the 1% test on true Poisson data
    rng = np.random.default_rng(4)
    passed = 0
    trials = 60
    for _ in range(trials):
        counts = CountVector(rng.poisson(0.33, 100_000))
        if poisson_gof(counts, 0.33).passed_1pct:
            passed += 1
    assert passed / trials >= 0.95


def test_poisson_gof_pools_the_lower_tail():
    # at lam = 16 and 1000 replicas, counts 0..6 together expect only 4.0, so
    # counts 0..7 form the lower cell (10.0); the test runs and is calibrated
    rng = np.random.default_rng(5)
    passed = 0
    trials = 60
    for _ in range(trials):
        rep = poisson_gof(CountVector(rng.poisson(16.0, 1000)), 16.0)
        passed += rep.passed_1pct
    assert passed / trials >= 0.95


def test_poisson_gof_folds_thin_edge_cells_into_the_tails():
    # from lam ~ 18 on, at 1000 replicas, the cell just inside a pooled tail
    # expects fewer than 5 on true Poisson counts; it used to raise
    rng = np.random.default_rng(6)
    for lam in (18.0, 24.0, 40.0):
        reports = [poisson_gof(CountVector(rng.poisson(lam, 1000)), lam) for _ in range(40)]
        assert all(rep.dof >= 10 for rep in reports)
        assert sum(rep.passed_1pct for rep in reports) >= 38


def test_poisson_gof_rejects_degenerate():
    counts = CountVector(np.ones(5000, dtype=int))
    rep = poisson_gof(counts, 1.0)
    assert not rep.passed_1pct and rep.pvalue < 1e-10


def test_poisson_gof_contracts():
    with pytest.raises(UsageError):
        poisson_gof(CountVector(np.zeros(100, dtype=int)), 0.3)
    with pytest.raises(UsageError):
        poisson_gof(CountVector(np.ones(5000, dtype=int)), 0.0)


def test_gof_defined_is_where_poisson_gof_has_a_test():
    # the widest pooled cell, counts >= 1, expects 1000 (1 - e^-lam): 9.95 at
    # lam = 0.01, 0.9995 at lam = 0.001
    counts = CountVector(np.zeros(1000, dtype=int))
    assert gof_defined(counts, 0.01)
    assert poisson_gof(counts, 0.01).dof >= 1
    assert not gof_defined(counts, 0.001) and not gof_defined(counts, 0.0)
    assert not gof_defined(CountVector(np.zeros(999, dtype=int)), 1.0)
    # poisson_gof refuses exactly there
    for lam, replicas in ((0.001, 1000), (0.0, 1000), (1.0, 999)):
        with pytest.raises(UsageError, match="too small"):
            poisson_gof(CountVector(np.zeros(replicas, dtype=int)), lam)


def _gof_oracle(counts, lam):
    """gof_defined and poisson_gof through scipy.stats' Poisson and chi-square
    distribution objects; None where the test is not defined, UsageError where a
    cell expects too little."""
    from scipy.stats import chi2, poisson

    r = counts.replicas
    if not (lam > 0.0 and r >= 1000 and r * poisson.sf(0, lam) >= 5.0):
        return None
    cut = int(np.max(counts.counts)) + 1
    while r * poisson.sf(cut - 1, lam) < 5.0:
        cut -= 1
    low = 0
    while r * poisson.cdf(low, lam) < 5.0:
        low += 1
    cut = max(cut, low + 1)
    cells = r * poisson.pmf(np.arange(cut), lam)
    while cut > low + 1 and cells[cut - 1] < 5.0:
        cut -= 1
    while cut > low + 1 and cells[low + 1] < 5.0:
        low += 1
    expected = np.concatenate([[cells[: low + 1].sum()], cells[low + 1 : cut],
                               [r * poisson.sf(cut - 1, lam)]])
    if np.any(expected < 5.0):
        raise UsageError("a cell expects fewer than 5")
    observed = np.bincount(counts.counts, minlength=cut + 1)
    observed = np.concatenate([[observed[: low + 1].sum()], observed[low + 1 : cut],
                               [observed[cut:].sum()]])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(expected) - 1
    pvalue = float(chi2.sf(stat, dof))
    return GofReport(statistic=stat, dof=dof, pvalue=pvalue, passed_1pct=pvalue >= 0.01)


@pytest.mark.parametrize("replicas", [1000, 100_000])
@pytest.mark.parametrize("lam", [0.01, 0.33, 1.0, 16.0, 40.0])
def test_poisson_gof_equals_the_scipy_stats_formulas(lam, replicas):
    # counts drawn at 0.75, 1 and 1.3 lam, so p-values from near 1 down to the far
    # tail; at lam = 40 a cell just inside a pooled tail has to be folded in
    rng = np.random.default_rng(int(lam * 100) + replicas)
    for draw_lam in (lam, 1.3 * lam, 0.75 * lam):
        counts = CountVector(rng.poisson(draw_lam, replicas))
        try:
            want = _gof_oracle(counts, lam)
        except UsageError:
            with pytest.raises(UsageError, match="below the minimum expected"):
                poisson_gof(counts, lam)
            continue
        assert gof_defined(counts, lam) == (want is not None)
        if want is not None:
            got = poisson_gof(counts, lam)
            assert got == want, (got, want)
    if lam == 16.0 and replicas == 1000:
        # the lower cell pools counts 0..7 here; the oracle agrees on it too
        assert pdtr(6, lam) * replicas < 5.0 <= pdtr(7, lam) * replicas


def test_importing_remlab_leaves_scipy_stats_unloaded():
    code = "import sys, remlab, remlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "False"


def _mu_inverse_cdf(u, lo, hi):
    # conditional law of the intensity on [lo, hi)
    c = SQRT_2LOG2
    zlo, zhi = math.exp(-c * lo), math.exp(-c * hi)
    return -np.log(zlo - u * (zlo - zhi)) / c


def test_spacing_test_accepts_true_law():
    rng = np.random.default_rng(5)
    w = BorelWindow.single(0.0, 1.0)
    pts = _mu_inverse_cdf(rng.random(5000), 0.0, 1.0)
    rep = spacing_test(pts, w)
    assert rep.passed_1pct


def test_spacing_test_rejects_point_mass():
    w = BorelWindow.single(0.0, 1.0)
    rep = spacing_test(np.full(500, 0.5), w)
    assert not rep.passed_1pct


def test_spacing_test_needs_points():
    w = BorelWindow.single(0.0, 1.0)
    with pytest.raises(UsageError):
        spacing_test(np.full(100, 0.5), w)


def test_spacing_test_multi_interval_window():
    rng = np.random.default_rng(6)
    w = BorelWindow(intervals=((-1.0, -0.5), (0.0, 1.0)))
    # sample from mu conditioned on the union via rejection on a cover
    pts = _mu_inverse_cdf(rng.random(40_000), -1.0, 1.0)
    pts = pts[w.mask(pts)]
    rep = spacing_test(pts, w)
    assert rep.passed_1pct
