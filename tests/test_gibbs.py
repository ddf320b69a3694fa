import math

import numpy as np
import pytest

from remlab.core import Cloud
from remlab.errors import UsageError
from remlab.gibbs import (
    pd_compare,
    pd_moment,
    pd_power_sum_mc,
    sample_pd_weights,
)
from remlab.models import ModelSpec
from remlab.pipeline import experiment_cloud
from remlab.pointproc import SQRT_2LOG2, gibbs_weights


def test_gibbs_weights_examples():
    assert gibbs_weights(np.array([3.7]), beta=1.0).tolist() == [1.0]
    w = gibbs_weights(np.array([0.2, 0.2]), beta=2.0)
    assert w.tolist() == [0.5, 0.5]
    w = np.sort(gibbs_weights(np.array([0.0, -1.0]), beta=1.0))[::-1]
    e = math.e
    assert w[0] == pytest.approx(e / (1 + e), abs=1e-12)
    assert w[1] == pytest.approx(1 / (1 + e), abs=1e-12)


def test_gibbs_weights_sorted_normalized():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(500)
    w = gibbs_weights(values, beta=1.7)[np.argsort(values)]
    assert np.all(np.diff(w) <= 0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)


def test_gibbs_weights_shift_invariance():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(200)
    w1 = gibbs_weights(vals, beta=2.0)
    # adding the constant rounds the inputs themselves, so the invariance
    # holds to machine precision, not bitwise
    w2 = gibbs_weights(vals + 123.456, beta=2.0)
    assert np.allclose(w1, w2, rtol=1e-11, atol=1e-16)
    # a power-of-two shift is exact in floating point: bitwise equality
    w3 = gibbs_weights(vals + 0.0, beta=2.0)
    assert np.array_equal(w1, w3)


def test_gibbs_weights_power_sums_decreasing_in_k():
    rng = np.random.default_rng(2)
    w = gibbs_weights(rng.standard_normal(100), beta=1.5)
    sums = [np.sum(w**k) for k in (2, 3, 4, 5)]
    assert all(b < a for a, b in zip(sums, sums[1:]))


def test_gibbs_weights_validation_and_m_pd():
    with pytest.raises(UsageError):
        gibbs_weights(np.array([1.0]), beta=0.0)
    cloud = Cloud.from_bits(6, [0, 1, 2, 3], m=2.0)
    rep = pd_compare(ModelSpec.rem(), cloud, beta=2 * SQRT_2LOG2, replicas=2, seed=0)
    assert rep.m_pd == SQRT_2LOG2 / (2 * SQRT_2LOG2)


def test_beta_to_infinity_concentrates_on_minimum():
    rng = np.random.default_rng(3)
    w = gibbs_weights(rng.standard_normal(1000), beta=1e6)
    assert np.sum(w**2) == pytest.approx(1.0, abs=1e-9)


def test_pd_moment_values():
    assert pd_moment(0.5, 2) == pytest.approx(0.5, abs=1e-15)
    assert pd_moment(0.5, 3) == pytest.approx(0.375, abs=1e-15)
    assert pd_moment(0.999, 2) == pytest.approx(0.001, abs=1e-12)
    with pytest.raises(UsageError):
        pd_moment(1.0, 2)
    with pytest.raises(UsageError):
        pd_moment(0.5, 1)


def test_pd_moment_against_simulator():
    # the simulator is the independent oracle for the closed-form moments
    rng = np.random.default_rng(4)
    for k in (2, 3):
        est, se = pd_power_sum_mc(0.5, k, trials=4000, rng=rng)
        assert abs(est - pd_moment(0.5, k)) <= 3 * se
    rng = np.random.default_rng(5)
    est, se = pd_power_sum_mc(0.3, 2, trials=3000, rng=rng)
    assert abs(est - pd_moment(0.3, 2)) <= 3 * se


def test_sample_pd_weights_shape():
    w = sample_pd_weights(0.5, np.random.default_rng(6), atoms=2000)
    assert len(w) == 2000
    assert np.all(np.diff(w) <= 0)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(UsageError):
        sample_pd_weights(1.2, np.random.default_rng(0))


def test_pd_compare_requires_low_temperature():
    cloud = Cloud.from_bits(6, [0, 1, 2, 3], m=2.0)
    with pytest.raises(UsageError):
        pd_compare(ModelSpec.rem(), cloud, beta=SQRT_2LOG2, replicas=10, seed=0)


def test_pd_compare_rem_matches_pd_band():
    beta = 2 * SQRT_2LOG2
    cloud = experiment_cloud(64, 12.0, seed=3)
    rep = pd_compare(ModelSpec.rem(), cloud, beta, replicas=150, seed=3)
    assert rep.m_pd == pytest.approx(0.5, abs=1e-15)
    assert rep.pd_w2 == 0.5 and rep.pd_w3 == 0.375
    # finite-size values sit above the limit but within a generous window
    assert 0.40 <= rep.sum_w2 <= 0.65
    assert 0.28 <= rep.sum_w3 <= 0.55
    assert rep.sum_w2_stderr < 0.03
