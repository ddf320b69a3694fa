import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, roots_legendre

from remlab.core import LOG2
from remlab.errors import NumericalError, UsageError
from remlab.models import ModelSpec
from remlab.pointproc import SQRT_2LOG2, BorelWindow, CountVector, Normalization, factorial_moment
from remlab.pipeline import count_replicas, experiment_cloud
from remlab.theory import (
    SK_EPS_MAX,
    gaussian_joint_window_prob,
    intensity_mu,
    limit_constant,
    log_marginal_window_prob,
    marginal_window_prob,
    semianalytic_moment,
    semianalytic_pair_ratio,
    semianalytic_third_moment,
)

W01 = BorelWindow.single(0.0, 1.0)


# ------------------------------------------------------------------- intensity


def test_intensity_mu_window_01():
    # closed form, cross-checked by adaptive quadrature
    val = intensity_mu(W01)
    quad, _ = integrate.quad(
        lambda t: math.exp(-t * SQRT_2LOG2) / math.sqrt(math.pi), 0.0, 1.0,
        epsabs=1e-14,
    )
    assert val == pytest.approx(0.331555297720402, abs=1e-12)
    assert val == pytest.approx(quad, abs=1e-10)


def test_intensity_mu_shift_identity():
    left = intensity_mu(BorelWindow.single(-1.0, 0.0))
    assert left == pytest.approx(math.exp(SQRT_2LOG2) * intensity_mu(W01), rel=1e-12)
    assert left == pytest.approx(1.0762140249084555, abs=1e-12)


def test_intensity_mu_additive_over_intervals():
    w = BorelWindow(intervals=((-1.0, 0.0), (0.5, 2.0)))
    expected = intensity_mu(BorelWindow.single(-1.0, 0.0)) + intensity_mu(
        BorelWindow.single(0.5, 2.0)
    )
    assert intensity_mu(w) == pytest.approx(expected, rel=1e-14)


def test_unbounded_window_rejected():
    with pytest.raises(UsageError):
        BorelWindow.single(0.0, math.inf)


# ------------------------------------------------- joint window probabilities


def _oracle_conditional(cov, lo, hi, nodes=220, lead=None):
    """Independent route: exact normal CDF for the last coordinate on
    [lo, hi], conditioned on a fine tensor rule over the leading block on
    ``lead`` (default [lo, hi])."""
    cov = np.asarray(cov, dtype=float)
    ell = cov.shape[0]
    lead_lo, lead_hi = (lo, hi) if lead is None else lead
    x, wt = roots_legendre(nodes)
    x = lead_lo + (lead_hi - lead_lo) * (x + 1) / 2
    wt = wt * (lead_hi - lead_lo) / 2
    if ell == 2:
        pts = x[None, :]
        dens = np.exp(-0.5 * pts[0] ** 2) / math.sqrt(2 * math.pi)
        weight = wt
    else:
        b2 = cov[:2, :2]
        ib2 = np.linalg.inv(b2)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([x1.ravel(), x2.ravel()])
        dens = np.exp(-0.5 * np.einsum("ip,ij,jp->p", pts, ib2, pts)) / (
            2 * math.pi * math.sqrt(np.linalg.det(b2))
        )
        weight = (wt[:, None] * wt[None, :]).ravel()
    sig = cov[ell - 1, : ell - 1]
    lead = np.linalg.inv(cov[: ell - 1, : ell - 1])
    cmean = sig @ lead @ pts
    cstd = math.sqrt(cov[ell - 1, ell - 1] - sig @ lead @ sig)
    inner = ndtr((hi - cmean) / cstd) - ndtr((lo - cmean) / cstd)
    return float(np.sum(weight * dens * inner))


def test_joint_prob_ell1_matches_error_function():
    for m in (4.0, 16.0):
        norm = Normalization(m)
        mine = gaussian_joint_window_prob(np.eye(1), norm, W01)
        exact = ndtr(norm.a_n + norm.b_n) - ndtr(norm.a_n)
        assert mine == pytest.approx(exact, rel=1e-8)


def test_joint_prob_independence_factorization():
    norm = Normalization(16.0)
    p1 = gaussian_joint_window_prob(np.eye(1), norm, W01)
    p2 = gaussian_joint_window_prob(np.eye(2), norm, W01)
    p3 = gaussian_joint_window_prob(np.eye(3), norm, W01)
    assert p2 == pytest.approx(p1**2, rel=1e-10)
    assert p3 == pytest.approx(p1**3, rel=1e-10)


def test_joint_prob_near_perfect_correlation():
    norm = Normalization(16.0)
    b = 1.0 - 1e-9
    cov = np.array([[1.0, b], [b, 1.0]])
    p1 = gaussian_joint_window_prob(np.eye(1), norm, W01)
    assert gaussian_joint_window_prob(cov, norm, W01) == pytest.approx(p1, rel=1e-3)


def test_joint_prob_determinant_guard():
    norm = Normalization(4.0)
    b = 1.0 - 1e-13
    with pytest.raises(NumericalError):
        gaussian_joint_window_prob(np.array([[1.0, b], [b, 1.0]]), norm, W01)
    with pytest.raises(UsageError):
        gaussian_joint_window_prob(np.array([[1.0, 0.5], [0.4, 1.0]]), norm, W01)


def test_joint_prob_against_conditional_oracle():
    rng = np.random.default_rng(0)
    for m in (2.0, 6.0):
        norm = Normalization(m)
        lo, hi = norm.a_n, norm.a_n + norm.b_n
        for _ in range(4):
            r = rng.uniform(-0.55, 0.75, size=3)
            cov = np.array([
                [1.0, r[0], r[2]],
                [r[0], 1.0, r[1]],
                [r[2], r[1], 1.0],
            ])
            if np.linalg.det(cov) < 1e-3:
                continue
            mine = gaussian_joint_window_prob(cov, norm, W01)
            assert mine == pytest.approx(_oracle_conditional(cov, lo, hi), rel=1e-10)
        b = float(rng.uniform(-0.8, 0.8))
        cov2 = np.array([[1.0, b], [b, 1.0]])
        mine2 = gaussian_joint_window_prob(cov2, norm, W01)
        assert mine2 == pytest.approx(_oracle_conditional(cov2, lo, hi), rel=1e-10)


def test_joint_prob_node_doubling():
    norm = Normalization(6.0)
    cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.1], [0.2, -0.1, 1.0]])
    p40 = gaussian_joint_window_prob(cov, norm, W01, nodes=40)
    p80 = gaussian_joint_window_prob(cov, norm, W01, nodes=80)
    assert abs(p80 / p40 - 1.0) < 1e-9
    b40 = gaussian_joint_window_prob(np.array([[1, 0.6], [0.6, 1]]), norm, W01, nodes=40)
    b80 = gaussian_joint_window_prob(np.array([[1, 0.6], [0.6, 1]]), norm, W01, nodes=80)
    assert abs(b80 / b40 - 1.0) < 1e-9


def test_inverse_identity_pair():
    # 2 - (1, B^-1 1) = 2 b / (1 + b), exactly
    for b in np.linspace(-0.95, 0.95, 39):
        cov = np.array([[1.0, b], [b, 1.0]])
        s = float(np.ones(2) @ np.linalg.inv(cov) @ np.ones(2))
        assert 2.0 - s == pytest.approx(2.0 * b / (1.0 + b), abs=1e-11)


# ------------------------------------------------------- semi-analytic moments


def test_semianalytic_first_moment_is_model_free():
    w = W01
    n, m = 100, 10.0
    vals = {
        semianalytic_moment(spec, n, m, w, 1)
        for spec in (ModelSpec.rem(), ModelSpec.npp(), ModelSpec.sk(), ModelSpec.pure(3))
    }
    assert max(vals) - min(vals) < 1e-14
    assert vals.pop() == pytest.approx(
        2.0**m * marginal_window_prob(Normalization(m), w), rel=1e-12
    )


def test_semianalytic_rem_pair_identity():
    # independent energies: m2 = (2^2m - 2^(2m-n)) P1^2 exactly
    n, m = 30, 8.0
    p1 = marginal_window_prob(Normalization(m), W01)
    m2 = semianalytic_moment(ModelSpec.rem(), n, m, W01, 2)
    assert m2 == pytest.approx((2.0 ** (2 * m) - 2.0 ** (2 * m - n)) * p1**2, rel=1e-12)


def test_semianalytic_rem_triple_identity():
    n, m = 20, 5.0
    p1 = marginal_window_prob(Normalization(m), W01)
    m3 = semianalytic_third_moment(ModelSpec.rem(), n, m, W01)
    exact = (2.0**n) * (2.0**n - 1) * (2.0**n - 2) * (2.0 ** (m - n)) ** 3 * p1**3
    assert m3 == pytest.approx(exact, rel=1e-12)


def test_semianalytic_third_moment_against_independent_assembly():
    # same grid, independently assembled from the verified triple census and
    # the conditional-CDF probability oracle. At m = 2.5 the window [-3, -1)
    # contains -a_n/b_n, so it overlaps its own reflection under H -> -H,
    # which is where an antipodal NPP pair (nu(-1) = -1) confines its energy
    from remlab.combinatorics import brute_force_triple_census

    n, m = 6, 2.5
    norm = Normalization(m)
    census = brute_force_triple_census(n)
    for spec in (ModelSpec.sk(), ModelSpec.npp()):
        for x_window in ((0.0, 1.0), (-3.0, -1.0)):
            lo, hi = (norm.a_n + norm.b_n * x for x in x_window)
            total = 0.0
            for (r12, r23, r31), cnt in census.items():
                if max(r12, r23, r31) >= 1 - 1e-12:
                    continue  # coincident pair: not a distinct triple
                if min(r12, r23, r31) <= -1 + 1e-12:
                    # antipodal pair: its second energy is nu(-1) times the
                    # first, so one endpoint stays, on A or on A and -A
                    r_s = next(r for r in (r12, r23, r31) if r > -1 + 1e-12)
                    lead = (lo, hi) if spec.nu(-1.0) > 0 else (max(lo, -hi), min(hi, -lo))
                    if lead[0] >= lead[1]:
                        continue
                    b = float(spec.nu(r_s))
                    cov2 = np.array([[1.0, b], [b, 1.0]])
                    val = _oracle_conditional(cov2, lo, hi, lead=lead)
                else:
                    b12, b23, b31 = (float(spec.nu(r)) for r in (r12, r23, r31))
                    cov = np.array([[1.0, b12, b31], [b12, 1.0, b23], [b31, b23, 1.0]])
                    val = _oracle_conditional(cov, lo, hi)
                total += cnt * 2.0 ** (3 * (m - n)) * val
            engine = semianalytic_third_moment(spec, n, m, BorelWindow.single(*x_window))
            assert engine == pytest.approx(total, rel=1e-10), (spec.tag, x_window)


def test_semianalytic_fixed_m_convergence_scan():
    # SK at fixed m = 10: the pair moment relaxes toward the independent
    # value (2^m P1)^2 as n grows, which itself sits within 10% of mu(A)^2
    spec = ModelSpec.sk()
    m = 10.0
    m1sq = semianalytic_moment(spec, 500, m, W01, 1) ** 2
    vals = [semianalytic_moment(spec, n, m, W01, 2) for n in (500, 1000, 2000)]
    assert vals[0] > vals[1] > vals[2] > m1sq
    assert vals[2] / m1sq == pytest.approx(1.0, abs=0.01)
    assert m1sq / intensity_mu(W01) ** 2 == pytest.approx(1.0, abs=0.1)


def test_semianalytic_ratio_monotone_in_m():
    # the normalized second-moment sum grows with the cloud exponent
    for spec in (ModelSpec.sk(), ModelSpec.npp()):
        vals = [semianalytic_pair_ratio(spec, 200, float(m), W01) for m in (4, 8, 12)]
        assert vals[0] <= vals[1] <= vals[2]


def test_semianalytic_preconditions():
    with pytest.raises(UsageError):
        semianalytic_moment(ModelSpec.sk(), 5000, 10.0, W01, 2)
    with pytest.raises(UsageError):
        semianalytic_moment(ModelSpec.npp(coupling="uniform"), 100, 10.0, W01, 2)
    with pytest.raises(UsageError):
        semianalytic_third_moment(ModelSpec.sk(), 100, 10.0, W01)


def test_semianalytic_third_moment_mc_cross_validation():
    # annealed disorder so the cloud average matches the reference
    w = W01
    for spec in (ModelSpec.sk(), ModelSpec.npp()):
        cloud = experiment_cloud(24, 6.0, seed=2)
        counts, _ = count_replicas(
            spec, cloud, Normalization(6.0), [w], 2, 120_000, mode="annealed"
        )
        rep = factorial_moment(CountVector(counts[:, 0]), 3)
        ref = semianalytic_third_moment(spec, 24, 6.0, w)
        assert abs(rep.estimate - ref) <= 3 * rep.stderr, (spec.tag, rep, ref)


def test_sk_bulk_third_moment_factorization_scale():
    # weak-correlation sanity: the third moment stays within tens of percent
    # of (first moment)^3 when m/n is small
    m3 = semianalytic_third_moment(ModelSpec.sk(), 60, 3.0, W01)
    m1 = semianalytic_moment(ModelSpec.sk(), 60, 3.0, W01, 1)
    assert 1.0 <= m3 / m1**3 <= 1.3


# --------------------------------------------------------------- limit values


def test_limit_constants_gaussian():
    assert limit_constant("sk", "linear", 0.1, 2).value == pytest.approx(
        1.1762743192044305, rel=1e-12
    )
    assert limit_constant("npp", "sqrt", 1.0, 2).value == pytest.approx(
        2.614063815405198, rel=1e-12
    )
    for model, scaling in (("sk", "linear"), ("npp", "sqrt"), ("pspin", "linear")):
        assert limit_constant(model, scaling, 0.0, 2).value == 1.0
    assert limit_constant("pspin", "linear", 0.1, 2).value == 1.0
    assert limit_constant("rem", "sqrt", 3.0, 2).value == 1.0


def test_limit_constants_nongaussian():
    # ratio forms with the quartic-cumulant correction
    assert limit_constant("npp", "sqrt", 1.0, 2, c4=0.05).value == pytest.approx(
        math.exp(2 * LOG2**2 * (1 - 12 * 0.05)), rel=1e-12
    )
    assert limit_constant("npp", "sqrt", 1.0, 2, c4=-0.125).value == pytest.approx(
        math.exp(2 * LOG2**2 * (1 + 12 * 0.125)), rel=1e-12
    )
    assert limit_constant("sk", "linear", 0.1, 2, c4=0.05).value == pytest.approx(
        math.exp(-24 * 0.05 * 0.01 * LOG2**2) / math.sqrt(1 - 0.4 * LOG2), rel=1e-12
    )
    assert limit_constant("npp", "sqrt", 1.0, 1, c4=0.05).value == pytest.approx(
        math.exp(-4 * 0.05 * LOG2**2), rel=1e-12
    )


def test_limit_constants_domain():
    with pytest.raises(UsageError):
        limit_constant("sk", "linear", SK_EPS_MAX, 2)
    with pytest.raises(UsageError):
        limit_constant("sk", "sqrt", 0.1, 2)
    with pytest.raises(UsageError):
        limit_constant("npp", "sqrt", 1.0, 3)
    with pytest.raises(UsageError):
        limit_constant("pspin", "linear", 0.1, 2, c4=0.05)
    limit_constant("sk", "linear", SK_EPS_MAX - 1e-9, 2)


def test_limit_ratio_always_at_least_one():
    for eps in (0.0, 0.05, 0.1, 0.17):
        for c4 in (0.0, 0.05, -0.125):
            assert limit_constant("sk", "linear", eps, 2, c4=c4).value >= 1.0 - 1e-12
    for eps in (0.0, 0.5, 1.0, 2.0):
        for c4 in (0.0, 0.05, -0.125):
            assert limit_constant("npp", "sqrt", eps, 2, c4=c4).value >= 1.0 - 1e-12


def test_log_marginal_matches_marginal():
    norm = Normalization(80.0)
    # far tail: the log form stays finite and consistent
    lp = log_marginal_window_prob(norm, W01)
    assert lp < -50.0
    assert math.exp(lp) == pytest.approx(marginal_window_prob(norm, W01), rel=1e-12)
