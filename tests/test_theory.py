import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import log_ndtr, logsumexp, ndtr, roots_legendre

from remlab import theory
from remlab.combinatorics import triple_grid
from remlab.core import LOG2
from remlab.errors import NumericalError, UsageError
from remlab.models import ModelSpec
from remlab.pointproc import (
    SQRT_2LOG2,
    BorelWindow,
    CountVector,
    Normalization,
    factorial_moment,
    intensity_mu,
)
from remlab.pipeline import count_replicas, experiment_cloud
from remlab.theory import (
    SK_EPS_MAX,
    _cov,
    _log_pair_probs,
    _log_triple_probs,
    _sum_exp,
    _triple_degenerate,
    conditional_pair_moments,
    limit_constant,
    limit_factors,
    log_marginal_window_prob,
    marginal_window_prob,
    semianalytic_moment,
    semianalytic_pair_ratio,
    semianalytic_third_moment,
    simulate_references,
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


def _pair_prob(b, norm, window=W01, nodes=40):
    return math.exp(_log_pair_probs(b, norm, window.intervals, window.intervals, nodes)[0])


def _triple_prob(b12, b23, b31, norm, window=W01, nodes=40):
    return math.exp(_log_triple_probs(b12, b23, b31, norm, window, nodes)[0])


def test_joint_prob_ell1_matches_error_function():
    for m in (4.0, 16.0):
        norm = Normalization(m)
        mine = marginal_window_prob(norm, W01)
        exact = ndtr(norm.a_n + norm.b_n) - ndtr(norm.a_n)
        assert mine == pytest.approx(exact, rel=1e-8)


def test_joint_prob_independence_factorization():
    norm = Normalization(16.0)
    p1 = marginal_window_prob(norm, W01)
    p2 = _pair_prob(0.0, norm)
    p3 = _triple_prob(0.0, 0.0, 0.0, norm)
    assert p2 == pytest.approx(p1**2, rel=1e-10)
    assert p3 == pytest.approx(p1**3, rel=1e-10)


def test_joint_prob_near_perfect_correlation():
    norm = Normalization(16.0)
    p1 = marginal_window_prob(norm, W01)
    assert _pair_prob(1.0 - 1e-9, norm) == pytest.approx(p1, rel=1e-3)


def test_joint_prob_determinant_guard():
    # no pair is near +-1, yet the triple covariance is singular
    b12, b23, b31 = 0.6, 0.6, -0.28
    assert not _triple_degenerate(b12, b23, b31).any()
    assert abs(1.0 + 2.0 * b12 * b23 * b31 - b12**2 - b23**2 - b31**2) < 1e-12
    with pytest.raises(NumericalError, match="determinant"):
        _log_triple_probs(b12, b23, b31, Normalization(4.0), W01)


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
            mine = _triple_prob(r[0], r[1], r[2], norm)
            assert mine == pytest.approx(_oracle_conditional(cov, lo, hi), rel=1e-10)
        b = float(rng.uniform(-0.8, 0.8))
        cov2 = np.array([[1.0, b], [b, 1.0]])
        mine2 = _pair_prob(b, norm)
        assert mine2 == pytest.approx(_oracle_conditional(cov2, lo, hi), rel=1e-10)


def test_joint_prob_node_doubling():
    norm = Normalization(6.0)
    # the covariance [[1, 0.5, 0.2], [0.5, 1, -0.1], [0.2, -0.1, 1]]
    p40 = _triple_prob(0.5, -0.1, 0.2, norm, nodes=40)
    p80 = _triple_prob(0.5, -0.1, 0.2, norm, nodes=80)
    assert abs(p80 / p40 - 1.0) < 1e-9
    b40 = _pair_prob(0.6, norm, nodes=40)
    b80 = _pair_prob(0.6, norm, nodes=80)
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
            assert engine == pytest.approx(total, rel=1e-10), (spec, x_window)


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


def _simulate_refs(spec, n=12, m=4.0, quenched=True, max_ell=3):
    cloud = experiment_cloud(n, m, seed=1)
    windows = [W01, W_TWO]
    refs = simulate_references(spec, cloud, Normalization(m), windows, n, quenched, max_ell)
    assert len(refs) == len(windows)
    return cloud, refs


def test_simulate_references_of_a_quenched_gaussian_run():
    spec = ModelSpec.sk()
    cloud, refs = _simulate_refs(spec)
    conditional = conditional_pair_moments(spec, cloud, Normalization(4.0), [W01, W_TWO])
    for (annealed, cond), window, pair in zip(refs, (W01, W_TWO), conditional):
        assert annealed == {1: semianalytic_moment(spec, 12, 4.0, window, 1),
                            2: semianalytic_moment(spec, 12, 4.0, window, 2),
                            3: semianalytic_third_moment(spec, 12, 4.0, window)}
        assert cond == {1: pair[0], 2: pair[1]}


def test_simulate_references_leave_out_what_the_run_does_not_cover():
    # a non-Gaussian coupling gets none, an annealed run no conditional moments
    assert _simulate_refs(ModelSpec.sk(coupling="laplace"))[1] == [({}, {}), ({}, {})]
    for annealed, cond in _simulate_refs(ModelSpec.npp(), quenched=False)[1]:
        assert sorted(annealed) == [1, 2, 3] and cond == {}
    # the third moment needs n <= 32 and max_ell = 3
    for kwargs in ({"n": 33}, {"max_ell": 2}):
        for annealed, cond in _simulate_refs(ModelSpec.sk(), **kwargs)[1]:
            assert sorted(annealed) == [1, 2] and sorted(cond) == [1, 2]


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
        assert abs(rep.estimate - ref) <= 3 * rep.stderr, (spec, rep, ref)


def test_sk_bulk_third_moment_factorization_scale():
    # weak-correlation sanity: the third moment stays within tens of percent
    # of (first moment)^3 when m/n is small
    m3 = semianalytic_third_moment(ModelSpec.sk(), 60, 3.0, W01)
    m1 = semianalytic_moment(ModelSpec.sk(), 60, 3.0, W01, 1)
    assert 1.0 <= m3 / m1**3 <= 1.3


W_TWO = BorelWindow(((-1.0, 0.0), (0.5, 2.0)))


@pytest.mark.parametrize("spec, n, m, window", [
    (ModelSpec.sk(), 24, 6.0, W01),
    # sorting each covariance triple before merging moves this one by 3 ulp
    (ModelSpec.npp(), 12, 7.0, W01),
    (ModelSpec.npp(), 12, 2.5, W_TWO),
    (ModelSpec.pure(3), 16, 4.0, W01),
], ids=["sk-24", "npp-12", "npp-12-two-intervals", "pspin3-16"])
def test_third_moment_merging_covariance_triples_keeps_the_bits(spec, n, m, window):
    # the sum as assembled from one kernel value per grid row, regular rows
    # first and degenerate rows last, each in grid order
    r12, r23, r31, log_count, distinct = triple_grid(n)
    b12, b23, b31 = _cov(spec, r12), _cov(spec, r23), _cov(spec, r31)
    idx = np.nonzero(distinct)[0]
    idx = idx[np.argsort(_triple_degenerate(b12[idx], b23[idx], b31[idx]), kind="stable")]
    logp = _log_triple_probs(b12[idx], b23[idx], b31[idx], Normalization(m), window)
    every_row = _sum_exp(log_count[idx] + 3.0 * (m - n) * LOG2 + logp)
    assert semianalytic_third_moment(spec, n, m, window).hex() == every_row.hex()


def test_third_moment_evaluates_each_covariance_triple_once(monkeypatch):
    spec, n = ModelSpec.sk(), 40
    batches = []

    def spy(b12, *args, **kwargs):
        batches.append(len(b12))
        return _log_triple_probs(b12, *args, **kwargs)

    monkeypatch.setattr(theory, "_log_triple_probs", spy)
    semianalytic_third_moment(spec, n, 3.0, W01)
    r12, r23, r31, _, distinct = triple_grid(n)
    triples = {tuple(float(spec.nu(r)) for r in row)
               for row in zip(r12[distinct], r23[distinct], r31[distinct])}
    # nu(r) = r^2 merges 12 220 grid rows into 2 485 covariance triples
    assert batches == [len(triples)]
    assert len(triples) < np.count_nonzero(distinct)


# --------------------------------------------------------------- limit values


def test_limit_constants_gaussian():
    assert limit_constant("sk", "linear", 0.1, 2) == pytest.approx(
        1.1762743192044305, rel=1e-12
    )
    assert limit_constant("npp", "sqrt", 1.0, 2) == pytest.approx(
        2.614063815405198, rel=1e-12
    )
    for model, scaling in (("sk", "linear"), ("npp", "sqrt"), ("pspin", "linear")):
        assert limit_constant(model, scaling, 0.0, 2) == 1.0
    assert limit_constant("pspin", "linear", 0.1, 2) == 1.0
    assert limit_constant("rem", "sqrt", 3.0, 2) == 1.0


def test_limit_constants_nongaussian():
    # ratio forms with the quartic-cumulant correction
    assert limit_constant("npp", "sqrt", 1.0, 2, c4=0.05) == pytest.approx(
        math.exp(2 * LOG2**2 * (1 - 12 * 0.05)), rel=1e-12
    )
    assert limit_constant("npp", "sqrt", 1.0, 2, c4=-0.125) == pytest.approx(
        math.exp(2 * LOG2**2 * (1 + 12 * 0.125)), rel=1e-12
    )
    assert limit_constant("sk", "linear", 0.1, 2, c4=0.05) == pytest.approx(
        math.exp(-24 * 0.05 * 0.01 * LOG2**2) / math.sqrt(1 - 0.4 * LOG2), rel=1e-12
    )
    assert limit_constant("npp", "sqrt", 1.0, 1, c4=0.05) == pytest.approx(
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
            assert limit_constant("sk", "linear", eps, 2, c4=c4) >= 1.0 - 1e-12
    for eps in (0.0, 0.5, 1.0, 2.0):
        for c4 in (0.0, 0.05, -0.125):
            assert limit_constant("npp", "sqrt", eps, 2, c4=c4) >= 1.0 - 1e-12


# float.hex() of limit_constant(model, scaling, eps, ell, c4) for ell = 1, 2,
# taken before the constants were computed from the spec's mixture weights
_LIMIT_PINS = {
    ("sk", 0.0, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("sk", 0.0, 0.05): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("sk", 0.0, -0.125): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("sk", 0.05, 0.0): ("0x1.0000000000000p+0", "0x1.13d50a986c3a9p+0"),
    ("sk", 0.05, 0.05): ("0x1.ffe0844ddafc3p-1", "0x1.136f56014b455p+0"),
    ("sk", 0.05, -0.125): ("0x1.00275edb2fcb5p+0", "0x1.14d3f27e55abdp+0"),
    ("sk", 0.1, 0.0): ("0x1.0000000000000p+0", "0x1.2d2050541b91dp+0"),
    ("sk", 0.1, 0.05): ("0x1.ff821cd484c9ap-1", "0x1.2b652510f3680p+0"),
    ("sk", 0.1, -0.125): ("0x1.009d9fc4b46efp+0", "0x1.317f7ab908cedp+0"),
    ("sk", 0.17, 0.0): ("0x1.0000000000000p+0", "0x1.6016a4637477ep+0"),
    ("sk", 0.17, 0.05): ("0x1.fe9483fcd4f8ap-1", "0x1.5a45405d8935bp+0"),
    ("sk", 0.17, -0.125): ("0x1.01c891daa3253p+0", "0x1.6f108599956b9p+0"),
    ("npp", 0.0, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("npp", 0.0, 0.05): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("npp", 0.0, -0.125): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("npp", 0.5, 0.0): ("0x1.0000000000000p+0", "0x1.45837513c59e1p+0"),
    ("npp", 0.5, 0.05): ("0x1.f3d8d2761f229p-1", "0x1.19d1e1e101872p+0"),
    ("npp", 0.5, -0.125): ("0x1.0fd875e9aefdep+0", "0x1.d2ba046f1eb54p+0"),
    ("npp", 1.0, 0.0): ("0x1.0000000000000p+0", "0x1.4e99a4a269415p+1"),
    ("npp", 1.0, 0.05): ("0x1.d117685526a8dp-1", "0x1.77fb4180e0bb7p+0"),
    ("npp", 1.0, -0.125): ("0x1.45837513c59e1p+0", "0x1.618aa1facae3ap+3"),
    ("npp", 2.0, 0.0): ("0x1.0000000000000p+0", "0x1.758e1e5c5a9ffp+5"),
    ("npp", 2.0, 0.05): ("0x1.5c9ce8c22e701p-1", "0x1.29c5fc3dc8756p+2"),
    ("npp", 2.0, -0.125): ("0x1.4e99a4a269415p+1", "0x1.d1994cae0da85p+13"),
    ("pspin", 0.1, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("rem", 3.0, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
}
_PIN_SCALING = {"sk": "linear", "npp": "sqrt", "pspin": "linear", "rem": "sqrt"}


@pytest.mark.parametrize("key", sorted(_LIMIT_PINS), ids=lambda k: "-".join(map(str, k)))
def test_limit_constant_bits_pinned(key):
    model, eps, c4 = key
    got = tuple(limit_constant(model, _PIN_SCALING[model], eps, ell, c4=c4).hex()
                for ell in (1, 2))
    assert got == _LIMIT_PINS[key]


def test_limit_factors_follow_the_run_scaling():
    sk, npp = ModelSpec.sk(), ModelSpec.npp()
    assert limit_factors(sk, "linear", 0.1) == (1.0, limit_constant("sk", "linear", 0.1, 2))
    assert limit_factors(npp, "sqrt", 1.0) == (1.0, limit_constant("npp", "sqrt", 1.0, 2))
    # off its theorem's scaling, SK tends to 1 and the NPP ratio diverges
    assert limit_factors(sk, "sqrt", 0.1) == (1.0, 1.0)
    assert limit_factors(npp, "linear", 0.05) is None
    assert limit_factors(sk, "linear", SK_EPS_MAX) is None
    assert limit_factors(ModelSpec.pure(3), "sqrt", 1.0) == (1.0, 1.0)
    for rule, eps in (("fixed", None), ("sqrt", 3.0), ("linear", 3.0)):
        assert limit_factors(ModelSpec.rem(), rule, eps) == (1.0, 1.0)
    assert limit_factors(npp, "fixed", None) == (1.0, 1.0)


def test_mixture_limit_factors_against_the_exact_ratio():
    # the leading-order mixture constants: (1, 0.6)+(2, 0.8) keeps
    # a1^2 = 0.36 at m = sqrt(n), (2, 0.8)+(3, 0.6) keeps a2^2 = 0.64 at
    # m = 0.1 n; the exact ratio on [0, 1) closes in on both
    rows = (
        (((1, 0.6), (2, 0.8)), "sqrt", 1.0, math.sqrt, (400, 1600, 4000),
         (1.148635, 1.138389, 1.135153), 1.132620),
        (((2, 0.8), (3, 0.6)), "linear", 0.1, float, (200, 800, 3200),
         (1.089788, 1.097889, 1.101046), 1.102599),
    )
    for mixture, rule, eps, scale, ns, expected, limit in rows:
        spec = ModelSpec(mixture=mixture)
        ratio = limit_factors(spec, rule, eps)[1]
        assert ratio == pytest.approx(limit, rel=1e-6)
        exact = [semianalytic_pair_ratio(spec, n, eps * scale(n), W01) for n in ns]
        assert exact == pytest.approx(expected, rel=1e-6)
        gaps = [abs(r / ratio - 1.0) for r in exact]
        assert gaps[0] > gaps[1] > gaps[2]


def test_limit_constant_rejects_impossible_c4():
    with pytest.raises(UsageError):
        limit_constant("npp", "sqrt", 1.0, 2, c4=0.1)


def _log_oracle_pair(norm, b, lo, hi, nodes=400):
    """log P(both normalized energies in [lo, hi)) at correlation b, by a
    Gauss-Legendre rule over the first energy and log_ndtr for the second."""
    low, up = norm.a_n + norm.b_n * lo, norm.a_n + norm.b_n * hi
    x, wt = roots_legendre(nodes)
    x = low + (up - low) * (x + 1) / 2
    wt = wt * (up - low) / 2
    s = math.sqrt(1.0 - b * b)
    tail_lo, tail_hi = log_ndtr((b * x - low) / s), log_ndtr((b * x - up) / s)
    terms = (np.log(wt) - 0.5 * x * x - 0.5 * math.log(2 * math.pi)
             + tail_lo + np.log1p(-np.exp(tail_hi - tail_lo)))
    return float(logsumexp(terms))


def test_pair_kernel_survives_exponent_overflow():
    # NPP overlaps near -1 on a window below the mean: exp() of the raw
    # exponent overflows, which used to drop the +inf pair term silently
    norm = Normalization(9.0)
    window = BorelWindow.single(-3.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in (300, 1000):
            assert math.isfinite(semianalytic_moment(ModelSpec.npp(), n, 9.0, window, 2))
        b = -298.0 / 300.0
        logp = _log_pair_probs(np.array([b]), norm, window.intervals, window.intervals)[0]
    assert logp == pytest.approx(_log_oracle_pair(norm, b, -3.0, -1.0), rel=1e-12)
    assert logp == pytest.approx(-670.27, abs=0.01)


def test_sum_exp_drops_only_underflow():
    assert _sum_exp(np.array([-math.inf, 0.0])) == 1.0
    assert _sum_exp(np.array([-math.inf])) == 0.0
    for bad in (math.inf, math.nan):
        with pytest.raises(NumericalError):
            _sum_exp(np.array([0.0, bad]))


def test_log_marginal_matches_marginal():
    norm = Normalization(80.0)
    # far tail: the log form stays finite and consistent
    lp = log_marginal_window_prob(norm, W01)
    assert lp < -50.0
    assert math.exp(lp) == pytest.approx(marginal_window_prob(norm, W01), rel=1e-12)
