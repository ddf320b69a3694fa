"""Reference values: intensity mu, exact finite-n factorial moments, limit constants.

Every finite-n moment is one sum over an overlap histogram: a log-count per
overlap value (or triple), the overlaps mapped through the model's covariance
nu, and one Gaussian window probability per entry from a single kernel,
``_log_pair_probs`` for pairs and ``_log_triple_probs`` for triples. The
histograms are the exact binomial pair counts (annealed second moment), the
pair census of a realized cloud (quenched conditional moments) and the signed
triple grid (annealed third moment). The terms are combined by a log-sum.

Everything runs in log space: the huge exp(-a_n^2 * s / 2) factor of the
joint density is carried symbolically, and only the bounded window integral
is evaluated by tensor Gauss-Legendre quadrature. Covariances within
``_DEGENERATE_BAND`` of +-1 are exact linear dependences that the tensor rule
cannot resolve; the kernels eliminate the dependent energy instead (on the
window reflected under H -> -H when the pair is anticorrelated). The grid
sums are capped at n <= ``_SEMIANALYTIC_MAX_N`` for pairs and
n <= ``_THIRD_MOMENT_MAX_N`` for triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, logsumexp, roots_legendre

from .core import LOG2
from .errors import NumericalError, UsageError
from .models import ModelSpec
from .pointproc import BorelWindow, Normalization, _mu_mass

# Gauss-Legendre resolution per interval per dimension. The integrands are
# analytic on bounded windows; doubling the node count must move results by
# less than 1e-9 (asserted in the tests).
QUAD_NODES = 40

# |cov| entries this close to 1 are treated as exact linear dependence and
# reduced analytically; tensor quadrature cannot resolve the near-singular
# ridge, and the reduction error is O(sqrt(1 - |b|)).
_DEGENERATE_BAND = 1e-6

_MIN_DET = 1e-12

_SEMIANALYTIC_MAX_N = 4000
_THIRD_MOMENT_MAX_N = 60

SK_EPS_MAX = 1.0 / (8.0 * LOG2)


def intensity_mu(window: BorelWindow) -> float:
    """Mass of mu(dt) = pi^(-1/2) exp(-t sqrt(2 log 2)) dt on the window."""
    return sum(_mu_mass(lo, hi) for lo, hi in window.intervals)


@lru_cache(maxsize=32)
def _interval_rule(lo: float, hi: float, nodes: int) -> tuple:
    x, w = roots_legendre(nodes)
    half = 0.5 * (hi - lo)
    return (lo + half * (x + 1.0), half * w)


def _window_rule(intervals, nodes: int) -> tuple:
    xs, ws = [], []
    for lo, hi in intervals:
        x, w = _interval_rule(lo, hi, nodes)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def log_marginal_window_prob(norm: Normalization, window: BorelWindow,
                             nodes: int = QUAD_NODES) -> float:
    """log P(H' in window) for one standard-normal energy."""
    x, w = _window_rule(window.intervals, nodes)
    a, b = norm.a_n, norm.b_n
    integral = float(np.sum(w * np.exp(-0.5 * b * b * x * x - a * b * x)))
    return math.log(b) - 0.5 * math.log(2.0 * math.pi) - 0.5 * a * a + math.log(integral)


def marginal_window_prob(norm: Normalization, window: BorelWindow) -> float:
    return math.exp(log_marginal_window_prob(norm, window))


def _intersect_intervals(a, b) -> list:
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return sorted(out)


def _reflect_raw(win, norm: Normalization) -> list:
    """x-image of a window under H -> -H: x maps to -2 a/b - x."""
    shift = -2.0 * norm.a_n / norm.b_n
    return sorted((shift - hi, shift - lo) for lo, hi in win)


def _in_band(b) -> np.ndarray:
    return np.abs(b) >= 1.0 - _DEGENERATE_BAND


def _cov(spec: ModelSpec, r) -> np.ndarray:
    """Energy covariances nu(r) at signed overlaps r (odd mixtures need the sign)."""
    return np.atleast_1d(np.asarray(spec.nu(r), dtype=float))


def _log_pair_probs(b, norm: Normalization, win1, win2,
                    nodes: int = QUAD_NODES) -> np.ndarray:
    """log P(H'_1 in win1, H'_2 in win2) for a batch of correlations b.

    Regular entries use the closed 2x2 inverse: (1,B^-1 1) = 2/(1+b),
    quadratic form (x1^2 + x2^2 - 2 b x1 x2)/(1 - b^2). Entries in the
    degenerate band collapse to one energy on win1 intersected with win2,
    reflected when b < 0. Empty windows give -inf.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    out = np.full(len(b), -math.inf)
    if not win1 or not win2:
        return out
    degenerate = _in_band(b)
    for i in np.nonzero(degenerate)[0]:
        common = _intersect_intervals(win1, win2 if b[i] > 0 else _reflect_raw(win2, norm))
        if common:
            out[i] = log_marginal_window_prob(norm, BorelWindow(tuple(common)), nodes)

    bs = b[~degenerate]
    x1, w1 = _window_rule(win1, nodes)
    x2, w2 = _window_rule(win2, nodes)
    a, bn = norm.a_n, norm.b_n
    sq = (x1[:, None] ** 2 + x2[None, :] ** 2).ravel()
    cross = (x1[:, None] * x2[None, :]).ravel()
    lin = (x1[:, None] + x2[None, :]).ravel()
    ww = (w1[:, None] * w2[None, :]).ravel()
    regular = np.empty(len(bs))
    chunk = 512
    for start in range(0, len(bs), chunk):
        bc = bs[start : start + chunk][:, None]
        expo = (
            -0.5 * bn * bn / (1.0 - bc * bc) * sq[None, :]
            + bn * bn * bc / (1.0 - bc * bc) * cross[None, :]
            - a * bn / (1.0 + bc) * lin[None, :]
        )
        integral = np.exp(expo) @ ww
        bflat = bc[:, 0]
        with np.errstate(divide="ignore"):  # integral underflow -> -inf term
            regular[start : start + chunk] = (
                2.0 * math.log(bn)
                - math.log(2.0 * math.pi)
                - 0.5 * np.log1p(-bflat * bflat)
                - a * a / (1.0 + bflat)
                + np.log(integral)
            )
    out[~degenerate] = regular
    return out


def _triple_inverse_parts(b12, b23, b31):
    det = 1.0 + 2.0 * b12 * b23 * b31 - b12**2 - b23**2 - b31**2
    i11 = (1.0 - b23**2) / det
    i22 = (1.0 - b31**2) / det
    i33 = (1.0 - b12**2) / det
    i12 = (b23 * b31 - b12) / det
    i13 = (b12 * b23 - b31) / det
    i23 = (b12 * b31 - b23) / det
    return det, i11, i22, i33, i12, i13, i23


def _triple_degenerate(b12, b23, b31) -> np.ndarray:
    return _in_band(b12) | _in_band(b23) | _in_band(b31)


def _log_triple_probs(b12, b23, b31, norm: Normalization, window: BorelWindow,
                      nodes: int = QUAD_NODES) -> np.ndarray:
    """log P(all three H' in window) for batches of covariance triples.

    When some pair is perfectly (anti)correlated, its second coordinate is
    eliminated: an anticorrelated pair constrains the survivor to the
    intersection with the reflected window, and a pair probability remains.
    """
    b12, b23, b31 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (b12, b23, b31))
    degenerate = _triple_degenerate(b12, b23, b31)
    out = np.empty(len(b12))
    win = window.intervals
    for t in np.nonzero(degenerate)[0]:
        pairs = {(0, 1): b12[t], (1, 2): b23[t], (0, 2): b31[t]}
        (i, j), b = next((ij, b) for ij, b in pairs.items() if _in_band(b))
        k = 3 - i - j
        win_i = win if b > 0 else _intersect_intervals(win, _reflect_raw(win, norm))
        out[t] = _log_pair_probs(pairs[(min(i, k), max(i, k))], norm, win_i, win, nodes)[0]

    x, w = _window_rule(win, nodes)
    a, bn = norm.a_n, norm.b_n
    x1 = x[:, None, None]
    x2 = x[None, :, None]
    x3 = x[None, None, :]
    basis = np.stack(
        [
            (x1 * x1 + 0 * x2 + 0 * x3).ravel(),
            (0 * x1 + x2 * x2 + 0 * x3).ravel(),
            (0 * x1 + 0 * x2 + x3 * x3).ravel(),
            (x1 * x2 + 0 * x3).ravel(),
            (x1 * x3 + 0 * x2).ravel(),
            (x2 * x3 + 0 * x1).ravel(),
            (x1 + 0 * x2 + 0 * x3).ravel(),
            (0 * x1 + x2 + 0 * x3).ravel(),
            (0 * x1 + 0 * x2 + x3).ravel(),
        ]
    )
    ww = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()

    regular = ~degenerate
    det, i11, i22, i33, i12, i13, i23 = _triple_inverse_parts(
        b12[regular], b23[regular], b31[regular]
    )
    if np.any(det < _MIN_DET):
        raise NumericalError("triple covariance determinant below 1e-12")
    l1 = i11 + i12 + i13
    l2 = i12 + i22 + i23
    l3 = i13 + i23 + i33
    s = l1 + l2 + l3
    coeffs = np.stack(
        [
            -0.5 * bn * bn * i11,
            -0.5 * bn * bn * i22,
            -0.5 * bn * bn * i33,
            -bn * bn * i12,
            -bn * bn * i13,
            -bn * bn * i23,
            -a * bn * l1,
            -a * bn * l2,
            -a * bn * l3,
        ],
        axis=1,
    )
    logp = np.empty(len(det))
    chunk = 128
    with np.errstate(divide="ignore"):  # integral underflow -> -inf term
        for start in range(0, len(det), chunk):
            expo = coeffs[start : start + chunk] @ basis
            logp[start : start + chunk] = np.log(np.exp(expo) @ ww)
    logp += (
        3.0 * math.log(bn)
        - 1.5 * math.log(2.0 * math.pi)
        - 0.5 * np.log(det)
        - 0.5 * a * a * s
    )
    out[regular] = logp
    return out


def _sum_exp(log_terms: np.ndarray) -> float:
    """exp(logsumexp) over the finite terms; 0 when every term underflowed."""
    finite = log_terms[np.isfinite(log_terms)]
    return math.exp(float(logsumexp(finite))) if len(finite) else 0.0


def validate_cov(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise UsageError("covariance must be a square matrix")
    if cov.shape[0] not in (1, 2, 3):
        raise UsageError("joint window probabilities support ell in {1, 2, 3}")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise UsageError("covariance must be symmetric")
    if not np.allclose(np.diag(cov), 1.0, atol=1e-12):
        raise UsageError("covariance must have unit diagonal")
    return cov


def gaussian_joint_window_prob(cov, norm: Normalization, window: BorelWindow,
                               nodes: int = QUAD_NODES) -> float:
    """P(H'(sigma^1) in A, ..., H'(sigma^ell) in A) for centered unit-variance
    Gaussians with covariance cov, via tensor-product quadrature of the
    explicit joint density.

    Entries within 1e-6 of +-1 are contracted as exact linear dependences.
    """
    cov = validate_cov(cov)
    ell = cov.shape[0]
    det = float(np.linalg.det(cov))
    if det < _MIN_DET:
        raise NumericalError(f"covariance determinant {det:.3e} below {_MIN_DET:g}")
    if ell == 1:
        return math.exp(log_marginal_window_prob(norm, window, nodes))
    if ell == 2:
        win = window.intervals
        return math.exp(float(_log_pair_probs(cov[0, 1], norm, win, win, nodes)[0]))
    return math.exp(float(_log_triple_probs(cov[0, 1], cov[1, 2], cov[0, 2],
                                            norm, window, nodes)[0]))


def semianalytic_moment(spec: ModelSpec, n: int, m: float, window: BorelWindow,
                        ell: int, nodes: int = QUAD_NODES) -> float:
    """Exact finite-n annealed factorial moment E(P_n(A))_ell, ell in {1, 2}.

    Signed-overlap decomposition: exactly 2^n * C(n, k) ordered pairs sit at
    signed overlap 1 - 2k/n, and the covariance nu(r) is evaluated at the
    signed value (essential for odd mixtures). k = 0 (identical pairs) is
    excluded.
    """
    if spec.coupling.kind != "gaussian":
        raise UsageError("semi-analytic moments are available for Gaussian couplings only")
    if n > _SEMIANALYTIC_MAX_N:
        raise UsageError(f"semi-analytic moments limited to n <= {_SEMIANALYTIC_MAX_N}")
    if ell == 1:
        return math.exp(m * LOG2 + log_marginal_window_prob(Normalization(m), window, nodes))
    if ell != 2:
        raise UsageError("semianalytic_moment supports ell in {1, 2}")
    k = np.arange(1, n + 1)
    log_pairs = n * LOG2 + gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    win = window.intervals
    logp = _log_pair_probs(_cov(spec, (n - 2.0 * k) / n), Normalization(m), win, win, nodes)
    return _sum_exp(log_pairs + 2.0 * (m - n) * LOG2 + logp)


def semianalytic_pair_ratio(spec: ModelSpec, n: int, m: float, window: BorelWindow,
                            nodes: int = QUAD_NODES) -> float:
    """The breakdown diagnostic m2/m1^2 at finite n (annealed reference)."""
    m1 = semianalytic_moment(spec, n, m, window, 1, nodes)
    m2 = semianalytic_moment(spec, n, m, window, 2, nodes)
    return m2 / m1**2


def conditional_pair_moments(spec: ModelSpec, cloud, norm: Normalization,
                             window: BorelWindow, nodes: int = QUAD_NODES) -> tuple:
    """Exact (m1, m2) conditional on a realized cloud.

    This is what a quenched Monte Carlo run estimates: |X| P1 and the
    census-weighted sum of pair probabilities over the cloud's actual
    overlaps. The annealed engine averages over clouds instead; at mean size
    2^m the two differ by O(2^(-m/2)) relative, which dominates the Monte
    Carlo error in long quenched runs.
    """
    if spec.coupling.kind != "gaussian":
        raise UsageError("conditional references are available for Gaussian couplings only")
    from .combinatorics import cloud_pair_census

    m1 = len(cloud) * marginal_window_prob(norm, window)
    census = cloud_pair_census(cloud)
    rs = np.array(sorted(census))
    counts = np.array([census[r] for r in rs], dtype=float)
    win = window.intervals
    logp = _log_pair_probs(_cov(spec, rs), norm, win, win, nodes)
    m2 = float(np.sum(counts * np.exp(logp)))
    return m1, m2


def _triple_grid(n: int):
    """All realizable signed triples, parameterized by the gauge column counts."""
    rows = []
    for npp_ in range(n + 1):
        for npm in range(n + 1 - npp_):
            for nmp in range(n + 1 - npp_ - npm):
                nmm = n - npp_ - npm - nmp
                rows.append((npp_, npm, nmp, nmm))
    arr = np.array(rows, dtype=np.int64)
    npp_, npm, nmp, nmm = arr.T
    r12 = (npp_ + npm - nmp - nmm) / n
    r23 = (npp_ - npm - nmp + nmm) / n
    r31 = (npp_ - npm + nmp - nmm) / n
    d12 = nmp + nmm
    d23 = npm + nmp
    d31 = npm + nmm
    lg = gammaln(np.arange(n + 2))

    def log_comb(a, b):
        return lg[a + 1] - lg[b + 1] - lg[a - b + 1]

    log_count = (
        n * LOG2
        + log_comb(np.full(len(arr), n), d12)
        + log_comb(npp_ + npm, npp_)
        + log_comb(nmp + nmm, nmp)
    )
    distinct = (d12 > 0) & (d23 > 0) & (d31 > 0)
    return r12, r23, r31, log_count, distinct


def semianalytic_third_moment(spec: ModelSpec, n: int, m: float, window: BorelWindow,
                              nodes: int = QUAD_NODES) -> float:
    """Exact finite-n annealed third factorial moment (triple-grid summation)."""
    if spec.coupling.kind != "gaussian":
        raise UsageError("semi-analytic moments are available for Gaussian couplings only")
    if n > _THIRD_MOMENT_MAX_N:
        raise UsageError(f"third-moment grid summation limited to n <= {_THIRD_MOMENT_MAX_N}")
    r12, r23, r31, log_count, distinct = _triple_grid(n)
    b12, b23, b31 = _cov(spec, r12), _cov(spec, r23), _cov(spec, r31)
    # regular triples first, degenerate ones last, each in grid order: the
    # log-sum below is order-sensitive at the last-bit level
    idx = np.nonzero(distinct)[0]
    idx = idx[np.argsort(_triple_degenerate(b12[idx], b23[idx], b31[idx]), kind="stable")]
    logp = _log_triple_probs(b12[idx], b23[idx], b31[idx], Normalization(m), window, nodes)
    return _sum_exp(log_count[idx] + 3.0 * (m - n) * LOG2 + logp)


@dataclass(frozen=True)
class LimitPrediction:
    """Asymptotic factorial-moment constant under an m(n) scaling rule."""

    model: str
    scaling: str
    eps: float
    ell: int
    value: float


_SCALING_BY_MODEL = {"npp": "sqrt", "sk": "linear", "pspin": "linear", "rem": None}


def limit_constant(model: str, scaling: str, eps: float, ell: int,
                   c4: float = 0.0) -> LimitPrediction:
    """Limit of m_ell relative to mu(A)^ell (the mu(A) powers cancel).

    ell=2 returns the breakdown ratio m2/m1^2; ell=1 the first-moment factor
    (1 for Gaussian couplings, exp(-4 c4 eps^2 log^2 2) otherwise).
    """
    if ell not in (1, 2):
        raise UsageError("limit constants are available for ell in {1, 2}")
    if eps < 0:
        raise UsageError("eps must be nonnegative")
    if model not in _SCALING_BY_MODEL:
        raise UsageError(f"unknown model tag {model!r}")
    expected = _SCALING_BY_MODEL[model]
    if expected is not None and scaling != expected:
        raise UsageError(f"model {model!r} takes the m = eps*{expected}(n) scaling")

    e2l2 = eps * eps * LOG2 * LOG2
    if model in ("rem", "pspin"):
        if c4 != 0.0:
            raise UsageError("non-Gaussian limit constants cover p in {1, 2} only")
        if model == "pspin" and not eps < SK_EPS_MAX:
            raise UsageError(
                f"the p>=3 moment constants require eps < 1/(8 log 2) = {SK_EPS_MAX:.6f}"
            )
        value = 1.0
    elif model == "npp":
        value = math.exp(-4.0 * c4 * e2l2) if ell == 1 else math.exp(2.0 * e2l2 * (1.0 - 12.0 * c4))
    else:  # sk
        if not eps < SK_EPS_MAX:
            raise UsageError(
                f"the SK breakdown constant requires eps < 1/(8 log 2) = {SK_EPS_MAX:.6f}"
            )
        if ell == 1:
            value = math.exp(-4.0 * c4 * e2l2)
        else:
            value = math.exp(-24.0 * c4 * e2l2) / math.sqrt(1.0 - 4.0 * eps * LOG2)
    if ell == 2:
        assert value >= 1.0 - 1e-12
    return LimitPrediction(model=model, scaling=scaling, eps=eps, ell=ell, value=value)
