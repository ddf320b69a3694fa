"""Reference values: exact finite-n factorial moments and limit constants.

Every finite-n moment is one sum over an overlap histogram: a log-count per
overlap value (or triple), the overlaps mapped through the model's covariance
nu, and one Gaussian window probability per entry from a single kernel,
``_log_pair_probs`` for pairs and ``_log_triple_probs`` for triples. The
histograms are the exact binomial pair counts (annealed second moment), the
pair census of a realized cloud (quenched conditional moments) and the signed
triple grid (annealed third moment). The annealed terms are combined by a
log-sum; ``conditional_pair_moments`` adds counts * exp(logp) in a plain sum,
and a log-sum there would move last bits of the pinned output. The triple
sum evaluates the kernel once per distinct ordered covariance triple, without
sorting it, since a permuted covariance rounds differently.

Everything runs in log space: the huge exp(-a_n^2 * s / 2) factor of the
joint density is carried symbolically, and only the bounded window integral
is evaluated by tensor Gauss-Legendre quadrature. Covariances within
``_DEGENERATE_BAND`` of +-1 are exact linear dependences that the tensor rule
cannot resolve; the kernels eliminate the dependent energy instead (on the
window reflected under H -> -H when the pair is anticorrelated). The grid
sums are capped at n <= ``_SEMIANALYTIC_MAX_N`` for pairs and
n <= ``_THIRD_MOMENT_MAX_N`` for triples; ``simulate_references`` picks the
references a simulate run gets. One formula in the p = 1 and p = 2
mixture weights and c4 gives the limit constants: ``limit_factors`` at a run's
m_rule, ``limit_constant`` by a pure model's tag.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, logsumexp, roots_legendre

from . import combinatorics
from .core import LOG2
from .errors import NumericalError, UsageError
from .models import ModelSpec
from .pointproc import BorelWindow, Normalization

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
_SIMULATE_THIRD_MAX_N = 32

SK_EPS_MAX = 1.0 / (8.0 * LOG2)


@lru_cache(maxsize=32)
def _interval_rule(lo: float, hi: float, nodes: int) -> tuple:
    x, w = roots_legendre(nodes)
    half = 0.5 * (hi - lo)
    return (lo + half * (x + 1.0), half * w)


def _window_rule(intervals, nodes: int) -> tuple:
    rules = [_interval_rule(lo, hi, nodes) for lo, hi in intervals]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


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
        with np.errstate(over="ignore"):
            integral = np.exp(expo) @ ww
        with np.errstate(divide="ignore"):  # integral underflow -> -inf term
            log_integral = np.log(integral)
        overflow = ~np.isfinite(integral)
        if overflow.any():
            # b near -1 on a window below the mean: the exponent alone
            # overflows, so shift those rows by their own maximum
            shift = expo[overflow].max(axis=1, keepdims=True)
            log_integral[overflow] = shift[:, 0] + np.log(np.exp(expo[overflow] - shift) @ ww)
        bflat = bc[:, 0]
        regular[start : start + chunk] = (
            2.0 * math.log(bn)
            - math.log(2.0 * math.pi)
            - 0.5 * np.log1p(-bflat * bflat)
            - a * a / (1.0 + bflat)
            + log_integral
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
    x1, x2, x3 = (v.ravel() for v in np.meshgrid(x, x, x, indexing="ij"))
    basis = np.stack([x1 * x1, x2 * x2, x3 * x3, x1 * x2, x1 * x3, x2 * x3, x1, x2, x3])
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
    coeffs = np.stack([-0.5 * bn * bn * i11, -0.5 * bn * bn * i22, -0.5 * bn * bn * i33,
                       -bn * bn * i12, -bn * bn * i13, -bn * bn * i23,
                       -a * bn * l1, -a * bn * l2, -a * bn * l3], axis=1)
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
    """exp(logsumexp) over the terms; -inf terms (underflow) contribute 0."""
    if np.any(np.isnan(log_terms) | (log_terms == math.inf)):
        raise NumericalError("a moment term evaluated to +inf or NaN")
    finite = log_terms[log_terms > -math.inf]
    return math.exp(float(logsumexp(finite))) if len(finite) else 0.0


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
    logp = _log_pair_probs(spec.nu((n - 2.0 * k) / n), Normalization(m), win, win, nodes)
    return _sum_exp(log_pairs + 2.0 * (m - n) * LOG2 + logp)


def semianalytic_pair_ratio(spec: ModelSpec, n: int, m: float, window: BorelWindow,
                            nodes: int = QUAD_NODES) -> float:
    """The breakdown diagnostic m2/m1^2 at finite n (annealed reference)."""
    m1 = semianalytic_moment(spec, n, m, window, 1, nodes)
    m2 = semianalytic_moment(spec, n, m, window, 2, nodes)
    return m2 / m1**2


def conditional_pair_moments(spec: ModelSpec, cloud, norm: Normalization,
                             windows, nodes: int = QUAD_NODES) -> list:
    """Exact (m1, m2) conditional on a realized cloud, one pair per window.

    This is what a quenched Monte Carlo run estimates: |X| P1 and the
    census-weighted sum of pair probabilities over the cloud's actual
    overlaps. The annealed engine averages over clouds instead; at mean size
    2^m the two differ by O(2^(-m/2)) relative, which dominates the Monte
    Carlo error in long quenched runs.
    """
    if spec.coupling.kind != "gaussian":
        raise UsageError("conditional references are available for Gaussian couplings only")
    census = combinatorics.cloud_pair_census(cloud)
    rs = np.array(sorted(census))
    counts = np.array([census[r] for r in rs], dtype=float)
    cov = spec.nu(rs)
    moments = []
    for window in windows:
        m1 = len(cloud) * marginal_window_prob(norm, window)
        win = window.intervals
        logp = _log_pair_probs(cov, norm, win, win, nodes)
        moments.append((m1, float(np.sum(counts * np.exp(logp)))))
    return moments


def semianalytic_third_moment(spec: ModelSpec, n: int, m: float, window: BorelWindow,
                              nodes: int = QUAD_NODES) -> float:
    """Exact finite-n annealed third factorial moment (triple-grid summation)."""
    if spec.coupling.kind != "gaussian":
        raise UsageError("semi-analytic moments are available for Gaussian couplings only")
    if n > _THIRD_MOMENT_MAX_N:
        raise UsageError(f"third-moment grid summation limited to n <= {_THIRD_MOMENT_MAX_N}")
    r12, r23, r31, log_count, distinct = combinatorics.triple_grid(n)
    b12, b23, b31 = spec.nu(r12), spec.nu(r23), spec.nu(r31)
    # regular triples first, degenerate ones last, each in grid order: the
    # log-sum below is order-sensitive at the last-bit level
    idx = np.nonzero(distinct)[0]
    idx = idx[np.argsort(_triple_degenerate(b12[idx], b23[idx], b31[idx]), kind="stable")]
    # one kernel call per distinct ordered covariance triple (not sorted: a
    # permuted covariance rounds differently in the last bit)
    covs, inv = np.unique(np.stack([b12, b23, b31], axis=1)[idx], axis=0, return_inverse=True)
    logp = _log_triple_probs(*covs.T, Normalization(m), window, nodes)[inv.ravel()]
    return _sum_exp(log_count[idx] + 3.0 * (m - n) * LOG2 + logp)


def simulate_references(spec: ModelSpec, cloud, norm: Normalization, windows,
                        quenched: bool, max_ell: int) -> list:
    """The exact references of one simulate run: per window, an (annealed,
    conditional) pair of {ell: m_ell} dicts holding only the orders covered.

    A non-Gaussian coupling gets none. The annealed third moment needs
    n <= _SIMULATE_THIRD_MAX_N and max_ell >= 3. What a quenched run actually
    estimates are the moments conditional on its realized cloud (the annealed
    reference differs at O(2^(-m/2))), so only quenched runs get those.
    """
    if spec.coupling.kind != "gaussian":
        return [({}, {}) for _ in windows]
    conditional = (conditional_pair_moments(spec, cloud, norm, windows) if quenched
                   else [()] * len(windows))
    refs = []
    for window, cond in zip(windows, conditional):
        annealed = {}
        if cloud.n <= _SEMIANALYTIC_MAX_N:
            annealed[1] = semianalytic_moment(spec, cloud.n, norm.m, window, 1)
            annealed[2] = semianalytic_moment(spec, cloud.n, norm.m, window, 2)
        if cloud.n <= _SIMULATE_THIRD_MAX_N and max_ell >= 3:
            annealed[3] = semianalytic_third_moment(spec, cloud.n, norm.m, window)
        refs.append((annealed, dict(enumerate(cond, 1))))
    return refs


# limit_constant's tags: a pure model's (a1^2, a2^2) and its theorem's scaling
_PURE_TAGS = {"rem": (0.0, 0.0, None), "npp": (1.0, 0.0, "sqrt"),
              "sk": (0.0, 1.0, "linear"), "pspin": (0.0, 0.0, "linear")}


def _limit_pair(scaling: str, eps: float, a1sq: float, a2sq: float, c4: float):
    """(m1/mu(A), m2/mu(A)^2) from the p = 1 and p = 2 weights, or None at
    linear m with a1 != 0 (the ratio diverges) or eps >= SK_EPS_MAX."""
    if eps < 0:
        raise UsageError("eps must be nonnegative")
    e2l2 = eps * eps * LOG2 * LOG2
    if scaling == "sqrt":
        return (math.exp(-4.0 * c4 * e2l2 * a1sq),
                math.exp(2.0 * e2l2 * a1sq * a1sq * (1.0 - 12.0 * c4)))
    if a1sq != 0.0 or not eps < SK_EPS_MAX:
        return None
    return (math.exp(-4.0 * c4 * e2l2 * a2sq),
            math.exp(-24.0 * c4 * e2l2 * a2sq) / math.sqrt(1.0 - 4.0 * eps * LOG2 * a2sq))


def limit_factors(spec: ModelSpec, m_rule: str, epsilon):
    """Limits of m1/mu(A) and m2/mu(A)^2 at m_rule (fixed, sqrt, linear), or None.

    Only the p = 1 weight survives at m = eps*sqrt(n), only p = 2 at m = eps*n.
    For a mixture this is the leading-order expansion, not the theorem.
    """
    if spec.is_rem or m_rule == "fixed":
        return (1.0, 1.0)
    a1sq, a2sq = (sum(a * a for p, a in spec.mixture if p == q) for q in (1, 2))
    return _limit_pair(m_rule, float(epsilon), a1sq, a2sq, spec.coupling.c4)


def limit_constant(model: str, scaling: str, eps: float, ell: int,
                   c4: float = 0.0) -> float:
    """Limit of m_ell relative to mu(A)^ell (the mu(A) powers cancel).

    ell=2 returns the breakdown ratio m2/m1^2; ell=1 the first-moment factor
    (1 for Gaussian couplings, exp(-4 c4 eps^2 log^2 2) otherwise).
    """
    if ell not in (1, 2):
        raise UsageError("limit constants are available for ell in {1, 2}")
    if model not in _PURE_TAGS:
        raise UsageError(f"unknown model tag {model!r}")
    a1sq, a2sq, expected = _PURE_TAGS[model]
    if expected is not None and scaling != expected:
        raise UsageError(f"model {model!r} takes the m = eps*{expected}(n) scaling")
    if c4 != 0.0 and a1sq + a2sq == 0.0:
        raise UsageError("non-Gaussian limit constants cover p in {1, 2} only")
    # the REM's zero weights give 1 at the sqrt scale, whatever eps
    factors = _limit_pair(expected or "sqrt", eps, a1sq, a2sq, c4)
    if factors is None:
        raise UsageError(f"{model} at m = eps*n needs eps < 1/(8 log 2) = {SK_EPS_MAX:.6f}")
    value = factors[ell - 1]
    if ell == 2 and value < 1.0 - 1e-12:
        # only c4 > 1/12 (excess kurtosis below -2) gets here, which no
        # unit-variance law has
        raise UsageError(f"c4={c4} gives a second-moment limit constant {value} below 1")
    return value
