"""Energy normalization, Gibbs weights, windows, mu(A), factorial moments, Poisson diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import chdtrc, gammaln, kolmogorov, pdtr, pdtrc, xlogy

from .core import LOG2
from .errors import UsageError

SQRT_2LOG2 = math.sqrt(2.0 * LOG2)

# Below m = 2 the radicand of a_n goes negative; reject loudly.
_MIN_M = 2.0

# Every chi-square cell of poisson_gof expects at least this many replicas.
_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class Normalization:
    """Centering/scaling (a_n, b_n) that sends iid extremes to intensity mu."""

    m: float

    def __post_init__(self) -> None:
        if self.m < _MIN_M:
            raise UsageError(f"normalization needs m >= {_MIN_M}, got m={self.m}")

    @cached_property
    def b_n(self) -> float:
        return 1.0 / math.sqrt(self.m)

    @cached_property
    def a_n(self) -> float:
        radicand = 2.0 * self.m * LOG2 + 2.0 * math.log(self.b_n) - LOG2
        return math.sqrt(radicand)


def gibbs_weights(values, beta: float) -> np.ndarray:
    """Normalized Gibbs weights exp(-beta H) / Z of the energies, in input order.

    Shift-invariant by construction: the max of -beta H is subtracted before
    exponentiation, so adding a constant to all energies changes nothing.
    """
    if beta <= 0:
        raise UsageError("inverse temperature must be positive")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise UsageError("need at least one energy value")
    z = -beta * values
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    return w


@dataclass(frozen=True)
class BorelWindow:
    """A finite union of disjoint, bounded, half-open intervals [lo, hi)."""

    intervals: tuple

    def __post_init__(self) -> None:
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise UsageError("window needs at least one interval")
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise UsageError("window intervals must be bounded")
            if not lo < hi:
                raise UsageError(f"window interval [{lo}, {hi}) is empty or reversed")
        for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
            if hi1 > lo2:
                raise UsageError("window intervals must be sorted and disjoint")

    @classmethod
    def single(cls, lo: float, hi: float) -> "BorelWindow":
        return cls(intervals=((lo, hi),))

    def mask(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        out = np.zeros(values.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (values >= lo) & (values < hi)
        return out


@dataclass(frozen=True)
class CountVector:
    """Per-replica window counts Z_r."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if c.ndim != 1:
            raise UsageError("counts must be a flat per-replica vector")
        if np.any(c < 0):
            raise UsageError("window counts cannot be negative")

    @property
    def replicas(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class MomentReport:
    estimate: float
    stderr: float


def falling_factorial(counts: np.ndarray, ell: int) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    out = np.ones_like(counts)
    for j in range(ell):
        out = out * (counts - j)
    return out


def factorial_moment(counts: CountVector, ell: int) -> MomentReport:
    """Monte Carlo estimate of E[Z(Z-1)...(Z-ell+1)] with its standard error."""
    if ell < 1:
        raise UsageError("factorial moment order must be >= 1")
    if counts.replicas < 2:
        raise UsageError("need at least two replicas for a standard error")
    ff = falling_factorial(counts.counts, ell)
    return MomentReport(estimate=float(np.mean(ff)),
                        stderr=float(np.std(ff, ddof=1) / math.sqrt(len(ff))))


def moment_ratio(counts: CountVector) -> tuple:
    """The breakdown diagnostic m2/m1^2 with a delta-method combined SE.

    The per-replica falling factorials are correlated, so the SE uses their
    full 2x2 sample covariance.
    """
    z = counts.counts.astype(float)
    f1 = z
    f2 = z * (z - 1.0)
    r = len(z)
    m1 = float(np.mean(f1))
    m2 = float(np.mean(f2))
    if m1 <= 0.0:
        raise UsageError("mean count is zero; ratio undefined")
    cov = np.cov(np.stack([f2, f1]), ddof=1) / r
    ratio = m2 / m1**2
    grad = np.array([1.0 / m1**2, -2.0 * m2 / m1**3])
    var = float(grad @ cov @ grad)
    return ratio, math.sqrt(max(var, 0.0))


@dataclass(frozen=True)
class GofReport:
    statistic: float
    dof: int
    pvalue: float
    passed_1pct: bool


def gof_defined(counts: CountVector, lam: float) -> bool:
    """Whether poisson_gof has a test: lam > 0, at least 1000 replicas, and an
    expected count of _MIN_EXPECTED in the widest pooled cell, counts >= 1."""
    r = counts.replicas
    return lam > 0.0 and r >= 1000 and r * pdtrc(0, lam) >= _MIN_EXPECTED


def poisson_gof(counts: CountVector, lam: float) -> GofReport:
    """Chi-square test of the count histogram against Poisson(lam).

    The upper tail and the lower tail are each pooled into the smallest cell
    that expects at least _MIN_EXPECTED, and then absorb their neighbours
    until every cell does; dof = bins - 1 (lam is given, not fitted).
    """
    if not gof_defined(counts, lam):
        raise UsageError("window intensity or replica count too small for a chi-square test")
    r = counts.replicas
    kmax = int(np.max(counts.counts))
    # find the largest cut whose pooled upper tail still has mass >= _MIN_EXPECTED;
    # gof_defined guarantees that cut = 1 has it
    cut = kmax + 1
    while r * pdtrc(cut - 1, lam) < _MIN_EXPECTED:
        cut -= 1
    # the lower cell pools counts 0..low; cut > low keeps at least two cells
    low = 0
    while r * pdtr(low, lam) < _MIN_EXPECTED:
        low += 1
    cut = max(cut, low + 1)
    k = np.arange(cut)
    cells = r * np.exp(xlogy(k, lam) - gammaln(k + 1) - lam)
    # the cell just inside a pooled tail can still expect too little: fold it in
    while cut > low + 1 and cells[cut - 1] < _MIN_EXPECTED:
        cut -= 1
    while cut > low + 1 and cells[low + 1] < _MIN_EXPECTED:
        low += 1
    expected = np.concatenate([[cells[: low + 1].sum()], cells[low + 1 : cut],
                               [r * pdtrc(cut - 1, lam)]])
    if np.any(expected < _MIN_EXPECTED):
        raise UsageError("chi-square cells below the minimum expected count; enlarge replicas")
    observed = np.bincount(counts.counts, minlength=cut + 1)
    observed = np.concatenate([[observed[: low + 1].sum()], observed[low + 1 : cut],
                               [observed[cut:].sum()]])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(expected) - 1
    pvalue = float(chdtrc(dof, stat))
    return GofReport(statistic=stat, dof=dof, pvalue=pvalue, passed_1pct=pvalue >= 0.01)


@dataclass(frozen=True)
class SpacingReport:
    ks_distance: float
    n_points: int
    pvalue: float
    passed_1pct: bool


def spacing_test(values, window: BorelWindow) -> SpacingReport:
    """KS test of in-window points against the intensity's conditional law.

    Points are mapped to uniforms through the conditional CDF of mu
    restricted to the window; an independent check of Poissonianity.
    """
    values = np.asarray(values, dtype=float)
    values = values[window.mask(values)]
    if len(values) < 200:
        raise UsageError(f"spacing test needs >= 200 pooled points, got {len(values)}")
    u = _mu_conditional_cdf(values, window)
    u.sort()
    n = len(u)
    grid = np.arange(1, n + 1) / n
    d = float(max(np.max(grid - u), np.max(u - (grid - 1.0 / n))))
    pvalue = float(kolmogorov(d * math.sqrt(n)))
    return SpacingReport(ks_distance=d, n_points=n, pvalue=pvalue, passed_1pct=pvalue >= 0.01)


def _mu_mass(lo: float, hi: float) -> float:
    c = SQRT_2LOG2
    return (math.exp(-c * lo) - math.exp(-c * hi)) / (c * math.sqrt(math.pi))


def intensity_mu(window: BorelWindow) -> float:
    """Mass of mu(dt) = pi^(-1/2) exp(-t sqrt(2 log 2)) dt on the window."""
    return sum(_mu_mass(lo, hi) for lo, hi in window.intervals)


def _mu_conditional_cdf(values: np.ndarray, window: BorelWindow) -> np.ndarray:
    total = intensity_mu(window)
    out = np.zeros(len(values))
    offset = 0.0
    c = SQRT_2LOG2
    for lo, hi in window.intervals:
        inside = (values >= lo) & (values < hi)
        part = (np.exp(-c * lo) - np.exp(-c * values[inside])) / (c * math.sqrt(math.pi))
        out[inside] = offset + part
        offset += _mu_mass(lo, hi)
    return out / total
