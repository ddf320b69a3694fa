"""Overlap combinatorics: rate functions, exact pair/triple counts, regime labels.

Counts are exact big integers (math.comb) with log-space companions for large
dimensions; brute-force censuses serve as independent oracles at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .core import LOG2, Cloud, grid_index, overlap_grid
from .errors import UsageError

_BRUTE_FORCE_MAX_N = 14
_CENSUS_BLOCK_BYTES = 12 << 20  # one block up to about 1250 members

# Smallest round constants satisfying the classifiers' strict requirements
# (c1 > 1/2, c2 > 3/2 for pairs; c1 > 1, c2 > 3/2 for triples).
DEFAULT_C1 = 0.6
DEFAULT_C2 = 1.6
DEFAULT_C1_TRIPLE = 1.1
DEFAULT_C2_TRIPLE = 1.6


def rate_j(x):
    """Entropy-type rate function (1-x)/2 log(1-x) + (1+x)/2 log(1+x).

    Total on the reals: +inf outside [-1, 1], with the 0*log0 = 0 convention
    at the endpoints. Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.inf)
    ok = np.abs(x) <= 1.0
    xo = x[ok]
    out[ok] = 0.5 * (xlogy(1.0 - xo, 1.0 - xo) + xlogy(1.0 + xo, 1.0 + xo))
    return float(out) if out.ndim == 0 else out


def rate_j2(x, y, z):
    """Three-overlap rate function of (r12, r23, r31), +inf off its domain.
    Elementwise on arrays; a float for scalar input."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    u1 = 1.0 + x + y + z
    u2 = 1.0 + x - y - z
    u3 = 1.0 - x + y - z
    u4 = 1.0 - x - y + z
    # admissible iff no column count is negative (u1 + u2 = 2 (1 + x) etc.); a
    # count rounding to just below 0 passes, and the clip makes it 0 log 0 = 0
    ok = np.minimum(np.minimum(u1, u2), np.minimum(u3, u4)) >= -1e-12
    out = np.full(np.broadcast(x, y, z).shape, np.inf)
    terms = 0.25 * (
        xlogy(np.clip(u1, 0, None), u1)
        + xlogy(np.clip(u2, 0, None), u2)
        + xlogy(np.clip(u3, 0, None), u3)
        + xlogy(np.clip(u4, 0, None), u4)
    )
    out[ok] = terms[ok]
    return float(out) if out.ndim == 0 else out


def solve_ndelta(n: int, t) -> tuple:
    """Column counts (n_111, n_11-1, n_1-11, n_1-1-1) of the gauge-fixed triple
    t = (r12, r23, r31); ``triple_grid`` is the inverse map.

    The four values always sum to n; they are all nonnegative exactly when the
    triple is admissible, and integral exactly when it is realizable.
    """
    r12, r23, r31 = t
    return (
        n * (1.0 + r12 + r23 + r31) / 4.0,
        n * (1.0 + r12 - r23 - r31) / 4.0,
        n * (1.0 - r12 - r23 + r31) / 4.0,
        n * (1.0 - r12 + r23 - r31) / 4.0,
    )


def count_v2_exact(n: int, r: float) -> int:
    """Exact number of ordered pairs in S_n^2 with |overlap| equal to r.

    Counts absolute overlaps (the convention of the max-overlap sets): for
    r > 0 both signs contribute, and r = 1 includes the 2^n identical pairs.
    """
    if r < -1e-12:
        raise UsageError("count_v2_exact takes r = |R| >= 0")
    k = grid_index(n, abs(r))
    if r > 1e-12:
        return (1 << n) * 2 * math.comb(n, k)
    return (1 << n) * math.comb(n, k)


def log_count_v2(n: int, r: float) -> float:
    """Natural log of count_v2_exact, usable far beyond big-integer comfort."""
    k = grid_index(n, abs(r))
    base = n * LOG2 + _log_comb(n, k)
    return float(base + (LOG2 if r > 1e-12 else 0.0))


def _log_comb(n, k):
    """log C(n, k), elementwise on integer arrays."""
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _ndelta_ints(n: int, t) -> tuple | None:
    vals = solve_ndelta(n, t)
    ints = tuple(int(round(v)) for v in vals)
    if any(abs(v - vi) > 1e-9 or vi < 0 for v, vi in zip(vals, ints)):
        return None
    return ints


def count_w3_exact(n: int, t) -> int:
    """Exact number of ordered triples with signed overlaps t = (r12, r23, r31).

    Signed convention, matching the prescribed-overlap triple sets. Returns 0
    for triples whose column counts are not nonnegative integers
    (unrealizable at this n).
    """
    nd = _ndelta_ints(n, t)
    if nd is None:
        return 0
    npp_, npm, nmp, nmm = nd
    d12 = nmp + nmm
    return (1 << n) * math.comb(n, d12) * math.comb(npp_ + npm, npp_) * math.comb(nmp + nmm, nmp)


def log_count_columns(n: int, npp_, npm, nmp, nmm):
    """Log of the number of ordered triples with gauge column counts
    (n_111, n_11-1, n_1-11, n_1-1-1); elementwise on integer arrays."""
    return (
        n * LOG2
        + _log_comb(n, nmp + nmm)
        + _log_comb(npp_ + npm, npp_)
        + _log_comb(nmp + nmm, nmp)
    )


def triple_grid(n: int):
    """All realizable signed triples (r12, r23, r31) at dimension n, with the
    log-count of ordered triples at each and whether the three are distinct.

    Rows run over the gauge column counts (n_111, n_11-1, n_1-11) in
    lexicographic order, with n_1-1-1 the remainder.
    """
    k = np.arange(n + 1)
    npp_, npm, nmp = np.meshgrid(k, k, k, indexing="ij")
    keep = npp_ + npm + nmp <= n
    npp_, npm, nmp = npp_[keep], npm[keep], nmp[keep]
    nmm = n - npp_ - npm - nmp
    r12 = (npp_ + npm - nmp - nmm) / n
    r23 = (npp_ - npm - nmp + nmm) / n
    r31 = (npp_ - npm + nmp - nmm) / n
    log_count = log_count_columns(n, npp_, npm, nmp, nmm)
    distinct = (nmp + nmm > 0) & (npm + nmp > 0) & (npm + nmm > 0)
    return r12, r23, r31, log_count, distinct


@dataclass(frozen=True)
class RegimeLabel:
    """Concentration regime of a prescribed-overlap count inside the cloud."""

    label: str  # Concentrated | Polylog | Empty
    c1: float
    c2: float


def classify_pair_regime(
    n: int,
    m: float,
    r: float,
    c1: float = DEFAULT_C1,
    c2: float = DEFAULT_C2,
    empty_uses_log_n: bool = False,
) -> RegimeLabel:
    """Classify the pair count at overlap r against the M log2 thresholds.

    Concentrated when n*J(r) <= m*log2 - c1*log(n); Empty when n*J(r) exceeds
    m*log2 + c2*log(2) (the threshold printed in the source; pass
    empty_uses_log_n=True for the log(n) variant, which is the likelier
    intended reading); Polylog otherwise.
    """
    if not c1 > 0.5:
        raise UsageError("pair regime classifier needs c1 > 1/2")
    if not c2 > 1.5:
        raise UsageError("pair regime classifier needs c2 > 3/2")
    return _regime(n * rate_j(r), m * LOG2, n, c1, c2, empty_uses_log_n)


def classify_triple_regime(
    n: int,
    m: float,
    t,
    c1: float = DEFAULT_C1_TRIPLE,
    c2: float = DEFAULT_C2_TRIPLE,
    empty_uses_log_n: bool = False,
) -> RegimeLabel:
    """Triple analogue for t = (r12, r23, r31): thresholds shift by n*J(r12)
    relative to the pair case."""
    if not c1 > 1.0:
        raise UsageError("triple regime classifier needs c1 > 1")
    if not c2 > 1.5:
        raise UsageError("triple regime classifier needs c2 > 3/2")
    return _regime(n * rate_j2(*t), m * LOG2 + n * rate_j(t[0]), n, c1, c2, empty_uses_log_n)


def _regime(nj, base, n, c1, c2, empty_uses_log_n) -> RegimeLabel:
    """Concentrated when nj <= base - c1 log n, Empty when nj > base + c2 * (log 2
    or log n), Polylog in between."""
    upper_term = math.log(n) if empty_uses_log_n else LOG2
    if nj <= base - c1 * math.log(n):
        label = "Concentrated"
    elif nj > base + c2 * upper_term:
        label = "Empty"
    else:
        label = "Polylog"
    return RegimeLabel(label=label, c1=c1, c2=c2)


def brute_force_pair_census(n: int) -> dict:
    """Exhaustive census of |overlap| over all 2^(2n) ordered pairs (n <= 14)."""
    if n > _BRUTE_FORCE_MAX_N:
        raise UsageError(f"brute-force pair census limited to n <= {_BRUTE_FORCE_MAX_N}")
    codes = np.arange(1 << n, dtype=np.uint16)
    hist = np.zeros(n + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // len(codes))
    for start in range(0, len(codes), chunk):
        block = codes[start : start + chunk, None] ^ codes[None, :]
        hist += np.bincount(np.bitwise_count(block).ravel(), minlength=n + 1)
    grid = overlap_grid(n)
    census: dict[float, int] = {}
    for k, c in enumerate(hist):
        if c:
            census[abs(grid[k])] = census.get(abs(grid[k]), 0) + int(c)
    return census


def brute_force_triple_census(n: int) -> dict:
    """Exhaustive signed-triple census over S_n^3, keyed by (r12, r23, r31).

    Coordinate-wise spin flips act transitively and leave every overlap
    unchanged, so the first configuration is pinned to all-ones and the
    (sigma^2, sigma^3) pairs enumerated; totals carry the 2^n factor.
    """
    if n > 12:
        raise UsageError("brute-force triple census limited to n <= 12")
    codes = np.arange(1 << n, dtype=np.uint16)
    d2 = np.bitwise_count(codes).astype(np.int64)  # Hamming distance to the all-ones gauge
    size = n + 1
    hist = np.zeros(size * size * size, dtype=np.int64)
    chunk = max(1, (1 << 22) // len(codes))
    for start in range(0, len(codes), chunk):
        sub = codes[start : start + chunk]
        d23 = np.bitwise_count(sub[:, None] ^ codes[None, :]).astype(np.int64)
        key = (d2[start : start + chunk, None] * size + d23) * size + d2[None, :]
        hist += np.bincount(key.ravel(), minlength=hist.size)
    grid = overlap_grid(n)
    census: dict[tuple, int] = {}
    nonzero = np.nonzero(hist)[0]
    for code in nonzero:
        k12, rem = divmod(int(code), size * size)
        k23, k31 = divmod(rem, size)
        key = (grid[k12], grid[k23], grid[k31])
        census[key] = int(hist[code]) << n
    return census


def _hamming_counts(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Histogram of the Hamming distances k between the sign rows of a and of b."""
    dots = a @ b.T  # n - 2k exactly: integer sums of +-1
    dots -= n
    dots /= -2.0
    return np.bincount(dots.astype(np.intp).ravel(), minlength=n + 1)


def cloud_pair_census(cloud: Cloud) -> dict:
    """Signed-overlap counts over ordered distinct pairs in the cloud; empty below two members.

    Row blocks of about ``_CENSUS_BLOCK_BYTES`` of products bound the memory. A
    block meets itself once and the later rows in both orders, in the flops of
    one symmetric product. Members are distinct: only the diagonal has k = 0.
    """
    s, n = cloud.sign_matrix, cloud.n
    rows = max(1, _CENSUS_BLOCK_BYTES // (8 * max(len(s), 1)))
    hist = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, len(s), rows):
        block = s[start : start + rows]
        hist += _hamming_counts(block, block, n) + 2 * _hamming_counts(block, s[start + rows :], n)
    hist[0] -= len(s)
    return {r: int(c) for r, c in zip(overlap_grid(n), hist) if c}
