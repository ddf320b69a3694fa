"""Packed random clouds on the hypercube, the overlap grid, and cloud sampling.

A configuration sigma in {-1,+1}^n is a little-endian row of ceil(n/8) uint8
bytes: bit i (bit i % 8 of byte i // 8) set means spin i is +1. ``from_bits``,
``sign_matrix`` and both samplers share this convention, so a row read as a
little-endian integer is the member's bit pattern, and two members at Hamming
distance k have overlap 1 - 2k/n, a value of ``overlap_grid(n)``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import UsageError

LOG2 = math.log(2.0)

# Sampling a cloud in exact mode scans all 2^n sites in fixed-size chunks so
# the stream of uniforms (and hence the cloud) is reproducible bit for bit.
_EXACT_MODE_MAX_N = 24
_SCAN_CHUNK = 1 << 20
# Clouds whose expected float64 sign matrix (8 n 2^m bytes) exceeds this are
# refused before any draw.
_SIGN_MATRIX_MAX_BYTES = 2 << 30
_LARGE_N_MIN_N = 6  # the least n at which check_cloud lets large_n draw


def overlap_grid(n: int) -> np.ndarray:
    """The n+1 values 1 - 2k/n an overlap can take at dimension n, k = 0..n."""
    # one rounding of an integer numerator, as in Cloud.overlap_matrix: equal bit for bit
    return (n - 2.0 * np.arange(n + 1)) / n


def grid_index(n: int, r: float) -> int:
    """Map a grid overlap to its Hamming count k; reject off-grid values."""
    k = (1.0 - r) * n / 2.0
    ki = int(round(k))
    if not 0 <= ki <= n or abs(k - ki) > 1e-9:
        raise UsageError(f"overlap {r} is not on the grid for n={n}")
    return ki


class Cloud:
    """A sorted set of distinct configurations with target mean size 2^m.

    ``packed`` is a read-only (|X|, ceil(n/8)) uint8 array: one row per
    member, sorted by integer value. ``members`` must be such an array.
    """

    def __init__(self, n: int, m: float, members: np.ndarray) -> None:
        nbytes = (n + 7) // 8
        if (n < 1 or not isinstance(members, np.ndarray) or members.dtype != np.uint8
                or members.shape[1:] != (nbytes,) or np.any(members[:, -1] >> (n % 8 or 8))):
            raise UsageError(f"a cloud at n={n} takes n >= 1 and a (|X|, {nbytes}) uint8 "
                             "array with no bit at or past n")
        if not np.array_equal(_sorted_distinct(members), members):
            raise UsageError("cloud members must be distinct and sorted by bit pattern")
        self.n, self.m, self.packed = n, m, members.copy()
        self.packed.flags.writeable = False

    @classmethod
    def _of_sorted_rows(cls, n: int, m: float, packed: np.ndarray) -> "Cloud":
        """Wrap sampler output, sorted, distinct and n bits wide by construction."""
        cloud = cls.__new__(cls)
        cloud.n, cloud.m, cloud.packed = n, m, packed
        packed.flags.writeable = False
        return cloud

    def __len__(self) -> int:
        return len(self.packed)

    @classmethod
    def from_bits(cls, n: int, bits, m: float | None = None) -> "Cloud":
        """The cloud of the distinct integers in ``bits``, each in [0, 2^n)."""
        values = sorted({int(b) for b in bits})
        if n < 1 or (values and (values[0] < 0 or values[-1] >> n)):
            raise UsageError(f"from_bits needs n >= 1 and every value in [0, 2^n), got n={n}")
        nbytes = (n + 7) // 8
        rows = b"".join(b.to_bytes(nbytes, "little") for b in values)
        m = math.log2(max(len(values), 1)) if m is None else m
        return cls(n, float(m), np.frombuffer(rows, dtype=np.uint8).reshape(-1, nbytes))

    @cached_property
    def sign_matrix(self) -> np.ndarray:
        """(|X|, n) float64 matrix of +-1 spins, one row per member."""
        bits = np.unpackbits(self.packed, axis=1, bitorder="little", count=self.n)
        return 2.0 * bits.astype(np.float64) - 1.0

    def overlap_matrix(self) -> np.ndarray:
        """All pairwise overlaps via one Gram product (exact: integer sums)."""
        s = self.sign_matrix
        return (s @ s.T) / self.n


def _sorted_distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct little-endian rows in ascending integer order.

    Reversed, a row is a big-endian byte string, and ``np.unique`` orders
    those opaque strings bytewise, which is the integer order at any width.
    """
    nbytes = rows.shape[1]
    keys = np.unique(np.ascontiguousarray(rows[:, ::-1]).view(np.dtype((np.void, nbytes))))
    return np.ascontiguousarray(keys.view(np.uint8).reshape(-1, nbytes)[:, ::-1])


def delta_n(n: int, m: float) -> float:
    """High-probability bound on the maximal |overlap| within a cloud.

    4*sqrt(m*log2/n + log(n)/n), capped at 1 where the raw bound is vacuous.
    """
    if n < 2:
        raise UsageError(f"delta_n requires n >= 2, got {n}")
    raw = 4.0 * math.sqrt(m * LOG2 / n + math.log(n) / n)
    return min(1.0, raw)


def _sample_exact(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    total = 1 << n
    sites = [start + np.flatnonzero(rng.random(min(_SCAN_CHUNK, total - start)) < p)
             for start in range(0, total, _SCAN_CHUNK)]
    # the sites ascend, so their little-endian bytes are already sorted rows
    raw = np.concatenate(sites).astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.ascontiguousarray(raw[:, : (n + 7) // 8])


def _sample_large_n(n: int, m: float, rng: np.random.Generator) -> np.ndarray:
    target = int(rng.poisson(2.0**m))
    if target > 1 << n:  # only reachable at tiny n, where it would loop forever
        raise UsageError(f"large_n drew {target} distinct strings at n={n}; use exact mode")
    nbytes = (n + 7) // 8
    tail_mask = 0xFF if n % 8 == 0 else (1 << (n % 8)) - 1
    rows = np.empty((0, nbytes), dtype=np.uint8)
    # Expected duplicate count is ~K^2/2^n < 1 for every supported (n, m),
    # so a top-up loop runs at most a couple of times.
    while len(rows) < target:
        raw = rng.integers(0, 256, size=(target - len(rows), nbytes), dtype=np.uint8)
        raw[:, -1] &= tail_mask
        rows = _sorted_distinct(np.concatenate([rows, raw]))
    return rows


def check_cloud(n: int, m: float, mode: str = "auto") -> str:
    """Refuse a cloud no draw can produce; return the mode, ``auto`` resolved.

    ``exact`` takes n <= 24. ``large_n`` refuses m > n/2: there its distinct-string
    loop is a coupon collector, endless once the Poisson target exceeds 2^n.
    It also refuses n < 6: P(Poisson(2^(n/2)) > 2^n) is 2.3e-36 at n = 6, 0.17 at n = 1.
    Either mode refuses m > n and a sign matrix above 2 GiB."""
    if m > n:
        raise UsageError(f"need 2^m <= 2^n, got m={m} > n={n}")
    if mode == "auto":
        mode = "exact" if n <= _EXACT_MODE_MAX_N else "large_n"
    if mode not in ("exact", "large_n"):
        raise UsageError(f"unknown cloud-sampling mode {mode!r}")
    if mode == "exact" and n > _EXACT_MODE_MAX_N:
        raise UsageError(f"exact mode enumerates 2^n sites; limited to n <= {_EXACT_MODE_MAX_N}")
    if mode == "large_n" and (m > n / 2 or n < _LARGE_N_MIN_N):
        raise UsageError(
            f"large_n cloud sampling needs m <= n/2 and n >= {_LARGE_N_MIN_N}, got m={m} "
            f"with n={n}; small or dense clouds need exact mode (n <= {_EXACT_MODE_MAX_N})"
        )
    sign_bytes = 8.0 * n * 2.0**m
    if sign_bytes > _SIGN_MATRIX_MAX_BYTES:
        raise UsageError(
            f"a cloud of about 2^{m:g} members at n={n} needs a {sign_bytes / 2**30:.3g} GiB "
            f"sign matrix; the limit is {_SIGN_MATRIX_MAX_BYTES / 2**30:g} GiB"
        )
    return mode


def sample_cloud(n: int, m: float, rng: np.random.Generator, mode: str = "auto") -> Cloud:
    """Draw once a Bernoulli site-percolation subset with inclusion p = 2^(m-n).

    ``exact`` scans all 2^n sites; ``large_n`` draws a Poisson(2^m) number of
    distinct uniform bitstrings. Both are uniform given their size, so they
    differ in total variation by d_TV(Bin(2^n, 2^(m-n)), Poi(2^m)) <= 2^(m-n),
    at most 2^(-n/2) for m <= n/2 at any n (Barbour and Hall 1984). The cloud
    may have any size, 0 and 1 included, as the annealed references assume.
    """
    if check_cloud(n, m, mode) == "exact":
        return Cloud._of_sorted_rows(n, m, _sample_exact(n, 2.0 ** (m - n), rng))
    return Cloud._of_sorted_rows(n, m, _sample_large_n(n, m, rng))
