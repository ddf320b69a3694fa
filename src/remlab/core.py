"""Bit-level spin configurations, overlap arithmetic, and random-cloud sampling.

Configurations live on the hypercube {-1,+1}^n and are stored bit-packed in a
Python integer (bit i set means spin i is +1), so Hamming distances reduce to
``(a ^ b).bit_count()`` and overlaps are exact rationals k/n realized in
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError

LOG2 = math.log(2.0)

# Sampling a cloud in exact mode scans all 2^n sites in fixed-size chunks so
# the stream of uniforms (and hence the cloud) is reproducible bit for bit.
_EXACT_MODE_MAX_N = 24
_SCAN_CHUNK = 1 << 20


@dataclass(frozen=True, order=True)
class SpinConfig:
    """One configuration sigma in {-1,+1}^n, bit-packed (bit set <=> spin +1)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError(f"dimension must be positive, got n={self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise UsageError("bits outside the first n positions must be zero")

    @classmethod
    def from_signs(cls, signs) -> "SpinConfig":
        signs = np.asarray(signs)
        bits = 0
        for i, s in enumerate(signs):
            if s > 0:
                bits |= 1 << i
        return cls(n=len(signs), bits=bits)

    def to_signs(self) -> np.ndarray:
        """Return the configuration as an int8 vector of +-1."""
        nbytes = (self.n + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little", count=self.n)
        return (2 * bits.astype(np.int8) - 1)

    def complement(self) -> "SpinConfig":
        mask = (1 << self.n) - 1
        return SpinConfig(n=self.n, bits=self.bits ^ mask)


def hamming(a: SpinConfig, b: SpinConfig) -> int:
    """Number of spins where a and b disagree."""
    if a.n != b.n:
        raise UsageError(f"dimension mismatch: {a.n} vs {b.n}")
    return (a.bits ^ b.bits).bit_count()


def overlap(a: SpinConfig, b: SpinConfig) -> float:
    """Normalized inner product R(a, b) = 1 - 2 d_H / n, exact on the grid."""
    d = hamming(a, b)
    return (a.n - 2 * d) / a.n


@dataclass(frozen=True)
class OverlapGrid:
    """The n+1 values {1 - 2k/n} an overlap can take at dimension n."""

    n: int

    @cached_property
    def values(self) -> np.ndarray:
        # same expression as overlap(): integer numerator, one rounding step,
        # so grid values compare equal to computed overlaps bit for bit
        return (self.n - 2.0 * np.arange(self.n + 1)) / self.n

    def k_of(self, r: float) -> int:
        """Map a grid overlap to its Hamming count k; reject off-grid values."""
        k = (1.0 - r) * self.n / 2.0
        ki = int(round(k))
        if not 0 <= ki <= self.n or abs(k - ki) > 1e-9:
            raise UsageError(f"overlap {r} is not on the grid for n={self.n}")
        return ki


@dataclass(frozen=True)
class Cloud:
    """A sorted set of distinct configurations with target mean size 2^m."""

    n: int
    m: float
    members: tuple

    def __post_init__(self) -> None:
        if any(cfg.n != self.n for cfg in self.members):
            raise UsageError("all cloud members must share the cloud dimension")
        bits = [cfg.bits for cfg in self.members]
        if len(set(bits)) != len(bits):
            raise UsageError("cloud members must be distinct")
        if any(b2 <= b1 for b1, b2 in zip(bits, bits[1:])):
            raise UsageError("cloud members must be sorted by bit pattern")

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_bits(cls, n: int, bits, m: float | None = None) -> "Cloud":
        members = tuple(SpinConfig(n=n, bits=int(b)) for b in sorted(set(bits)))
        if m is None:
            m = math.log2(max(len(members), 1))
        return cls(n=n, m=float(m), members=members)

    @cached_property
    def sign_matrix(self) -> np.ndarray:
        """(|X|, n) float64 matrix of +-1 spins, one row per member."""
        nbytes = (self.n + 7) // 8
        raw = np.empty((len(self.members), nbytes), dtype=np.uint8)
        for i, cfg in enumerate(self.members):
            raw[i] = np.frombuffer(cfg.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, axis=1, bitorder="little", count=self.n)
        return 2.0 * bits.astype(np.float64) - 1.0

    def overlap_matrix(self) -> np.ndarray:
        """All pairwise overlaps via one Gram product (exact: integer sums)."""
        s = self.sign_matrix
        return (s @ s.T) / self.n


def delta_n(n: int, m: float) -> float:
    """High-probability bound on the maximal |overlap| within a cloud.

    4*sqrt(m*log2/n + log(n)/n), capped at 1 where the raw bound is vacuous.
    """
    if n < 2:
        raise UsageError(f"delta_n requires n >= 2, got {n}")
    raw = 4.0 * math.sqrt(m * LOG2 / n + math.log(n) / n)
    return min(1.0, raw)


def _sample_exact(n: int, p: float, rng: np.random.Generator) -> list:
    kept: list[int] = []
    total = 1 << n
    for start in range(0, total, _SCAN_CHUNK):
        size = min(_SCAN_CHUNK, total - start)
        u = rng.random(size)
        kept.extend((start + np.nonzero(u < p)[0]).tolist())
    return kept


def _sample_large_n(n: int, m: float, rng: np.random.Generator) -> list:
    target = int(rng.poisson(2.0**m))
    nbytes = (n + 7) // 8
    tail_mask = 0xFF if n % 8 == 0 else (1 << (n % 8)) - 1
    seen: set[int] = set()
    # Expected duplicate count is ~K^2/2^n < 1 for every supported (n, m),
    # so a top-up loop runs at most a couple of times.
    while len(seen) < target:
        need = target - len(seen)
        raw = rng.integers(0, 256, size=(need, nbytes), dtype=np.uint8)
        raw[:, -1] &= tail_mask
        for row in raw:
            seen.add(int.from_bytes(row.tobytes(), "little"))
    return sorted(seen)


def sample_cloud(
    n: int,
    m: float,
    rng: np.random.Generator,
    mode: str = "auto",
) -> Cloud:
    """Sample a Bernoulli site-percolation subset with inclusion p = 2^(m-n).

    ``exact`` scans all 2^n sites (n <= 24); ``large_n`` draws a Poisson(2^m)
    number of distinct uniform bitstrings, which is within total-variation
    2^(-n/2) of the exact law once n > 30 and m <= n/2. ``large_n`` refuses
    m > n/2: a dense cloud turns its distinct-string loop into a coupon
    collector, which never ends once the Poisson target exceeds 2^n.
    """
    if m > n:
        raise UsageError(f"need 2^m <= 2^n, got m={m} > n={n}")
    if mode == "auto":
        mode = "exact" if n <= _EXACT_MODE_MAX_N else "large_n"
    if mode not in ("exact", "large_n"):
        raise UsageError(f"unknown cloud-sampling mode {mode!r}")
    if mode == "exact" and n > _EXACT_MODE_MAX_N:
        raise UsageError(f"exact mode enumerates 2^n sites; limited to n <= {_EXACT_MODE_MAX_N}")
    if mode == "large_n" and m > n / 2:
        raise UsageError(
            f"large_n cloud sampling needs m <= n/2, got m={m} with n={n}; "
            f"dense clouds need exact mode (n <= {_EXACT_MODE_MAX_N})"
        )

    for attempt in range(2):
        if mode == "exact":
            bits = _sample_exact(n, 2.0 ** (m - n), rng)
        else:
            bits = _sample_large_n(n, m, rng)
        if len(bits) >= 2:
            members = tuple(SpinConfig(n=n, bits=b) for b in bits)
            return Cloud(n=n, m=m, members=members)
    raise UsageError(
        f"cloud with n={n}, m={m} came back with fewer than 2 members after a resample; "
        "experiments need |X| >= 2, increase m"
    )
