"""Hamiltonian samplers: explicit p-spin couplings, Cholesky field, coupling laws.

The energy vector over a cloud is centered with unit variance and covariance
nu(R) built from the mixture. The model and its cloud choose the route, in
``cholesky_sampler``. The explicit route draws the REM's independent
energies, or the couplings of a single term with p in {1, 2}; it takes every
non-Gaussian law (only such terms admit one), and Gaussian p in {1, 2} past
``_CHOLESKY_MAX_SIZE`` members. Every other model takes the Cholesky route,
which factors the cloud's overlap kernel once. Energies are plain float64
arrays aligned with the cloud's members; ``pipeline`` draws them block by
block, one column per replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .core import Cloud
from .errors import NumericalError, UsageError

_CHOLESKY_MAX_SIZE = 8192
_EXPLICIT_P2_MAX_N = 20000
_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

# Fourth-cumulant coefficient c4 = -kappa4/24 of each unit-variance law.
_C4 = {"gaussian": 0.0, "uniform": 1.0 / 20.0, "laplace": -1.0 / 8.0}


def coupling_c4(kind: str) -> float:
    """Quartic coefficient of -log(Fourier transform) for the coupling law."""
    try:
        return _C4[kind]
    except KeyError:
        raise UsageError(f"unknown coupling kind {kind!r}") from None


@dataclass(frozen=True)
class CouplingDist:
    """An even, unit-variance coupling law identified by name."""

    kind: str = "gaussian"

    def __post_init__(self) -> None:
        coupling_c4(self.kind)  # validates the name

    @property
    def c4(self) -> float:
        return coupling_c4(self.kind)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Inverse-CDF sampling from shared uniforms.

        Every kind consumes one 53-bit uniform per draw, so the replica
        stream layout is identical across coupling kinds. The law is applied
        in place, one elementwise step at a time.
        """
        u = rng.integers(0, 1 << 53, size=size, dtype=np.int64) + 0.5
        u /= float(1 << 53)
        # 2^53 - 1 + 0.5 rounds to 2^53: keep u below 1 so no law is infinite
        np.minimum(u, np.nextafter(1.0, 0.0), out=u)
        if self.kind == "gaussian":
            return ndtri(u, out=u)
        if self.kind == "uniform":
            u *= 2.0
            u -= 1.0
            u *= math.sqrt(3.0)
            return u
        # unit-variance Laplace: -sign(h) log1p(-2|h|) / sqrt(2), h = u - 0.5;
        # negating where h >= 0 gives the same bits, +0.0 at h = 0 included
        u -= 0.5
        flip = u >= 0.0
        np.abs(u, out=u)
        u *= -2.0
        np.log1p(u, out=u)
        np.negative(u, out=u, where=flip)
        u /= math.sqrt(2.0)
        return u


@dataclass(frozen=True)
class ModelSpec:
    """Covariance mixture plus coupling law; defines the Hamiltonian's law.

    ``mixture`` is a tuple of (p, a_p) with sum a_p^2 = 1; ``mixture=None``
    is the independent-energies reference model (nu = 0 away from r = 1).
    """

    mixture: tuple | None
    coupling: CouplingDist = field(default_factory=CouplingDist)

    def __post_init__(self) -> None:
        if self.mixture is None:
            if self.coupling.kind != "gaussian":
                raise UsageError("the independent-energies model is Gaussian only")
            return
        mix = tuple((int(p), float(a)) for p, a in self.mixture)
        object.__setattr__(self, "mixture", mix)
        if not mix:
            raise UsageError("mixture must have at least one term")
        if any(p < 1 for p, _ in mix):
            raise UsageError("mixture powers must be >= 1 (no constant term)")
        if len({p for p, _ in mix}) != len(mix):
            raise UsageError("mixture powers must be distinct")
        total = sum(a * a for _, a in mix)
        if abs(total - 1.0) > 1e-12:
            raise UsageError(f"mixture weights must satisfy sum a_p^2 = 1, got {total}")
        if self.coupling.kind != "gaussian" and not self.explicit_ok:
            raise UsageError(
                "non-Gaussian couplings need a single mixture term with p in {1, 2} "
                "(explicit couplings)"
            )
        # nu is a sum of a_p^2 r^p, hence nondecreasing on [0,1] with
        # nu(0)=0, nu(1)=1; spot-check the normalization anyway.
        if not (abs(self.nu(1.0) - 1.0) < 1e-9 and abs(self.nu(0.0)) < 1e-15):
            raise UsageError("mixture must give nu(1) = 1 and nu(0) = 0")

    @classmethod
    def rem(cls) -> "ModelSpec":
        return cls(mixture=None)

    @classmethod
    def pure(cls, p: int, coupling: str = "gaussian") -> "ModelSpec":
        return cls(mixture=((p, 1.0),), coupling=CouplingDist(coupling))

    @classmethod
    def npp(cls, coupling: str = "gaussian") -> "ModelSpec":
        return cls.pure(1, coupling)

    @classmethod
    def sk(cls, coupling: str = "gaussian") -> "ModelSpec":
        return cls.pure(2, coupling)

    @property
    def is_rem(self) -> bool:
        return self.mixture is None

    @property
    def explicit_ok(self) -> bool:
        """Whether sample_explicit can draw this model: the REM or one term with p in {1, 2}."""
        return self.is_rem or (len(self.mixture) == 1 and self.mixture[0][0] in (1, 2))

    def nu(self, r):
        """Covariance as a function of the overlap."""
        r = np.asarray(r, dtype=float)
        if self.is_rem:
            out = np.where(r >= 1.0 - 1e-15, 1.0, 0.0)
        else:
            out = np.zeros_like(r)
            for p, a in self.mixture:
                out = out + (a * a) * r**p
        return float(out) if out.ndim == 0 else out


def sample_explicit(spec: ModelSpec, cloud: Cloud, rng: np.random.Generator) -> np.ndarray:
    """Draw the couplings themselves and contract them against the cloud.

    Pure p in {1, 2}: H(sigma) = a_p n^(-p/2) sum g_{i..} sigma_{i1}..sigma_{ip}
    over all ordered index tuples (diagonal included), which makes the
    covariance exactly nu(R) = a_p^2 R^p.
    """
    if spec.is_rem:
        return rng.standard_normal(len(cloud))
    if not spec.explicit_ok:
        raise UsageError("explicit sampler supports a single mixture term with p in {1, 2}")
    p, a = spec.mixture[0]
    n = cloud.n
    s = cloud.sign_matrix
    if p == 1:
        g = spec.coupling.draw(rng, n)
        values = a * (s @ g) / math.sqrt(n)
    else:
        if n > _EXPLICIT_P2_MAX_N:
            raise UsageError(f"explicit p=2 stores n^2 couplings; n={n} > {_EXPLICIT_P2_MAX_N}")
        g = spec.coupling.draw(rng, (n, n))
        values = a * np.einsum("ki,ij,kj->k", s, g, s) / n
    if not np.all(np.isfinite(values)):
        raise NumericalError("explicit energies contain non-finite values")
    return values


class CholeskySampler:
    """Factor the overlap kernel of a fixed cloud once; draw replicas cheaply.

    The factor is read-only after construction and safe to share across
    replica workers.
    """

    def __init__(self, spec: ModelSpec, cloud: Cloud):
        if spec.coupling.kind != "gaussian":
            raise UsageError("the Cholesky route samples Gaussian fields only")
        if len(cloud) > _CHOLESKY_MAX_SIZE:
            raise UsageError(f"|X|={len(cloud)} exceeds the cubic factorization budget "
                             f"({_CHOLESKY_MAX_SIZE}); past it only the REM and p in {{1, 2}} run")
        self.low = _factor_with_jitter(spec.nu(cloud.overlap_matrix()))

    def sample_block(self, z: np.ndarray) -> np.ndarray:
        """Map a (|X|, B) block of standard normals to energies."""
        return self.low @ z


def _factor_with_jitter(kernel: np.ndarray) -> np.ndarray:
    # nu-kernels on the hypercube are positive semi-definite; near-duplicate
    # configurations can still make the matrix numerically singular.
    for jitter in _JITTER_LADDER:
        try:
            shifted = kernel if jitter == 0.0 else kernel + jitter * np.eye(len(kernel))
            low = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(low)):
            raise NumericalError("kernel factor contains non-finite values")
        return low
    raise NumericalError(
        f"kernel factorization failed even with diagonal jitter {_JITTER_LADDER[-1]:g}"
    )


def cholesky_sampler(spec: ModelSpec, cloud: Cloud) -> CholeskySampler | None:
    """The route that draws ``spec`` on ``cloud``: the cloud's kernel factor,
    or None where ``sample_explicit`` draws the model (the REM, a non-Gaussian
    coupling, or p in {1, 2} past the factorization budget)."""
    if spec.explicit_ok and (spec.is_rem or spec.coupling.kind != "gaussian"
                             or len(cloud) > _CHOLESKY_MAX_SIZE):
        return None
    return CholeskySampler(spec, cloud)


@dataclass(frozen=True)
class C4Estimate:
    estimate: float
    stderr: float


def estimate_c4_empirical(kind: str, samples: int, rng: np.random.Generator,
                          batches: int = 50) -> C4Estimate:
    """Estimate c4 = -kappa4/24 from draws, with a batch-means standard error.

    kappa4 is estimated per batch as m4 - 3 m2^2 (bias O(1/batch size), far
    below the Monte Carlo error at the required sample counts).
    """
    if samples < 10**6:
        raise UsageError("c4 estimation needs at least 1e6 samples")
    dist = CouplingDist(kind)
    per = samples // batches
    vals = np.empty(batches)
    for b in range(batches):
        x = dist.draw(rng, per)
        m2 = np.mean(x * x)
        m4 = np.mean(x**4)
        vals[b] = -(m4 - 3.0 * m2 * m2) / 24.0
    return C4Estimate(
        estimate=float(np.mean(vals)),
        stderr=float(np.std(vals, ddof=1) / math.sqrt(batches)),
    )
