import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtri

from remlab.core import Cloud, sample_cloud
from remlab.errors import NumericalError, UsageError
from remlab.models import (
    _CHOLESKY_MAX_SIZE,
    CholeskySampler,
    CouplingDist,
    ModelSpec,
    _factor_with_jitter,
    cholesky_sampler,
    coupling_c4,
    estimate_c4_empirical,
    sample_explicit,
)


def two_config_cloud(n: int, k_disagree: int) -> Cloud:
    a = (1 << n) - 1
    b = a ^ ((1 << k_disagree) - 1)
    return Cloud.from_bits(n, [a, b])


# ---------------------------------------------------------------- coupling law


def test_coupling_c4_exact_values():
    assert coupling_c4("gaussian") == 0.0
    assert coupling_c4("uniform") == pytest.approx(0.05, abs=1e-15)
    assert coupling_c4("laplace") == pytest.approx(-0.125, abs=1e-15)
    with pytest.raises(UsageError):
        coupling_c4("cauchy")


def test_coupling_c4_against_moment_quadrature():
    # kappa4 = E X^4 - 3 for a unit-variance law; c4 = -kappa4 / 24
    s3 = math.sqrt(3.0)
    m4_uniform, _ = integrate.quad(lambda x: x**4 / (2 * s3), -s3, s3)
    assert -(m4_uniform - 3.0) / 24.0 == pytest.approx(coupling_c4("uniform"), abs=1e-10)
    b = 1.0 / math.sqrt(2.0)
    m4_laplace, _ = integrate.quad(
        lambda x: x**4 * math.exp(-abs(x) / b) / (2 * b), -30, 30
    )
    assert -(m4_laplace - 3.0) / 24.0 == pytest.approx(coupling_c4("laplace"), abs=1e-8)


def test_coupling_c4_against_log_fourier_series():
    # -log(rho_hat(z)) = (2 pi z)^2/2 + c4 (2 pi z)^4 + O(z^6)
    for kind in ("uniform", "laplace"):
        b = 1.0 / math.sqrt(2.0)
        s3 = math.sqrt(3.0)
        def rho_hat(z):
            if kind == "uniform":
                val, _ = integrate.quad(
                    lambda x: math.cos(2 * math.pi * z * x) / (2 * s3), -s3, s3,
                    limit=200,
                )
            else:
                val, _ = integrate.quad(
                    lambda x: math.cos(2 * math.pi * z * x)
                    * math.exp(-abs(x) / b) / (2 * b),
                    -40, 40, limit=400,
                )
            return val
        z = 3e-3
        est = (-math.log(rho_hat(z)) - 0.5 * (2 * math.pi * z) ** 2) / (2 * math.pi * z) ** 4
        assert est == pytest.approx(coupling_c4(kind), abs=5e-4)


def test_coupling_draws_variance_and_parity():
    for kind in ("gaussian", "uniform", "laplace"):
        x = CouplingDist(kind).draw(np.random.default_rng(0), 400_000)
        assert abs(x.mean()) < 4.0 / math.sqrt(len(x))
        assert abs(x.var() - 1.0) < 0.02


def _draw_oracle(kind, rng, size):
    """The out-of-place inverse-CDF formula that ``CouplingDist.draw`` evaluates in place."""
    u = (rng.integers(0, 1 << 53, size=size, dtype=np.int64) + 0.5) / float(1 << 53)
    if kind == "gaussian":
        return ndtri(u)
    if kind == "uniform":
        return math.sqrt(3.0) * (2.0 * u - 1.0)
    half = u - 0.5
    return -np.sign(half) * np.log1p(-2.0 * np.abs(half)) / math.sqrt(2.0)


class _FixedIntegers:
    """Hands out fixed 53-bit integers: both ends, and u = 0.5 (h = 0) with its neighbours."""

    def integers(self, low, high, size, dtype):
        return np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2], dtype=dtype)


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "laplace"])
def test_coupling_draw_in_place_is_bit_identical(kind):
    # compared as bytes, so the sign of a zero counts too
    dist = CouplingDist(kind)
    for seed in range(20):
        got = dist.draw(np.random.default_rng(seed), (64, 48))
        want = _draw_oracle(kind, np.random.default_rng(seed), (64, 48))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got, want = dist.draw(_FixedIntegers(), 6), _draw_oracle(kind, _FixedIntegers(), 6)
    assert np.all(np.isfinite(got)) and got.tobytes() == want.tobytes()


class _TopIntegers:
    """Hands out 0 and the two largest 53-bit integers; (2^53 - 1) + 0.5 rounds to 2^53."""

    def integers(self, low, high, size, dtype):
        return np.array([0, 2**53 - 2, 2**53 - 1], dtype=dtype)


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "laplace"])
def test_coupling_draw_is_finite_at_the_largest_integer(kind):
    got = CouplingDist(kind).draw(_TopIntegers(), 3)
    want = _draw_oracle(kind, _TopIntegers(), 3)
    assert np.all(np.isfinite(got)), got
    assert got[:2].tobytes() == want[:2].tobytes()
    if kind != "uniform":
        assert not np.isfinite(want[2])  # the unclamped formula is infinite there


def test_estimate_c4_empirical():
    with pytest.raises(UsageError):
        estimate_c4_empirical("uniform", 10_000, np.random.default_rng(0))
    for kind in ("gaussian", "uniform", "laplace"):
        est = estimate_c4_empirical(kind, 2_000_000, np.random.default_rng(1))
        assert abs(est.estimate - coupling_c4(kind)) <= 3 * est.stderr


# ------------------------------------------------------------------ model spec


def test_model_spec_validation():
    with pytest.raises(UsageError):
        ModelSpec(mixture=((1, 0.5),))  # weights not normalized
    with pytest.raises(UsageError):
        ModelSpec(mixture=((0, 1.0),))  # constant term forbidden
    with pytest.raises(UsageError):
        ModelSpec(mixture=((3, 1.0),), coupling=CouplingDist("uniform"))
    with pytest.raises(UsageError):
        ModelSpec(
            mixture=((1, math.sqrt(0.5)), (2, math.sqrt(0.5))),
            coupling=CouplingDist("laplace"),
        )
    spec = ModelSpec(mixture=((1, math.sqrt(0.5)), (2, math.sqrt(0.5))))
    assert spec.nu(0.0) == 0.0
    assert spec.nu(1.0) == pytest.approx(1.0, abs=1e-15)
    assert spec.nu(0.5) == pytest.approx(0.375, abs=1e-15)
    rem = ModelSpec.rem()
    assert rem.nu(0.5) == 0.0 and rem.nu(1.0) == 1.0


def test_nu_monotone_on_unit_interval():
    spec = ModelSpec(mixture=((1, 0.6), (2, 0.8)))
    r = np.linspace(0, 1, 101)
    nu = spec.nu(r)
    assert np.all(np.diff(nu) >= 0)


# -------------------------------------------------------------------- samplers


def test_explicit_p1_single_coupling_anticorrelated():
    cloud = Cloud.from_bits(1, [0, 1])
    sample = sample_explicit(ModelSpec.npp(), cloud, np.random.default_rng(0))
    assert sample[0] == pytest.approx(-sample[1], abs=0)


def test_explicit_p1_unit_variance():
    cloud = Cloud.from_bits(8, [255])
    rng = np.random.default_rng(1)
    vals = np.array([
        sample_explicit(ModelSpec.npp(), cloud, rng)[0] for _ in range(100_000)
    ])
    assert abs(vals.var() - 1.0) < 0.02


def test_explicit_p2_zero_overlap_covariance():
    cloud = two_config_cloud(8, 4)  # R = 0
    rng = np.random.default_rng(2)
    vals = np.array([
        sample_explicit(ModelSpec.sk(), cloud, rng) for _ in range(100_000)
    ])
    cov = np.cov(vals.T)
    assert abs(cov[0, 1]) <= 3 * 10**-2.5
    assert abs(cov[0, 0] - 1.0) < 0.02 and abs(cov[1, 1] - 1.0) < 0.02


def test_cholesky_single_member_is_standard_normal():
    cloud = Cloud.from_bits(6, [0])
    sampler = CholeskySampler(ModelSpec.sk(), cloud)
    rng = np.random.default_rng(3)
    vals = sampler.sample_block(rng.standard_normal((50_000, 1)).T).T[:, 0]
    assert abs(vals.mean()) < 0.02 and abs(vals.var() - 1.0) < 0.03


def test_cholesky_mixture_covariance():
    # two configurations at overlap 1/2 under the half-and-half mixture:
    # cov = nu(0.5) = 0.375
    spec = ModelSpec(mixture=((1, math.sqrt(0.5)), (2, math.sqrt(0.5))))
    cloud = two_config_cloud(8, 2)  # R = 1 - 2*2/8 = 0.5
    sampler = CholeskySampler(spec, cloud)
    rng = np.random.default_rng(4)
    z = sampler.sample_block(rng.standard_normal((100_000, len(cloud))).T).T
    cov = np.cov(z.T)
    se = 1.2 / math.sqrt(len(z))
    assert abs(cov[0, 1] - 0.375) <= 3 * se


def test_cholesky_sk_three_config_covariance():
    cloud = Cloud.from_bits(12, [0, 0b111, 0b111111000000])
    gram = cloud.overlap_matrix()
    sampler = CholeskySampler(ModelSpec.sk(), cloud)
    rng = np.random.default_rng(5)
    z = sampler.sample_block(rng.standard_normal((100_000, len(cloud))).T).T
    cov = np.cov(z.T)
    for i in range(3):
        for j in range(3):
            assert abs(cov[i, j] - gram[i, j] ** 2) <= 4.0 / math.sqrt(len(z))


def test_gaussian_paths_agree_in_law():
    # p = 2, N = 256, fixed cloud of 64: the explicit-coupling route and the
    # factored-kernel route realize the same mean and covariance
    cloud = sample_cloud(256, 6.0, np.random.default_rng(6), mode="large_n")
    assert 40 <= len(cloud) <= 90
    spec = ModelSpec.sk()
    reps = 20_000
    rng_e = np.random.default_rng(7)
    ve = np.array([sample_explicit(spec, cloud, rng_e) for _ in range(reps)])
    sampler = CholeskySampler(spec, cloud)
    rng_c = np.random.default_rng(8)
    vc = sampler.sample_block(rng_c.standard_normal((reps, len(cloud))).T).T
    se_mean = math.sqrt(2.0 / reps)
    assert np.max(np.abs(ve.mean(0) - vc.mean(0))) <= 5 * se_mean
    se_cov = math.sqrt(2.0 * (1 + 1) / reps)
    # max over |X|^2 entries: widen to the Bonferroni-scale quantile
    assert np.max(np.abs(np.cov(ve.T) - np.cov(vc.T))) <= 5 * se_cov


def test_sampler_dispatch():
    # sample_explicit draws the REM and every non-Gaussian law (route None);
    # every other model on a small cloud gets the cloud's kernel factor
    small = two_config_cloud(8, 4)
    for spec in (ModelSpec.rem(), ModelSpec.npp("uniform"), ModelSpec.npp("laplace"),
                 ModelSpec.sk("uniform"), ModelSpec.sk("laplace")):
        assert cholesky_sampler(spec, small) is None
    for spec in (ModelSpec.npp(), ModelSpec.sk(), ModelSpec.pure(3),
                 ModelSpec(mixture=((1, 0.6), (3, 0.8)))):
        assert isinstance(cholesky_sampler(spec, small), CholeskySampler)
    # past the factorization budget Gaussian p in {1, 2} goes explicit, and
    # p = 3 is refused without naming a sampler the user could pick
    big = Cloud.from_bits(14, range(_CHOLESKY_MAX_SIZE + 1))
    assert cholesky_sampler(ModelSpec.npp(), big) is None
    assert cholesky_sampler(ModelSpec.sk(), big) is None
    with pytest.raises(UsageError, match="factorization budget") as refusal:
        cholesky_sampler(ModelSpec.pure(3), big)
    assert "sampler" not in str(refusal.value)


def test_explicit_rejects_high_p_and_cholesky_rejects_nongaussian():
    cloud = two_config_cloud(8, 4)
    with pytest.raises(UsageError):
        sample_explicit(ModelSpec.pure(3), cloud, np.random.default_rng(0))
    with pytest.raises(UsageError):
        CholeskySampler(ModelSpec.npp(coupling="laplace"), cloud)


def _sample_energies(spec, cloud, rng):
    chol = cholesky_sampler(spec, cloud)
    if chol is None:
        return sample_explicit(spec, cloud, rng)
    return chol.sample_block(rng.standard_normal((len(cloud), 1)))[:, 0]


def test_determinism_identical_bytes():
    cloud = two_config_cloud(16, 5)
    for spec in (ModelSpec.rem(), ModelSpec.npp(), ModelSpec.sk(),
                 ModelSpec.npp(coupling="uniform")):
        a, b = (_sample_energies(spec, cloud, np.random.default_rng(42)) for _ in range(2))
        assert a.tobytes() == b.tobytes()


def test_jitter_ladder():
    # exactly singular PSD kernel: succeeds after a diagonal boost
    ones = np.ones((3, 3))
    low = _factor_with_jitter(ones)
    assert np.allclose(low @ low.T, ones, atol=1e-5)
    with pytest.raises(NumericalError):
        _factor_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_non_finite_kernel_factor_raises():
    # numpy's Cholesky returns [[nan]] and [[inf]] for these without error
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError, match="non-finite"):
            _factor_with_jitter(np.array([[bad]]))
