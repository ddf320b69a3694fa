"""Poisson-Dirichlet moments and simulator, compared with replica Gibbs-weight power sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Cloud
from .errors import UsageError
from .models import ModelSpec
from .pipeline import gibbs_power_sums
from .pointproc import SQRT_2LOG2, Normalization

PD_ATOMS = 10_000


def pd_moment(m: float, k: int) -> float:
    """E sum_a w_a^k under Poisson-Dirichlet(m): prod_{j<k}(j-m) / (k-1)!."""
    if not 0.0 < m < 1.0:
        raise UsageError("Poisson-Dirichlet parameter must lie in (0, 1)")
    if k < 2:
        raise UsageError("power-sum moments need k >= 2")
    num = 1.0
    for j in range(1, k):
        num *= (j - m) / j
    return num


def sample_pd_weights(m: float, rng: np.random.Generator, atoms: int = PD_ATOMS) -> np.ndarray:
    """One draw of the ordered PD(m) weights via normalized Poisson atoms.

    Atoms are Gamma-arrival times raised to the power -1/m (a Poisson process
    with intensity proportional to x^(-m-1) dx). Truncating at `atoms` drops
    an expected unnormalized mass of m/(1-m) * x_min^(1-m) with
    x_min ~ atoms^(-1/m); at the default truncation this is far below the
    Monte Carlo error of any experiment here.
    """
    if not 0.0 < m < 1.0:
        raise UsageError("Poisson-Dirichlet parameter must lie in (0, 1)")
    arrivals = np.cumsum(rng.exponential(size=atoms))
    x = arrivals ** (-1.0 / m)
    return x / x.sum()


def pd_power_sum_mc(m: float, k: int, trials: int, rng: np.random.Generator,
                    atoms: int = PD_ATOMS) -> tuple:
    """Monte Carlo (mean, stderr) of E sum w^k from the PD simulator."""
    sums = np.empty(trials)
    for t in range(trials):
        w = sample_pd_weights(m, rng, atoms)
        sums[t] = np.sum(w**k)
    return float(np.mean(sums)), float(np.std(sums, ddof=1) / math.sqrt(trials))


@dataclass(frozen=True)
class PdCompareReport:
    beta: float
    m_pd: float
    replicas: int
    sum_w2: float
    sum_w2_stderr: float
    sum_w3: float
    sum_w3_stderr: float
    pd_w2: float
    pd_w3: float


def pd_compare(
    spec: ModelSpec,
    cloud: Cloud,
    beta: float,
    replicas: int,
    seed: int,
    mode: str = "quenched",
    threads: int = 1,
) -> PdCompareReport:
    """Estimate E sum w^2, E sum w^3 over disorder replicas vs PD(m) values."""
    if not beta > SQRT_2LOG2:
        raise UsageError(
            f"Poisson-Dirichlet convergence requires beta > sqrt(2 log 2) = {SQRT_2LOG2:.6f}"
        )
    if replicas < 2:
        raise UsageError("need at least two replicas")
    norm = Normalization(cloud.m)
    sums = gibbs_power_sums(spec, cloud, norm, beta, (2, 3), seed, replicas,
                            mode=mode, threads=threads)
    m_pd = SQRT_2LOG2 / beta
    root = math.sqrt(replicas)
    return PdCompareReport(
        beta=beta,
        m_pd=m_pd,
        replicas=replicas,
        sum_w2=float(np.mean(sums[:, 0])),
        sum_w2_stderr=float(np.std(sums[:, 0], ddof=1) / root),
        sum_w3=float(np.mean(sums[:, 1])),
        sum_w3_stderr=float(np.std(sums[:, 1], ddof=1) / root),
        pd_w2=pd_moment(m_pd, 2),
        pd_w3=pd_moment(m_pd, 3),
    )
