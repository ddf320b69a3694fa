"""remlab: level statistics of random Hamiltonians on sparse random clouds.

Monte Carlo samplers, exact overlap combinatorics, and semi-analytic
finite-n references for Poisson universality and its breakdown, plus the
Poisson-Dirichlet structure of low-temperature Gibbs weights.
"""

from .combinatorics import (
    RegimeLabel,
    brute_force_pair_census,
    brute_force_triple_census,
    classify_pair_regime,
    classify_triple_regime,
    cloud_pair_census,
    count_v2_exact,
    count_w3_exact,
    rate_j,
    rate_j2,
    solve_ndelta,
)
from .core import Cloud, delta_n, grid_index, overlap_grid, sample_cloud
from .errors import NumericalError, UsageError
from .gibbs import pd_compare, pd_moment, sample_pd_weights
from .models import (
    CouplingDist,
    ModelSpec,
    coupling_c4,
    estimate_c4_empirical,
    sample_explicit,
)
from .pointproc import (
    BorelWindow,
    CountVector,
    MomentReport,
    Normalization,
    factorial_moment,
    gibbs_weights,
    intensity_mu,
    moment_ratio,
    poisson_gof,
    spacing_test,
)
from .theory import (
    limit_constant,
    semianalytic_moment,
    semianalytic_pair_ratio,
    semianalytic_third_moment,
)

__version__ = "0.1.0"
