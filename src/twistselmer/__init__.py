"""Two-isogeny Selmer data and Tamagawa ratios across quadratic twist
families of elliptic curves over Q, with Gaussian-law statistics for
additive functions on quadratic characters and the supporting
squarefree-ideal counting in quadratic number fields."""

from .arith import (
    REAL_PLACE,
    kronecker,
    sieve_primes,
    squarefree_part,
    torsor_locally_solvable,
)
from .characters import enumerate_characters
from .ekstats import (
    AdditiveFunctionSpec,
    DistributionReport,
    MomentReport,
    distribution_report,
    empirical_moment,
    gaussian_cdf,
    moment_constant,
    mu_f,
    omega_spec,
    sigma_f,
    sigma_g_predicted,
    tail_fraction,
)
from .quadfield import (
    IdealK,
    PrimeIdealK,
    QuadraticField,
    count_sf,
    make_field,
    mainterm_sf,
    phi_qd,
    primes_up_to,
    split_prime,
    squarefree_ideals_up_to,
    zeta_at_2,
    zeta_residue,
)
from .selmer import (
    DescentConsistencyError,
    IsogenyPair,
    SelmerDescentResult,
    audit_curve,
    descend,
    local_dim_good_ramified,
    local_image,
    make_pair,
    scan_twists,
)

__version__ = "0.1.0"
