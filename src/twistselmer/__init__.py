"""Two-isogeny Selmer data and Tamagawa ratios across quadratic twist
families of elliptic curves over Q, with Gaussian-law statistics for
additive functions on quadratic characters and the supporting
squarefree-ideal counting in quadratic number fields."""

from .arith import (
    REAL_PLACE,
    PrimeTable,
    SquareClassLocal,
    kronecker,
    local_square_classes,
    sieve_primes,
    squarefree_part,
    torsor_locally_solvable,
)
from .characters import (
    QuadraticCharacter,
    char_from_element,
    enumerate_characters,
    eval_additive,
    ramified_primes,
)
from .ekstats import (
    AdditiveFunctionSpec,
    DistributionReport,
    MomentReport,
    curve_g_spec,
    distribution_report,
    empirical_moment,
    gaussian_cdf,
    mainterm_G,
    mertens_char_sum,
    moment_constant,
    mu_f,
    mu_tilde_f,
    omega_spec,
    sigma_f,
    sigma_g_exact,
    sigma_g_predicted,
    tail_fraction,
)
from .quadfield import (
    IdealClassData,
    IdealK,
    PrimeIdealK,
    QuadraticField,
    count_sf,
    density_constant,
    make_field,
    mainterm_sf,
    phi_qd,
    primes_up_to,
    split_prime,
    squarefree_ideals_up_to,
    units_mod_squares,
    zeta_at_2,
    zeta_residue,
)
from .selmer import (
    DescentConsistencyError,
    IsogenyPair,
    SelmerDescentResult,
    audit_curve,
    descend,
    g_chi,
    local_dim_good_ramified,
    local_image,
    make_pair,
    scan_twists,
    selmer2_lower_bound,
)

__version__ = "0.1.0"
