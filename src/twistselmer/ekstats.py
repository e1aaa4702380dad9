"""Gaussian-law statistics for additive functions on quadratic characters.

Mean and deviation sums over primes, centered per-prime variables,
empirical moments against the predicted Gaussian moment constants, the
multiplicative main-term function on prime-power ideals, empirical-CDF
reports with Kolmogorov-Smirnov distance, Mertens-type character sums
over Q, and the predicted spread of the curve twist statistic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import quadfield as qf
from .arith import kronecker, sieve_primes, squarefree_flags, squarefree_part
from .characters import enumerate_characters

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AdditiveFunctionSpec",
    "MomentReport",
    "DistributionReport",
    "omega_spec",
    "curve_g_spec",
    "mu_f",
    "sigma_f",
    "mu_tilde_f",
    "centered_g",
    "moment_constant",
    "empirical_moment",
    "prime_sum_values",
    "mainterm_G",
    "gaussian_cdf",
    "distribution_report",
    "mertens_char_sum",
    "sigma_g_predicted",
    "sigma_g_exact",
    "tail_fraction",
]


@dataclass(frozen=True)
class AdditiveFunctionSpec:
    """An additive function given by its values on primes (ideals)."""

    base_field: object  # "Q" or a QuadraticField
    value_at_prime: object  # callable: rational prime or PrimeIdealK -> float
    bounded_01: bool = False
    name: str = ""

    def value(self, prime) -> float:
        v = float(self.value_at_prime(prime))
        if self.bounded_01 and not 0.0 <= v <= 1.0:
            raise ValueError(f"{self.name or 'additive function'} leaves [0,1] at {prime}: {v}")
        return v


def omega_spec(base_field="Q") -> AdditiveFunctionSpec:
    """The number-of-prime-divisors function (1 at every prime)."""
    return AdditiveFunctionSpec(base_field, lambda p: 1.0, bounded_01=True, name="omega")


def curve_g_spec(pair) -> AdditiveFunctionSpec:
    """The per-prime twist statistic of an isogeny pair (values in {-1,0,1})."""
    bad = set(pair.bad_primes)

    def val(p):
        if p == 2 or p in bad:
            return 0.0
        return (kronecker(pair.b, p) - kronecker(pair.b_dual, p)) / 2.0

    return AdditiveFunctionSpec("Q", val, bounded_01=False, name=f"g[{pair.a},{pair.b}]")


@dataclass(frozen=True)
class MomentReport:
    X: int
    z: float
    k: int
    empirical: float
    predicted: float
    ratio: float
    within_uniform_range: bool


@dataclass(frozen=True)
class DistributionReport:
    X: int
    grid: tuple
    empirical_cdf: tuple
    gaussian_cdf: tuple
    ks: float


def _field_primes(f: AdditiveFunctionSpec, X):
    """The primes (prime ideals) of norm < X."""
    if f.base_field == "Q":
        return sieve_primes(max(2, math.ceil(X)))
    return qf.primes_up_to(f.base_field, math.ceil(X))


def _norm(prime) -> int:
    return prime if isinstance(prime, int) else prime.norm


def mu_f(f: AdditiveFunctionSpec, X) -> float:
    """Sum of f(p)/Np over primes of norm < X."""
    return math.fsum(f.value(p) / _norm(p) for p in _field_primes(f, X))


def sigma_f(f: AdditiveFunctionSpec, X) -> float:
    """Square root of the sum of f(p)^2/Np over primes of norm < X."""
    return math.sqrt(math.fsum(f.value(p) ** 2 / _norm(p) for p in _field_primes(f, X)))


def mu_tilde_f(f: AdditiveFunctionSpec, X) -> float:
    """Sum of f(p)/(Np+1) over primes of norm < X."""
    return math.fsum(f.value(p) / (_norm(p) + 1) for p in _field_primes(f, X))


def centered_g(f: AdditiveFunctionSpec, prime, chi) -> float:
    """The centered indicator variable of `prime` dividing the conductor."""
    n = _norm(prime)
    if chi.is_rational():
        divides = chi.d_conductor % (prime if isinstance(prime, int) else prime.p) == 0
    else:
        divides = any(P == prime for P, _ in chi.d_conductor.factorization)
    v = f.value(prime)
    return v * (1.0 - 1.0 / (n + 1)) if divides else -v / (n + 1)


def moment_constant(k: int) -> int:
    """Gaussian moment constant k!/(2^(k/2) (k/2)!) for even k."""
    if k % 2 or k < 2:
        raise ValueError("moment_constant is defined for even k >= 2")
    return math.factorial(k) // (2 ** (k // 2) * math.factorial(k // 2))


def _odd_moment_bound(k: int, sigma: float) -> float:
    ck = math.gamma(k + 1) / (2 ** (k / 2) * math.gamma(k / 2 + 1))
    return ck * sigma ** (k - 1) * k**1.5


def empirical_moment(f: AdditiveFunctionSpec, X: int, k: int) -> MomentReport:
    """k-th empirical moment of the centered prime sum over C(K, X), against
    the Gaussian prediction at the prime cutoff z = X^(1/(2k))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not f.bounded_01:
        raise ValueError("empirical_moment requires a [0,1]-bounded additive function")
    z = X ** (0.5 / k)  # the (1 - lambda)/k exponent with lambda = 1/2
    primes = _field_primes(f, z)
    mu_t = math.fsum(f.value(p) / (_norm(p) + 1) for p in primes)
    sigma = math.sqrt(math.fsum(f.value(p) ** 2 / _norm(p) for p in primes))
    if f.base_field == "Q":
        import numpy as np

        vals = prime_sum_values(f, X, primes) - mu_t
        empirical = float(np.mean(vals**k))
    else:
        chars = enumerate_characters(f.base_field, X)
        total = 0.0
        for chi in chars:
            s = -mu_t
            for P, _ in chi.d_conductor.factorization:
                if P.norm < z:
                    s += f.value(P)
            total += s**k
        empirical = total / len(chars)
    if k % 2 == 0:
        predicted = moment_constant(k) * sigma**k
    else:
        predicted = _odd_moment_bound(k, sigma)
    within = k <= sigma ** (2.0 / 3.0)
    if not within:
        warnings.warn(
            f"moment order k={k} exceeds sigma^(2/3)={sigma ** (2/3):.3f}: outside the uniform range",
            stacklevel=2,
        )
    ratio = empirical / predicted if predicted else math.inf
    return MomentReport(X, float(z), k, empirical, predicted, ratio, within)


def prime_sum_values(f: AdditiveFunctionSpec, X: int, primes) -> np.ndarray:
    """For each squarefree 0 < d < X, ascending: the sum of f(p) over the
    rational primes p in `primes` that divide d, added in the order of `primes`."""
    import numpy as np

    sums = np.zeros(X, dtype=np.float64)
    for p in primes:
        sums[p::p] += f.value(p)
    flags = np.frombuffer(squarefree_flags(1, X), dtype=np.uint8).astype(bool)
    return sums[1:][flags]


def mainterm_G(f: AdditiveFunctionSpec, q) -> float:
    """The multiplicative main-term function on a factored ideal (or a list of
    (rational prime, exponent) pairs over Q); zero unless square-full."""
    factors = q.factorization if hasattr(q, "factorization") else q
    out = 1.0
    for P, alpha in factors:
        if alpha == 1:
            return 0.0  # (1-u) + n*(-u) = 0 exactly at u = 1/(n+1)
        n = _norm(P)
        u = 1.0 / (n + 1)
        out *= f.value(P) ** alpha * u * ((1 - u) ** alpha + n * (-u) ** alpha)
    return out


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2))


def distribution_report(values, normalize, X: int | None = None) -> DistributionReport:
    """Empirical CDF of (v - center)/scale against the Gaussian CDF.

    Integer-valued inputs are compared on a half-integer-shifted grid
    (continuity correction); otherwise the jump points themselves are used
    and both one-sided gaps enter the KS distance.
    """
    import numpy as np

    center, scale = normalize
    if scale <= 0:
        raise ValueError("scale must be positive")
    vals = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    if len(vals) == 0:
        raise ValueError("values must be nonempty")
    n = len(vals)
    integral = bool(np.all(vals == np.round(vals)))
    if integral:
        lo, hi = int(vals[0]), int(vals[-1])
        # half-step grid on the data's own lattice, so that the report is
        # invariant under affine renormalization of (values, center, scale)
        step = int(np.gcd.reduce(vals.astype(np.int64) - lo)) or 1
        lattice = range(lo - step, hi + 1, step)
        grid = [(j + step / 2 - center) / scale for j in lattice]
        emp = [float(np.searchsorted(vals, j + step / 2)) / n for j in lattice]
        gauss = [gaussian_cdf(z) for z in grid]
        ks = max(abs(e - g) for e, g in zip(emp, gauss))
    else:
        zs = (vals - center) / scale
        grid = list(zs)
        emp = [(i + 1) / n for i in range(n)]
        gauss = [gaussian_cdf(z) for z in grid]
        ks = max(max(abs(e - g), abs(e - 1.0 / n - g)) for e, g in zip(emp, gauss))
    return DistributionReport(
        X if X is not None else n,
        tuple(grid),
        tuple(emp),
        tuple(gauss),
        float(ks),
    )


def mertens_char_sum(field, c, X) -> float:
    """Sum over primes p <= X of (1 + (c|p))/p for a nonsquare integer c.

    Defined over Q only (`field` must be "Q")."""
    if field != "Q":
        raise ValueError("mertens_char_sum is defined over Q only")
    if c >= 0 and math.isqrt(c) ** 2 == c:
        raise ValueError("c must not be a square")
    primes = [p for p in sieve_primes(int(X) + 2) if p <= X]
    period = 4 * abs(c)  # (c|.) is periodic with period 4|c| on odd arguments
    tab = {}
    acc = []
    for p in primes:
        if p == 2:
            sym = kronecker(c, 2)
        else:
            r = p % period
            sym = tab.get(r)
            if sym is None:
                sym = kronecker(c, p)
                tab[r] = sym
        acc.append((1 + sym) / p)
    return math.fsum(acc)


def sigma_g_predicted(X) -> float:
    """sqrt(log log X / 2), the predicted spread of the twist statistic."""
    if X <= math.e:
        raise ValueError("X must satisfy log log X > 0")
    return math.sqrt(0.5 * math.log(math.log(X)))


def sigma_g_exact(pair, X) -> float:
    """Exact finite version: sqrt of (1/2) * sum over good odd p <= X of
    (1 - chi(disc * disc'))/Np."""
    cls = squarefree_part(pair.b * pair.b_dual)
    acc = []
    for p in sieve_primes(int(X) + 2):
        if p > X or p == 2 or p in pair.bad_primes:
            continue
        acc.append((1 - kronecker(cls, p)) / (2.0 * p))
    return math.sqrt(math.fsum(acc))


def tail_fraction(values, r: int) -> float:
    """Fraction of the ord2T values with ord2T >= r."""
    if len(values) == 0:
        raise ValueError("tail_fraction of an empty result set")
    return sum(1 for v in values if v >= r) / len(values)
