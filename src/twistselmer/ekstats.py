"""Gaussian-law statistics for additive functions on quadratic characters.

Mean and deviation sums over primes, per-d prime sums over Q, empirical
moments of the centered prime sum against the predicted Gaussian moment
constants, empirical-CDF reports with Kolmogorov-Smirnov distance, and the
predicted spread of the curve twist statistic.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import takewhile
from typing import TYPE_CHECKING

from . import quadfield as qf
from .arith import sieve_primes, squarefree_flags
from .characters import enumerate_characters

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AdditiveFunctionSpec",
    "MomentReport",
    "DistributionReport",
    "omega_spec",
    "prime_values",
    "mu_f",
    "sigma_f",
    "moment_constant",
    "empirical_moment",
    "conductor_sums",
    "prime_sum_values",
    "gaussian_cdf",
    "distribution_report",
    "sigma_g_predicted",
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


@dataclass(frozen=True)
class MomentReport:
    X: int
    z: float
    k: int
    empirical: float
    predicted: float
    ratio: float | None  # None when the prediction is 0: no prime of norm below z
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


def _norms(f: AdditiveFunctionSpec, values: dict):
    """The norms of the primes of a prime_values table of f, in its order."""
    return values.keys() if f.base_field == "Q" else [P.norm for P in values]


def prime_values(f: AdditiveFunctionSpec, X) -> dict:
    """f at each prime (prime ideal) of norm < X, in order of norm.

    The one place where f is evaluated: mu_f, sigma_f, empirical_moment and
    prime_sum_values read such a table, the caller's or one of their own."""
    return {P: f.value(P) for P in _field_primes(f, X)}


def mu_f(f: AdditiveFunctionSpec, X, values: dict | None = None) -> float:
    """Sum of f(p)/Np over primes of norm < X; `values` is prime_values(f, X)."""
    if values is None:
        values = prime_values(f, X)
    return math.fsum(map(operator.truediv, values.values(), _norms(f, values)))


def sigma_f(f: AdditiveFunctionSpec, X, values: dict | None = None) -> float:
    """Square root of the sum of f(p)^2/Np over primes of norm < X; `values`
    is prime_values(f, X)."""
    if values is None:
        values = prime_values(f, X)
    return math.sqrt(math.fsum(v**2 / n for v, n in zip(values.values(), _norms(f, values))))


def moment_constant(k: int) -> int:
    """Gaussian moment constant k!/(2^(k/2) (k/2)!) for even k."""
    if k % 2 or k < 2:
        raise ValueError("moment_constant is defined for even k >= 2")
    return math.factorial(k) // (2 ** (k // 2) * math.factorial(k // 2))


def _odd_moment_bound(k: int, sigma: float) -> float:
    ck = math.gamma(k + 1) / (2 ** (k / 2) * math.gamma(k / 2 + 1))
    return ck * sigma ** (k - 1) * k**1.5


def empirical_moment(
    f: AdditiveFunctionSpec, X: int, k: int, values: dict | None = None, conductors: list | None = None
) -> MomentReport:
    """k-th empirical moment of the centered prime sum over C(K, X), against
    the Gaussian prediction at the prime cutoff z = X^(1/(2k)).

    A caller that holds prime_values(f, X), or over a field K the conductors
    enumerate_characters(K, X), passes them in; only the primes of norm < z
    are read."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not f.bounded_01:
        raise ValueError("empirical_moment requires a [0,1]-bounded additive function")
    z = X ** (0.5 / k)  # the (1 - lambda)/k exponent with lambda = 1/2
    if values is None:
        values = prime_values(f, z)
    else:  # the table is in order of norm, so the primes of norm < z are a prefix
        values = dict(takewhile(lambda item: _norm(item[0]) < z, values.items()))
    mu_t = math.fsum(v / (n + 1) for v, n in zip(values.values(), _norms(f, values)))
    sigma = sigma_f(f, z, values)
    if f.base_field == "Q":
        import numpy as np

        vals = prime_sum_values(f, X, values) - mu_t
        empirical = float(np.mean(vals**k))
    else:
        if conductors is None:
            conductors = enumerate_characters(f.base_field, X)
        total = 0.0
        for s in conductor_sums(values, conductors, -mu_t):
            total += s**k
        empirical = total / len(conductors)
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
    ratio = empirical / predicted if predicted else None
    return MomentReport(X, float(z), k, empirical, predicted, ratio, within)


def conductor_sums(values: dict, conductors: list, start: float = 0.0) -> list[float]:
    """For each conductor over K, the indices of its primes in primes_up_to
    (enumerate_characters): start plus the values of `values`, a
    prime_values table in that order, at those indices, ascending, up to the
    end of the table.  A table of the primes of norm < z thus sums over the
    primes of norm < z.

    A conductor comes once per unit class, side by side, so its sum is
    taken once and repeated."""
    vals = list(values.values())
    n = len(vals)
    out = []
    prev = None
    for key in conductors:
        if key is not prev:
            prev, s = key, start
            for j in key:
                if j >= n:
                    break
                s += vals[j]
        out.append(s)
    return out


def prime_sum_values(f: AdditiveFunctionSpec, X: int, values: dict | None = None) -> np.ndarray:
    """For each squarefree 0 < d < X, ascending: the sum of f(p) over the
    rational primes p of `values` (a prime_values table of f, by default that
    of X) that divide d.

    Each d receives its f(p) in ascending p.  A prime p with p^2 < X is added
    at its multiples, one slice each.  A d < X has at most one prime p with
    p^2 >= X, its largest, so those primes come last, one vector operation
    per squarefree multiplier k < X/p: about sqrt(X) operations, not pi(X)."""
    import numpy as np

    if values is None:
        values = prime_values(f, X)
    flags = squarefree_flags(1, X)
    sums = np.zeros(X, dtype=np.float64)
    ps = np.fromiter(values, dtype=np.int64, count=len(values))
    vs = np.fromiter(values.values(), dtype=np.float64, count=len(values))
    n_small = int(np.searchsorted(ps, math.isqrt(X - 1), side="right"))  # p^2 < X
    for p, v in zip(ps[:n_small].tolist(), vs[:n_small].tolist()):
        sums[p::p] += v
    big, big_vs = ps[n_small:], vs[n_small:]
    if len(big):
        for k in range(1, (X - 1) // int(big[0]) + 1):
            if flags[k - 1]:
                n = int(np.searchsorted(big, (X - 1) // k, side="right"))  # k*p < X
                sums[k * big[:n]] += big_vs[:n]
    return sums[1:][np.frombuffer(flags, dtype=np.bool_)]


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2))


def distribution_report(values, normalize, X: int | None = None) -> DistributionReport:
    """Empirical CDF of (v - center)/scale against the Gaussian CDF.

    Integer-valued inputs are compared on a half-integer-shifted grid
    (continuity correction); otherwise the jump points themselves are used
    and both one-sided gaps enter the KS distance.  The report is built from
    the sorted distinct values and their counts, which numpy takes for an
    ndarray and collections.Counter for any other iterable; a Counter is
    read as those counts.
    """
    center, scale = float(normalize[0]), float(normalize[1])
    if scale <= 0:
        raise ValueError("scale must be positive")
    if hasattr(values, "dtype"):
        import numpy as np

        distinct, counts = np.unique(np.asarray(values, dtype=np.float64), return_counts=True)
        distinct, counts = distinct.tolist(), counts.tolist()
    else:
        tally: Counter[float] = Counter()
        for v, c in Counter(values).items():
            tally[float(v)] += c
        distinct = sorted(tally)
        counts = [tally[v] for v in distinct]
    if not distinct:
        raise ValueError("values must be nonempty")
    n = sum(counts)
    if all(v.is_integer() for v in distinct):
        lo, hi = int(distinct[0]), int(distinct[-1])
        # half-step grid on the data's own lattice, so that the report is
        # invariant under affine renormalization of (values, center, scale)
        step = math.gcd(*(int(v) - lo for v in distinct)) or 1
        lattice = range(lo - step, hi + 1, step)
        grid = [(j + step / 2 - center) / scale for j in lattice]
        emp = []
        below = i = 0  # the number of values below j + step/2, and of distinct ones
        for j in lattice:
            while i < len(distinct) and distinct[i] < j + step / 2:
                below += counts[i]
                i += 1
            emp.append(below / n)
        gauss = [gaussian_cdf(z) for z in grid]
        ks = max(abs(e - g) for e, g in zip(emp, gauss))
    else:
        grid = []
        for v, c in zip(distinct, counts):
            grid += [(v - center) / scale] * c
        emp = [(i + 1) / n for i in range(n)]
        gauss = [gaussian_cdf(z) for z in grid]
        ks = max(max(abs(e - g), abs(e - 1.0 / n - g)) for e, g in zip(emp, gauss))
    return DistributionReport(X if X is not None else n, tuple(grid), tuple(emp), tuple(gauss), ks)


def sigma_g_predicted(X) -> float:
    """sqrt(log log X / 2), the predicted spread of the twist statistic."""
    if X <= math.e:
        raise ValueError("X must satisfy log log X > 0")
    return math.sqrt(0.5 * math.log(math.log(X)))


def tail_fraction(hist: Counter, r: int) -> float:
    """Fraction of the twists with ord2T >= r, from the histogram ord2T -> number of twists."""
    n = sum(hist.values())
    if n == 0:
        raise ValueError("tail_fraction of an empty histogram")
    return sum(c for v, c in hist.items() if v >= r) / n
