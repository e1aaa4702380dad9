import math
import random
import warnings
from collections import Counter
from itertools import compress

import numpy as np
import pytest

from twistselmer import quadfield as qf
from twistselmer.arith import kronecker, sieve_primes, squarefree_flags, squarefree_part
from twistselmer.characters import enumerate_characters
from twistselmer.cli import _cdf_csv
from twistselmer.ekstats import (
    _norm,
    conductor_sums,
    distribution_report,
    empirical_moment,
    gaussian_cdf,
    moment_constant,
    mu_f,
    prime_sum_values,
    prime_values,
    sigma_f,
    sigma_g_predicted,
    tail_fraction,
)

# the ideal of a conductor's prime indices, as the quadfield tests rebuild it
from test_quadfield import ideal_of
from twistselmer.selmer import make_pair


def simpson_normal_cdf(z, n=40000):
    """Quadrature oracle for the standard normal CDF (integrate from -12)."""
    lo = -12.0
    h = (z - lo) / n
    xs = [lo + i * h for i in range(n + 1)]
    ws = [1 if i in (0, n) else (4 if i % 2 else 2) for i in range(n + 1)]
    integral = sum(w * math.exp(-x * x / 2) for w, x in zip(ws, xs)) * h / 3
    return integral / math.sqrt(2 * math.pi)


# Sums that no command computes, kept as references: mu_tilde_f and
# sigma_g_exact check the statistics, mainterm_G and mertens_char_sum the
# paper's constants (acceptance criteria 5 and 8).


def omega(X, base="Q") -> dict:
    """The prime_values table of omega, the number of prime divisors: 1 at
    each prime of norm < X."""
    return prime_values(base, X, lambda P: 1.0)


def mu_tilde_f(values: dict) -> float:
    """Sum of f(p)/(Np+1) over the primes of a prime_values table."""
    return math.fsum(v / (_norm(p) + 1) for p, v in values.items())


def mainterm_G(values: dict, q) -> float:
    """The multiplicative main-term function of the additive function of a
    prime_values table on a factored ideal (or a list of (rational prime,
    exponent) pairs over Q); zero unless square-full."""
    factors = q.factorization if hasattr(q, "factorization") else q
    out = 1.0
    for P, alpha in factors:
        if alpha == 1:
            return 0.0  # (1-u) + n*(-u) = 0 exactly at u = 1/(n+1)
        n = _norm(P)
        u = 1.0 / (n + 1)
        out *= values[P] ** alpha * u * ((1 - u) ** alpha + n * (-u) ** alpha)
    return out


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


def slice_loop_prime_sums(values, X):
    """prime_sum_values as one slice per prime, in the table's order, with a
    uint8 -> bool mask: the loop it replaced, kept as its reference."""
    sums = np.zeros(X, dtype=np.float64)
    for p, v in values.items():
        sums[p::p] += v
    return sums[1:][np.frombuffer(squarefree_flags(1, X), dtype=np.uint8).astype(bool)]


def numpy_distribution_report(values, normalize, X=None):
    """distribution_report on a sorted float64 array, as it was computed
    before it was built from distinct values and counts: the reference."""
    center, scale = normalize
    vals = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    n = len(vals)
    if bool(np.all(vals == np.round(vals))):
        lo, hi = int(vals[0]), int(vals[-1])
        step = int(np.gcd.reduce(vals.astype(np.int64) - lo)) or 1
        lattice = range(lo - step, hi + 1, step)
        grid = [(j + step / 2 - center) / scale for j in lattice]
        emp = [float(np.searchsorted(vals, j + step / 2)) / n for j in lattice]
        gauss = [gaussian_cdf(z) for z in grid]
        ks = max(abs(e - g) for e, g in zip(emp, gauss))
    else:
        grid = list((vals - center) / scale)
        emp = [(i + 1) / n for i in range(n)]
        gauss = [gaussian_cdf(z) for z in grid]
        ks = max(max(abs(e - g), abs(e - 1.0 / n - g)) for e, g in zip(emp, gauss))
    return (X if X is not None else n, tuple(grid), tuple(emp), tuple(gauss), float(ks))


class TestMuSigma:
    def test_small_sums(self):
        om = omega(10)
        assert list(om) == [2, 3, 5, 7]
        assert abs(mu_f(om) - (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-14
        assert abs(sigma_f(om) - math.sqrt(1.1761904761904762)) < 1e-12
        assert omega(2) == {} and mu_f(omega(2)) == 0.0 and sigma_f(omega(2)) == 0.0

    def test_zero_function(self):
        for X in (10, 100, 1000):
            zero = prime_values("Q", X, lambda p: 0.0)
            assert mu_f(zero) == 0.0 and sigma_f(zero) == 0.0

    def test_mu_tilde(self):
        assert abs(mu_tilde_f(omega(10)) - 0.875) < 1e-15
        assert mu_tilde_f(omega(2)) == 0.0

    def test_mu_tilde_gap_bounded(self):
        gaps = [mu_f(om) - mu_tilde_f(om) for om in map(omega, (10**4, 10**5, 10**6))]
        assert all(0 <= g < 0.8 for g in gaps)
        assert gaps[-1] - gaps[-2] < 0.01  # stabilizing

    def test_over_gaussian_field(self):
        K = qf.make_field(-1)
        om = omega(10, K)
        # norms < 10: 2, 5, 5, 9; the keys are prime ideals, and their norms are read
        assert [P.norm for P in om] == [2, 5, 5, 9]
        assert abs(mu_f(om) - (1 / 2 + 2 / 5 + 1 / 9)) < 1e-14

    def test_bounded_01_enforced(self):
        # X = 10^4, k = 2: the cutoff z is 10, so the primes 2, 3, 5, 7 are read
        bad = prime_values("Q", 30, lambda p: 2.0)
        with pytest.raises(ValueError, match=r"\[0,1\].* 2: 2\.0"):
            empirical_moment(bad, 10**4, 2, None)
        # a value past the cutoff is not read
        late = prime_values("Q", 30, lambda p: 2.0 if p > 10 else 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert empirical_moment(late, 10**4, 2, None) == empirical_moment(omega(10), 10**4, 2, None)


class TestCenteredG:
    def test_centering_property_at_million(self):
        # divisibility frequency within 3 standard errors of 1/(p+1)
        X = 10**6
        pos = np.flatnonzero(np.frombuffer(squarefree_flags(1, X), dtype=np.uint8)) + 1
        n = 2 * len(pos)
        for p in sieve_primes(72)[:20]:
            freq = 2 * int(np.count_nonzero(pos % p == 0)) / n
            u = 1 / (p + 1)
            se = math.sqrt(u * (1 - u) / n)
            assert abs(freq - u) <= 3 * se, (p, freq, u)


class TestMomentConstant:
    def test_exact_values(self):
        assert moment_constant(2) == 1
        assert moment_constant(4) == 3
        assert moment_constant(6) == 15

    def test_double_factorial(self):
        for k in (2, 4, 6, 8):
            df = 1
            for j in range(k - 1, 0, -2):
                df *= j
            assert moment_constant(k) == df

    def test_rejects_odd(self):
        for k in (1, 3, 5):
            with pytest.raises(ValueError):
                moment_constant(k)


class TestEmpiricalMoment:
    def test_matches_direct_character_average(self):
        X = 3000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = empirical_moment(omega(X), X, 2, None)
        z = X ** 0.25
        primes = [p for p in sieve_primes(60) if p < z]
        mu_t = sum(1 / (p + 1) for p in primes)
        total = 0.0
        for d in compress(range(1, X), squarefree_flags(1, X)):
            s = -mu_t + sum(1 for p in primes if d % p == 0)
            total += 2 * s * s  # chi_d and chi_-d
        assert abs(rep.empirical - total / (2 * squarefree_flags(1, X).count(1))) < 1e-9

    def test_prime_sum_values_match_factorization(self):
        from twistselmer.arith import factorize

        primes = sieve_primes(30)
        X = 2000
        expected = []
        for d in range(1, X):
            fact = factorize(d)
            if all(e == 1 for _, e in fact):
                total = 0.0
                for p, _ in fact:
                    if p in primes:
                        total += 1.0 / p
                expected.append(total)
        assert prime_sum_values(prime_values("Q", 30, lambda p: 1.0 / p), X).tolist() == expected

    def test_zero_function_gives_zero(self):
        zero = prime_values("Q", 500, lambda p: 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert empirical_moment(zero, 500, 2, None).empirical == 0.0

    def test_flags_out_of_range_k(self):
        with pytest.warns(UserWarning):
            rep = empirical_moment(omega(10**4), 10**4, 4, None)
        assert not rep.within_uniform_range

    def test_requires_bounded(self):
        g = prime_values("Q", 100, lambda p: -1.0)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            empirical_moment(g, 100, 2, None)


class TestPrimeSumValues:
    # f(p) = 1/p has a full mantissa, so its sums depend on the order of addition
    F = staticmethod(lambda p: 1.0 / p)
    R = 97  # a prime: at X = R^2 it is the first prime added by multiplier

    def test_sums_depend_on_the_order(self):
        X = self.R**2
        table = prime_values("Q", X, self.F)
        backwards = dict(reversed(table.items()))
        assert slice_loop_prime_sums(backwards, X).tobytes() != slice_loop_prime_sums(table, X).tobytes()

    @pytest.mark.parametrize("X", [2, 3, 4, R**2 - 1, R**2, R**2 + 1])
    def test_matches_slice_loop_bitwise(self, X):
        table = prime_values("Q", X, self.F)
        assert prime_sum_values(table, X).tobytes() == slice_loop_prime_sums(table, X).tobytes()
        # the primes below a moment's cutoff only: no prime is added by multiplier below sqrt(X)
        small = {p: v for p, v in table.items() if p < 30}
        assert prime_sum_values(small, X).tobytes() == slice_loop_prime_sums(small, X).tobytes()


class TestValueTable:
    @staticmethod
    def counting():
        calls = []
        return lambda p: calls.append(p) or 0.5, calls

    def test_f_is_evaluated_once_per_prime_over_q(self):
        f, calls = self.counting()
        X = 5000
        table = prime_values("Q", X, f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in (1, 2):
                empirical_moment(table, X, k, None)
        prime_sum_values(table, X)
        mu_f(table), sigma_f(table)
        assert calls == list(sieve_primes(X)) == list(table)

    def test_f_is_evaluated_once_per_prime_over_k(self):
        K = qf.make_field(-5)
        f, calls = self.counting()
        X = 3000
        table = prime_values(K, X, f)
        conductors = enumerate_characters(K, X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            empirical_moment(table, X, 2, conductors)
        sums = conductor_sums(table, conductors)
        mu_f(table), sigma_f(table)
        assert calls == qf.primes_up_to(K, X) == list(table)
        assert sums == [sum(0.5 for _ in key) for key in conductors]

    def test_conductor_sums_below_a_cutoff(self):
        K = qf.make_field(-1)
        # the table of the primes of norm < 10 sums over those primes of each conductor
        table = omega(10, K)
        conductors = enumerate_characters(K, 200)
        got = conductor_sums(table, conductors, -0.25)
        ideals = [ideal_of(K, 200, key) for key in conductors]
        assert got == [-0.25 + sum(1 for P, _ in a.factorization if P.norm < 10) for a in ideals]


class TestMaintermG:
    def test_examples(self):
        unit = omega(20)
        assert mainterm_G(unit, [(3, 1)]) == 0.0
        assert abs(mainterm_G(unit, [(3, 2)]) - 3 / 16) < 1e-15
        assert mainterm_G(unit, []) == 1.0

    def test_bound_by_f_squared_over_p(self):
        unit = omega(20)
        for p in (3, 5, 7, 11):
            for alpha in (2, 3, 4):
                assert abs(mainterm_G(unit, [(p, alpha)])) <= 1 / p + 1e-15

    def test_vanishes_off_squarefull(self):
        unit = omega(20)
        rng = random.Random(31)
        primes = [3, 5, 7, 11, 13]
        for _ in range(100):
            n = rng.randint(1, 3)
            chosen = rng.sample(primes, n)
            exps = [rng.randint(1, 4) for _ in chosen]
            if all(e >= 2 for e in exps):
                exps[rng.randrange(n)] = 1
            assert mainterm_G(unit, list(zip(chosen, exps))) == 0.0

    def test_ideal_input(self):
        K = qf.make_field(-5)
        P3 = qf.split_prime(K, 3)[0]
        unit = omega(10, K)
        assert abs(mainterm_G(unit, qf.make_ideal([(P3, 2)])) - 3 / 16) < 1e-15


class TestGaussianCdf:
    def test_examples(self):
        assert gaussian_cdf(0) == 0.5
        assert abs(gaussian_cdf(1.96) - 0.975) < 1e-4
        for z in (0.3, 1.1, 2.5):
            assert abs(gaussian_cdf(-z) - (1 - gaussian_cdf(z))) < 1e-15

    def test_against_quadrature(self):
        for z in (-1.5, 0.0, 0.7, 2.1):
            assert abs(gaussian_cdf(z) - simpson_normal_cdf(z)) < 1e-9


class TestDistributionReport:
    def test_normal_sample(self):
        rng = np.random.default_rng(41)
        rep = distribution_report(rng.normal(size=30000), (0.0, 1.0))
        assert rep.ks < 0.02

    def test_constant_values(self):
        rep = distribution_report([2] * 50, (0.0, 1.0))
        assert rep.ks >= 0.45

    def test_monotone_cdfs(self):
        rep = distribution_report([0, 1, 1, 2, 4, -1], (1.0, 1.5))
        for seq in (rep.empirical_cdf, rep.gaussian_cdf):
            assert all(a <= b + 1e-15 for a, b in zip(seq, seq[1:]))
            assert all(0 <= v <= 1 for v in seq)

    def test_affine_invariance(self):
        vals = [1, 2, 2, 3, 5, 8]
        r1 = distribution_report(vals, (3.0, 2.0))
        r2 = distribution_report([10 * v + 4 for v in vals], (34.0, 20.0))
        assert abs(r1.ks - r2.ks) < 1e-12
        assert all(abs(a - b) < 1e-12 for a, b in zip(r1.grid, r2.grid))

    def test_lattice_against_gcd_loop(self):
        # integer values: the grid steps by the gcd of their offsets from the minimum, as a math.gcd loop finds it
        rng = random.Random(7)
        for _ in range(60):
            vals = [rng.choice((3, 6, -9, 12, 0)) * rng.randint(-5, 5) + 7 for _ in range(rng.randint(1, 30))]
            lo, hi = min(vals), max(vals)
            step = 0
            for v in vals:
                step = math.gcd(step, v - lo)
            step = step or 1
            rep = distribution_report(vals, (0.0, 1.0))
            lattice = range(lo - step, hi + 1, step)
            assert rep.grid == tuple(j + step / 2 for j in lattice), vals
            assert rep.empirical_cdf == tuple(sum(v <= j for v in vals) / len(vals) for j in lattice), vals

    def test_grid_entries_are_plain_floats(self):
        # numpy scalars print as np.float64(...) under numpy 2, which cdf.csv would write
        for values in ([0.5, 1.25, 2.0], np.array([0.5, 1.25, 2.0]), [1, 2, 2], np.array([1, 2, 2])):
            rep = distribution_report(values, (np.float64(1.0), np.float64(0.5)))
            for seq in (rep.grid, rep.empirical_cdf, rep.gaussian_cdf):
                assert all(type(v) is float for v in seq), (values, seq)
            assert type(rep.ks) is float
        rep = distribution_report(np.array([0.5, 1.25, 2.0]), (1.0, 0.5))
        assert _cdf_csv(rep).splitlines()[1] == "-1.0,0.3333333333333333,0.15865525393145707"

    def test_matches_sorted_array_report(self):
        rng = random.Random(5)
        samples = [
            [rng.randint(-4, 9) for _ in range(200)],
            [3 * rng.randint(-3, 3) + 1 for _ in range(50)],
            [rng.choice((0.5, 1.25, 2.0, -3.75)) for _ in range(40)],
            [rng.random() for _ in range(30)],
            [7] * 5,
            [0, 0.0, 1, 2.0],
        ]
        for vals in samples:
            for values in (vals, np.array(vals, dtype=np.float64), Counter(vals)):
                rep = distribution_report(values, (1.5, 0.75), X=99)
                assert (rep.X, rep.grid, rep.empirical_cdf, rep.gaussian_cdf, rep.ks) == numpy_distribution_report(
                    vals, (1.5, 0.75), X=99
                ), vals

    def test_rejects_empty(self):
        for values in ([], np.array([])):
            with pytest.raises(ValueError, match="nonempty"):
                distribution_report(values, (0.0, 1.0))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            distribution_report([1, 2], (0.0, 0.0))


class TestMertens:
    def test_example(self):
        assert abs(mertens_char_sum("Q", 5, 10) - 0.2) < 1e-15

    def test_empty(self):
        assert mertens_char_sum("Q", 5, 1.5) == 0.0

    def test_rejects_square(self):
        with pytest.raises(ValueError):
            mertens_char_sum("Q", 9, 100)

    def test_rejects_zero(self):
        # 0 = 0^2, and (0|.) would give a period 4|c| of 0
        with pytest.raises(ValueError, match="c must not be a square"):
            mertens_char_sum("Q", 0, 100)

    def test_loglog_growth(self):
        for c in (5, -1, -6):
            prev = None
            for X in (10**3, 10**4, 10**5, 10**6):
                val = mertens_char_sum("Q", c, X)
                diff = val - math.log(math.log(X))
                if prev is not None:
                    assert abs(diff - prev) < 0.5, (c, X)
                prev = diff

    def test_over_q_only(self):
        with pytest.raises(ValueError):
            mertens_char_sum(qf.make_field(-1), (3, 0), 100)


class TestSigmaG:
    def test_predicted_values(self):
        assert abs(sigma_g_predicted(math.e**math.e) - math.sqrt(0.5)) < 1e-12
        assert abs(sigma_g_predicted(10**6) - 1.1458167206137313) < 1e-12

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            sigma_g_predicted(2.0)

    def test_exact_minus_predicted_bounded(self):
        pair = make_pair(1, -1)
        diffs = [sigma_g_exact(pair, X) - sigma_g_predicted(X) for X in (10**3, 10**4, 10**5, 10**6)]
        assert all(abs(d) < 1.0 for d in diffs)
        # successive differences shrink as the character sum equidistributes
        assert abs(diffs[-1]) <= abs(diffs[0]) + 0.2


class TestOmegaDistributionTrend:
    def test_ks_nonincreasing_over_scales(self):
        ks = []
        for X in (10**4, 10**5, 10**6):
            om = omega(X)
            rep = distribution_report(prime_sum_values(om, X), (mu_f(om), sigma_f(om)), X=X)
            ks.append(rep.ks)
        assert ks[0] >= ks[1] >= ks[2]


class TestTailFraction:
    def test_extremes(self):
        assert tail_fraction(Counter([0, 1, -2]), -10**9) == 1.0
        assert tail_fraction(Counter([0, 1, -2]), 10**9) == 0.0

    def test_scan_ord2t_values(self):
        # the histogram that scan builds from its chunks, against descend's ord2T of each twist
        from twistselmer.selmer import descend, scan_twists

        pair = make_pair(1, -1)
        hist = Counter()
        for _, ord2t in scan_twists(pair, 30):
            hist.update(ord2t)
        vals = [descend(pair, d).ord2T_product for n in range(1, 30) if squarefree_part(n) == n for d in (n, -n)]
        assert hist == Counter(vals)
        for r in (0, 1, 2):
            assert tail_fraction(hist, r) == sum(v >= r for v in vals) / len(vals)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tail_fraction(Counter(), 0)
