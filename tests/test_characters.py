import math
import random
import warnings
from itertools import compress, cycle

import pytest

from twistselmer import quadfield as qf
from twistselmer.arith import squarefree_factors, squarefree_flags
from twistselmer.characters import enumerate_characters
from twistselmer.ekstats import empirical_moment, prime_sum_values
from twistselmer.selmer import g_of_primes, make_pair

# the norm-form search, the class lookups' oracle, is tested in its own
# module, and so are the unit classes as elements
from test_quadfield import generator_if_principal, ideal_of, units_mod_squares
from test_ekstats import omega


class TestEnumerate:
    def test_rational_small(self):
        # C(Q, X) is the signed squarefree d with 0 < |d| < X; ek reads one
        # value per |d| off squarefree_flags, here omega at 1, 2, 3, 5, 6, 7
        assert prime_sum_values(omega(10), 10).tolist() == [0, 1, 1, 1, 2, 1]
        assert prime_sum_values(omega(2), 2).tolist() == [0]

    def test_no_duplicates_and_stable(self):
        # h = 1: each conductor comes once per unit class, side by side, and no conductor twice
        K = qf.make_field(-1)
        a = enumerate_characters(K, 300)
        assert a == enumerate_characters(K, 300)
        n_units = len(units_mod_squares(K))
        assert all(a[i : i + n_units] == [a[i]] * n_units for i in range(0, len(a), n_units))
        assert len(set(a)) * n_units == len(a)

    def test_rational_density(self):
        count = 2 * squarefree_flags(1, 10**6).count(1)
        assert abs(count / (2 * 10**6 * 6 / math.pi**2) - 1) < 0.005

    def test_gaussian_matches_density_constant(self):
        # |C(K, X)| ~ c(K) X; for Q(i), with h = 1 and two unit classes, c(K) = 2 res zeta_K / zeta_K(2)
        K = qf.make_field(-1)
        X = 20000
        count = len(enumerate_characters(K, X))
        c = 2 * qf.zeta_residue(K) / qf.zeta_at_2(K)
        assert abs(count / X - c) / c < 0.02

    def test_small_cutoff_only_unit_ideals(self):
        K = qf.make_field(-1)
        assert enumerate_characters(K, 2) == [()] * 2  # (1), once per unit class

    # X at most 100 with Na < X/Nb^2 < ceil(X/Nb^2) for some b != (1) and Na a
    # conductor; -23 has h = 3, where the class of b^2 is not its own inverse
    @pytest.mark.parametrize("m, X", [(-5, 87), (-14, 95), (-23, 75), (10, 63), (34, 89)])
    def test_matches_principality_reference(self, m, X):
        # C(K, X) from the definition: every squarefree a and representative b
        # with N(a) N(b)^2 < X and a*b^2 principal by the norm-form search,
        # once per unit class; the ideal list shares no code with the stack walk
        K = qf.make_field(m)
        squarefree = [a for a in qf._ideals_up_to_norm(K, X - 1) if all(e == 1 for _, e in a.factorization)]
        n_units = len(units_mod_squares(K))
        reference = []
        for b in K.class_representatives:
            b2 = qf.ideal_mul(b, b)
            for a in squarefree:
                if a.norm * b2.norm < X and generator_if_principal(K, qf.ideal_mul(a, b2)) is not None:
                    reference += [a] * n_units
        assert [ideal_of(K, X, key) for key in enumerate_characters(K, X)] == reference

    def test_triples_match_elements_gaussian(self):
        # enumeration by triples = square classes of Gaussian integers of norm
        # < X.  Two of them, alpha and beta, share a class iff alpha*beta is a
        # square gamma^2, and then N(gamma) < X.
        K = qf.make_field(-1)
        X = 80

        def mul(a, b):
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

        bound = math.isqrt(X)
        gaussians = [
            (x, y)
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if (x, y) != (0, 0) and x * x + y * y < X
        ]
        squares = {mul(g, g) for g in gaussians}
        classes = []
        for alpha in gaussians:
            if not any(mul(alpha, c) in squares for c in classes):
                classes.append(alpha)
        conductors = enumerate_characters(K, X)
        units = units_mod_squares(K)
        # h = 1, so b = (1) and the triple (b, a, eps) stands for eps * (a generator of a);
        # each conductor a comes once per unit class, in unit order
        unit_index = cycle(range(len(units)))
        elements = [mul(units[next(unit_index)], generator_if_principal(K, ideal_of(K, X, a))) for a in conductors]
        assert len(classes) == len(conductors)
        for alpha in classes:
            assert sum(1 for e in elements if mul(alpha, e) in squares) == 1


def _omega_by_d(X):
    """omega at each squarefree 0 < d < X, as ek reads it off C(Q, X)."""
    values = prime_sum_values(omega(X), X)
    return dict(zip(compress(range(1, X), squarefree_flags(1, X)), values))


class TestEvalAdditive:
    # an additive function at a character is its sum over the primes of the
    # conductor: over Q by prime_sum_values and g_of_primes, over K by the
    # conductor ideals that empirical_moment and ek read
    def test_omega_examples(self):
        values = _omega_by_d(16)
        assert values[15] == 2
        assert values[1] == 0

    def test_curve_g_example(self):
        primes = dict(squarefree_factors(1, 12))
        assert g_of_primes(make_pair(1, -1), primes[11]) == -1

    def test_additive_over_coprime_products(self):
        values = _omega_by_d(10**5)
        rng = random.Random(11)
        pairs = 0
        while pairs < 1000:
            d1 = rng.randint(2, 300)
            d2 = rng.randint(2, 300)
            if d1 not in values or d2 not in values or math.gcd(d1, d2) != 1:
                continue
            pairs += 1
            assert values[d1 * d2] == values[d1] + values[d2]

    def test_omega_over_gaussian_field(self):
        K = qf.make_field(-1)
        (P3,) = qf.split_prime(K, 3)  # inert: one prime
        P5, P5c = qf.split_prime(K, 5)  # split: two primes
        X = 226
        keys = enumerate_characters(K, X)
        conductors = [ideal_of(K, X, key) for key in keys]
        assert qf.make_ideal([(P3, 1)]) in conductors
        assert qf.make_ideal([(P3, 1), (P5, 1), (P5c, 1)]) in conductors
        # the first moment of omega over C(K, X), against the conductors' primes of norm < z
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = empirical_moment(omega(X, K), X, 1, keys)
        mu_t = math.fsum(1 / (P.norm + 1) for P in qf.primes_up_to(K, math.ceil(rep.z)))
        counts = [sum(1 for P, _ in a.factorization if P.norm < rep.z) for a in conductors]
        assert abs(rep.empirical - (sum(counts) / len(counts) - mu_t)) < 1e-12
        assert max(counts) == 3
