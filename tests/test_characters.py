import math
import random

import pytest

from twistselmer import quadfield as qf
from twistselmer.arith import squarefree_part
from twistselmer.characters import (
    QuadraticCharacter,
    char_from_element,
    count_characters,
    enumerate_characters,
    eval_additive,
    ramified_primes,
)
from twistselmer.ekstats import omega_spec


class TestCharFromElement:
    def test_rational_examples(self):
        assert char_from_element("Q", 12).d_conductor == 3
        assert char_from_element("Q", 1).d_conductor == 1
        assert char_from_element("Q", -18).d_conductor == -2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            char_from_element("Q", 0)

    def test_square_multiple_invariance(self):
        for d in (7, -6, 15):
            for k in (2, 3, 10):
                assert char_from_element("Q", d * k * k) == char_from_element("Q", d)

    def test_defined_over_q_only(self):
        K = qf.make_field(-1)
        with pytest.raises(ValueError):
            char_from_element(K, (3, 0))
        with pytest.raises(ValueError):
            enumerate_characters(K, 10)[0].evaluate(qf.split_prime(K, 3)[0])


class TestEvaluate:
    def test_rational_values(self):
        chi5 = char_from_element("Q", 5)
        assert chi5.evaluate(11) == 1
        assert chi5.evaluate(13) == -1
        assert chi5.evaluate(5) == 0
        assert chi5.evaluate(2) == -1  # d = 1 mod 4: unramified at 2
        assert char_from_element("Q", 3).evaluate(2) == 0  # ramified at 2


class TestEnumerate:
    def test_rational_small(self):
        chars = enumerate_characters("Q", 10)
        assert [c.d_conductor for c in chars] == [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7]

    def test_no_duplicates_and_stable(self):
        a = enumerate_characters("Q", 300)
        b = enumerate_characters("Q", 300)
        assert a == b
        assert len({c.d_conductor for c in a}) == len(a)

    def test_rational_density(self):
        count = count_characters("Q", 10**6)
        assert abs(count / (2 * 10**6 * 6 / math.pi**2) - 1) < 0.005

    def test_gaussian_matches_density_constant(self):
        K = qf.make_field(-1)
        X = 20000
        count = count_characters(K, X)
        assert abs(count / X - qf.density_constant(K)) / qf.density_constant(K) < 0.02

    def test_small_cutoff_only_unit_ideals(self):
        K = qf.make_field(-1)
        chars = enumerate_characters(K, 2)
        assert all(c.d_conductor == qf.ONE_IDEAL for c in chars)
        assert len(chars) == 2  # unit classes only

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
        triples = enumerate_characters(K, X)
        units = qf.units_mod_squares(K)
        # h = 1, so b = (1) and the triple (b, a, eps) stands for eps * (a generator of a)
        elements = [mul(units[t.unit_index], qf.generator_if_principal(K, t.d_conductor)) for t in triples]
        assert len(classes) == len(triples)
        for alpha in classes:
            assert sum(1 for e in elements if mul(alpha, e) in squares) == 1


class TestRamifiedPrimes:
    def test_examples(self):
        assert ramified_primes(char_from_element("Q", 15)) == [3, 5]
        assert ramified_primes(char_from_element("Q", 1)) == []
        assert ramified_primes(char_from_element("Q", -6)) == [3]  # 2 never consumed

    def test_gaussian(self):
        K = qf.make_field(-1)
        chi = QuadraticCharacter(K, qf.make_ideal([(qf.split_prime(K, 3)[0], 1)]))  # 3 is inert
        assert [P.p for P in ramified_primes(chi)] == [3]


class TestEvalAdditive:
    def test_omega_examples(self):
        om = omega_spec()
        assert eval_additive(om, char_from_element("Q", 15)) == 2
        assert eval_additive(om, char_from_element("Q", 1)) == 0
        assert eval_additive(om, char_from_element("Q", -1)) == 0

    def test_curve_g_example(self):
        from twistselmer.ekstats import curve_g_spec
        from twistselmer.selmer import make_pair

        g = curve_g_spec(make_pair(1, -1))
        assert eval_additive(g, char_from_element("Q", 11)) == -1

    def test_additive_over_coprime_products(self):
        om = omega_spec()
        rng = random.Random(11)
        pairs = 0
        while pairs < 1000:
            d1 = squarefree_part(rng.randint(2, 5000))
            d2 = squarefree_part(rng.randint(2, 5000))
            if math.gcd(d1, d2) != 1:
                continue
            pairs += 1
            c1, c2 = char_from_element("Q", d1), char_from_element("Q", d2)
            prod = char_from_element("Q", d1 * d2)
            assert prod.d_conductor == squarefree_part(d1 * d2)
            assert eval_additive(om, prod) == eval_additive(om, c1) + eval_additive(om, c2)

    def test_omega_over_gaussian_field(self):
        K = qf.make_field(-1)
        om = omega_spec(K)
        (P3,) = qf.split_prime(K, 3)  # inert: one prime
        P5, P5c = qf.split_prime(K, 5)  # split: two primes
        assert eval_additive(om, QuadraticCharacter(K, qf.make_ideal([(P3, 1)]))) == 1
        assert eval_additive(om, QuadraticCharacter(K, qf.make_ideal([(P3, 1), (P5, 1), (P5c, 1)]))) == 3
