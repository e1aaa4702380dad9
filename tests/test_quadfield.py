import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import twistselmer.quadfield as qf
from twistselmer.arith import PRIME_SEGMENT, kronecker, prime_flags, sieve_primes, squarefree_part
from twistselmer.quadfield import (
    INERT,
    ONE_IDEAL,
    SPLIT,
    ZETA2_DEFAULT_CUTOFF,
    FieldTooLargeError,
    IdealK,
    QuadraticField,
    _fact_key,
    _ideals_up_to_norm,
    _omega_roots_mod_p,
    _squarefree_with_classes,
    count_sf,
    element_norm,
    generator_if_principal,
    ideal_conj,
    ideal_contains,
    ideal_mul,
    make_field,
    make_ideal,
    mainterm_sf,
    phi_qd,
    primes_up_to,
    split_prime,
    squarefree_ideals_up_to,
    units_mod_squares,
    zeta_at_2,
    zeta_residue,
)


def ideal_count_up_to(field, X: int) -> int:
    """Number of integral ideals of norm < X (multiplicative sieve)."""
    arr = [0] * X
    arr[1] = 1
    for p in sieve_primes(X):
        sym = kronecker(field.disc, p)
        if sym == 1:
            local = lambda j: j + 1
        elif sym == 0:
            local = lambda j: 1
        else:
            local = lambda j: 1 if j % 2 == 0 else 0
        # norms coprime to p live at indices not divisible by p, so no double count
        pj, j = p, 1
        updates = []
        while pj < X:
            cj = local(j)
            if cj:
                for k in range(1, (X - 1) // pj + 1):
                    if arr[k]:
                        updates.append((k * pj, cj * arr[k]))
            pj *= p
            j += 1
        for idx, v in updates:
            arr[idx] += v
    return sum(arr)


def reduced_form_count(D):
    """Class number of the imaginary quadratic order of discriminant D via
    reduced binary quadratic forms: |b| <= a <= c, b^2-4ac = D, b >= 0 when
    |b| = a or a = c."""
    count = 0
    a = 1
    while a * a <= abs(D) / 3 + 1:
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            count += 1
        a += 1
    return count


def brute_pell_unit(m, cap=10**5):
    """Smallest unit > 1 of O_K for real m by direct search (smallest y,
    then smallest x, scanning the norm -4 target before +4)."""
    for y in range(1, cap):
        for t in (m * y * y - 4, m * y * y + 4):
            if t < 0:
                continue
            x = math.isqrt(t)
            if x * x == t and (x - y) % 2 == 0:
                if m % 4 == 1:
                    return ((x - y) // 2, y)
                if x % 2 == 0 and y % 2 == 0:
                    return (x // 2, y // 2)
    raise AssertionError("no unit found")


def reference_generator_if_principal(field, a):
    """The norm-form search as it was written per field type (one loop for
    imaginary m = 1 mod 4, one for the other imaginary m, one for real m)."""
    n = a.norm
    if n == 1:
        return (1, 0)
    m = field.m
    if m < 0:
        # 4*N(x + y*omega) = (2x + t*y)^2 + |m'| y^2 with m' = -m*(1 or 4)
        if m % 4 == 1:
            ybound = math.isqrt(4 * n // abs(m)) + 1
            for y in range(-ybound, ybound + 1):
                uu = 4 * n + m * y * y
                if uu < 0:
                    continue
                u = math.isqrt(uu)
                if u * u != uu:
                    continue
                for uv in {u, -u}:
                    if (uv - y) % 2 == 0:
                        cand = ((uv - y) // 2, y)
                        if ideal_contains(field, a, cand) and abs(element_norm(field, cand)) == n:
                            return cand
        else:
            ybound = math.isqrt(n // abs(m)) + 1
            for y in range(-ybound, ybound + 1):
                xx = n + m * y * y
                if xx < 0:
                    continue
                x = math.isqrt(xx)
                if x * x != xx:
                    continue
                for cand in {(x, y), (-x, y)}:
                    if ideal_contains(field, a, cand) and abs(element_norm(field, cand)) == n:
                        return cand
        return None
    # real field: a generator can be normalized into a unit box
    eps = field.unit_value
    sq = math.sqrt(n)
    ybound = int((sq * (eps + 1)) / math.sqrt(m)) + 2
    for y in range(-ybound, ybound + 1):
        for target in (n, -n):
            if m % 4 == 1:
                uu = 4 * target + m * y * y
                if uu < 0:
                    continue
                u = math.isqrt(uu)
                if u * u != uu:
                    continue
                cands = [((uv - y) // 2, y) for uv in {u, -u} if (uv - y) % 2 == 0]
            else:
                xx = target + m * y * y
                if xx < 0:
                    continue
                x = math.isqrt(xx)
                if x * x != xx:
                    continue
                cands = [(x, y), (-x, y)]
            for cand in cands:
                if ideal_contains(field, a, cand) and abs(element_norm(field, cand)) == n:
                    return cand
    return None


def ideal_mod_norm(field, a) -> set:
    """The Z-span mod N(a) of g and g*omega, g over the products of the
    generators of a's primes: p for an inert P, and p and omega - r for
    the others, r the root of omega's minimal polynomial mod p that names
    P, found by a residue scan.  As N(a) lies in a, this is a mod N(a)."""
    N, t, n = a.norm, field.omega_trace, field.omega_norm

    def mul(u, v):  # omega^2 = t*omega - n
        return (u[0] * v[0] - n * u[1] * v[1], u[0] * v[1] + u[1] * v[0] + t * u[1] * v[1])

    gens = [(1, 0)]
    for P, e in a.factorization:
        roots = [r for r in range(P.p) if (r * r - t * r + n) % P.p == 0]
        pgens = [(P.p, 0)] if P.splitting == INERT else [(P.p, 0), (-roots[P.conjugate_index], 1)]
        for _ in range(e):
            gens = [mul(g, h) for g in gens for h in pgens]
    span = {(0, 0)}
    for g in gens:
        for x, y in (g, mul(g, (0, 1))):
            if (x % N, y % N) not in span:
                span = {((u + k * x) % N, (v + k * y) % N) for u, v in span for k in range(N)}
    return span


def zeta2_tail_bound(B: int) -> float:
    """Upper bound for the log-tail of the zeta_K(2) Euler product cut at norm B."""
    # split/ramified primes p >= B contribute <= 2.02/p^2 each; inert p >= sqrt(B)
    return 2.1 / (B * math.log(B)) + 3.0 / (B ** 1.49)


def whole_array_zeta_at_2(field, B: int) -> float:
    """The Euler product of zeta_K(2) over norm < B from one sieve of [0, B)
    and arrays over all of its primes, as zeta_at_2 computed it before it
    read the sieve in segments."""
    absd = abs(field.disc)
    chi_table = np.array([kronecker(field.disc, r) if r else 0 for r in range(absd)], dtype=np.int8)
    index = np.flatnonzero(np.frombuffer(prime_flags(0, B), dtype=np.bool_))
    ps = index.astype(np.float64)
    chi = chi_table[index % absd]
    inv2 = 1.0 / (ps * ps)
    log_split = -2.0 * np.log1p(-inv2[chi == 1])
    log_ram = -np.log1p(-inv2[chi == 0])
    small = ps[ps * ps < B]
    inert_small = small[chi[: len(small)] == -1]
    log_inert = -np.log1p(-1.0 / inert_small**4)
    return math.exp(float(log_split.sum() + log_ram.sum() + log_inert.sum()))


def density_constant(field) -> float:
    """c(K): the character count |C(K, X)| grows like c(K) * X."""
    s = sum(1.0 / (b.norm**2) for b in field.class_representatives)
    u = len(units_mod_squares(field))
    return u * (1.0 / field.class_number) * (zeta_residue(field) / zeta_at_2(field)) * s


# zeta_K(2) fields: both residues of m mod 4, h = 1 and h > 1, imaginary and real
ZETA2_FIELDS = (-1, -3, -5, -14, -23, -163, 5, 10, 13)

# imaginary and real, both residues of m mod 4, class groups up to Z/4 and Z/5
SEARCH_FIELDS = (-1, -2, -3, -5, -6, -7, -14, -15, -23, -47, 2, 3, 5, 6, 7, 10, 13, 15, 21, 79, 82)


class TestMakeField:
    def test_gaussian(self):
        K = make_field(-1)
        assert K.disc == -4
        assert K.class_number == 1
        assert K.num_roots_of_unity == 4

    def test_m_minus5_class_number(self):
        K = make_field(-5)
        assert K.disc == -20
        assert K.class_number == reduced_form_count(-20) == 2

    def test_more_class_numbers_against_forms(self):
        for m in (-2, -6, -7, -10, -13, -14, -15):
            K = make_field(m)
            assert K.class_number == reduced_form_count(K.disc), m

    def test_real_field(self):
        K = make_field(2)
        assert K.disc == 8
        assert K.class_number == 1
        assert K.fundamental_unit == brute_pell_unit(2) == (1, 1)

    def test_half_integral_unit(self):
        K = make_field(5)
        assert K.fundamental_unit == brute_pell_unit(5) == (0, 1)
        K13 = make_field(13)
        assert K13.fundamental_unit == brute_pell_unit(13) == (1, 1)

    def test_unit_matches_brute_force(self):
        # 181 and 341 have units (604, 97) and (131, 15) outside Z[sqrt(m)], whose
        # cubes exceed the coordinate cap; the cap applies to the unit itself
        checked = []
        for m in range(2, 500):
            if squarefree_part(m) != m:
                continue
            try:
                x, y = make_field(m).fundamental_unit
            except FieldTooLargeError:
                continue
            if y < 10**5:
                assert (x, y) == brute_pell_unit(m, cap=2 * y + 2), m
                checked.append(m)
        assert {181, 341} <= set(checked) and len(checked) > 150

    def test_rejects_bad_m(self):
        for m in (0, 1, 12, -8):
            with pytest.raises(ValueError):
                make_field(m)

    def test_disc_cap(self):
        with pytest.raises(FieldTooLargeError):
            make_field(-10007)


class TestSplitting:
    def test_gaussian_examples(self):
        K = make_field(-1)
        fives = split_prime(K, 5)
        assert len(fives) == 2 and all(P.norm == 5 for P in fives)
        assert split_prime(K, 2)[0].splitting == "ramified"
        three = split_prime(K, 3)
        assert three[0].splitting == "inert" and three[0].norm == 9

    def test_splitting_matches_kronecker(self):
        for m in (-1, -5, 2, -3, 13):
            K = make_field(m)
            for p in (2, 3, 5, 7, 11, 13):
                sym = kronecker(K.disc, p)
                kinds = [P.splitting for P in split_prime(K, p)]
                if sym == 1:
                    assert kinds == ["split", "split"]
                elif sym == -1:
                    assert kinds == ["inert"]
                else:
                    assert kinds == ["ramified"]

    def test_sum_ef_is_two(self):
        for m in (-1, -5, 2):
            K = make_field(m)
            for p in (2, 3, 5, 7, 11):
                primes = split_prime(K, p)
                total = 0
                for P in primes:
                    e = 2 if P.splitting == "ramified" else 1
                    f = 2 if P.splitting == "inert" else 1
                    total += e * f
                assert total == 2


class TestPrimesUpTo:
    def test_gaussian_small(self):
        K = make_field(-1)
        assert [P.norm for P in primes_up_to(K, 5)] == [2]
        assert [P.norm for P in primes_up_to(K, 10)] == [2, 5, 5, 9]
        assert primes_up_to(K, 2) == []

    def test_sorted_with_conjugates_adjacent(self):
        K = make_field(-1)
        ps = primes_up_to(K, 200)
        keys = [(P.norm, P.p, P.conjugate_index) for P in ps]
        assert keys == sorted(keys)


class TestIdealArithmetic:
    def test_norm_multiplicativity(self):
        rng = random.Random(5)
        K = make_field(-5)
        primes = primes_up_to(K, 60)
        for _ in range(200):
            fa = [(rng.choice(primes), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
            fb = [(rng.choice(primes), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
            a, b = make_ideal(fa), make_ideal(fb)
            assert ideal_mul(a, b).norm == a.norm * b.norm

    def test_conj_involution(self):
        K = make_field(-1)
        for P in primes_up_to(K, 60):
            a = make_ideal([(P, 2)])
            assert ideal_conj(ideal_conj(a)) == a


class TestSquarefreeIdeals:
    def test_small_gaussian(self):
        K = make_field(-1)
        assert [a.norm for a in squarefree_ideals_up_to(K, 3)] == [1, 2]
        assert squarefree_ideals_up_to(K, 1) == []

    def test_all_squarefree(self):
        K = make_field(-5)
        for a in squarefree_ideals_up_to(K, 80):
            assert all(e == 1 for _, e in a.factorization)

    def test_class_constraint_against_principality(self):
        # the character enumeration relies on a*b^2 being principal for every
        # (b, a) it walks; here against the norm-form search, for every class b
        for m, h in ((-5, 2), (-14, 4), (-23, 3), (10, 2)):
            K = make_field(m)
            assert K.class_number == h
            ideals = squarefree_ideals_up_to(K, 60)
            for b in K.class_representatives:
                constrained = set(squarefree_ideals_up_to(K, 60, class_constraint=b))
                b2 = ideal_mul(b, b)
                for a in ideals:
                    principal = generator_if_principal(K, ideal_mul(a, b2)) is not None
                    assert principal == (a in constrained), (m, b, a)


def recursive_squarefree_with_classes(field, X):
    """The recursive walk and (norm, _fact_key) sort that the presorted
    stack walk of _squarefree_with_classes replaced, kept as its reference."""
    primes = primes_up_to(field, X)
    pcls = [field.class_of_prime(P) for P in primes]
    out = []

    def rec(i, factors, norm, cls):
        if norm < X:
            out.append((IdealK(factors, norm), cls))
        for j in range(i, len(primes)):
            nn = norm * primes[j].norm
            if nn >= X:
                break
            rec(j + 1, factors + ((primes[j], 1),), nn, field.class_compose(cls, pcls[j]))

    rec(0, (), 1, 0)
    out.sort(key=lambda t: (t[0].norm, _fact_key(t[0])))
    return tuple(out)


class TestSquarefreeWalk:
    # h = 1, 2 and 4, and a real field with h = 2; X at the edges, around the
    # first split norm N > 10 and its square N(P * conj(P)), and one larger X
    @pytest.mark.parametrize("m, h", [(-1, 1), (-5, 2), (-14, 4), (10, 2)])
    def test_matches_recursive_walk(self, m, h):
        walked, prefixed = QuadraticField(m), QuadraticField(m)
        assert walked.class_number == h
        N = next(P.norm for P in primes_up_to(walked, 100) if P.splitting == SPLIT and P.norm > 10)
        bounds = (1, 2, 3, N - 1, N, N + 1, N * N - 1, N * N, N * N + 1, 2000)
        # in ascending order each bound is walked; below a cached bound, a prefix is taken
        _squarefree_with_classes(prefixed, max(bounds) + 1)
        for X in bounds:
            reference = recursive_squarefree_with_classes(walked, X)
            assert _squarefree_with_classes(walked, X) == reference, (m, X)
            assert _squarefree_with_classes(prefixed, X) == reference, (m, X)
            assert squarefree_ideals_up_to(walked, X) == [a for a, _ in reference]
        assert sorted(walked._sqfree_cache) == sorted(set(bounds))
        assert sorted(prefixed._sqfree_cache) == [max(bounds) + 1]
        assert squarefree_ideals_up_to(walked, 1) == []
        assert squarefree_ideals_up_to(walked, 2) == [ONE_IDEAL]


def brute_count_sf(field, X, c, q, d) -> int:
    """count_sf by filtering the list of every squarefree ideal of norm < X."""
    target = field.class_of_ideal(c)
    qset = {P for P, _ in q.factorization}
    dset = {P for P, _ in d.factorization}
    return sum(
        1
        for a in squarefree_ideals_up_to(field, X)
        if field.class_of_ideal(a) == target and {P for P, _ in a.factorization} & qset == dset
    )


# q per field as (p, conjugate index) pairs, mixing split primes (with both
# conjugates in one q), inert primes and ramified primes
COUNT_SF_MODULI = {
    -1: [[(5, 0), (5, 1), (3, 0)], [(2, 0), (13, 1)]],
    -5: [[(3, 0), (3, 1), (2, 0)], [(3, 0), (7, 0)], [(7, 1), (11, 0)]],
    -14: [[(3, 0), (3, 1), (2, 0)], [(5, 1), (11, 0)], [(3, 0), (5, 0), (7, 0)]],
    -21: [[(5, 0), (5, 1), (3, 0)], [(2, 0), (13, 0)], [(11, 1), (7, 0)]],
    -23: [[(2, 0), (2, 1), (5, 0)], [(3, 1), (2, 0)], [(3, 0), (7, 0), (13, 1)]],
    10: [[(3, 0), (3, 1), (2, 0)], [(5, 0), (7, 0)], [(13, 1), (11, 0)]],
}


class TestCountSf:
    @pytest.mark.parametrize("m", sorted(COUNT_SF_MODULI))
    def test_matches_brute_filter_for_every_d_and_class(self, m):
        # every divisor d of q, every class c, and X on both sides of N(d):
        # the empty b counts only when N(d) < X, and N(b) < ceil(X / N(d))
        K = make_field(m)
        for spec in COUNT_SF_MODULI[m]:
            primes = [split_prime(K, p)[i] for p, i in spec]
            q = make_ideal([(P, 1) for P in primes])
            for r in range(len(primes) + 1):
                for sub in itertools.combinations(primes, r):
                    d = make_ideal([(P, 1) for P in sub])
                    for X in sorted({2, d.norm - 1, d.norm, d.norm + 1, 3 * d.norm, 200}):
                        for c in K.class_representatives:
                            assert count_sf(K, X, c, q, d) == brute_count_sf(K, X, c, q, d), (m, spec, sub, X, c)

    def test_builds_no_ideal_list(self):
        def counts(K):
            P3, P5 = split_prime(K, 3)[0], split_prime(K, 5)[0]
            q, d = make_ideal([(P3, 1), (P5, 1)]), make_ideal([(P5, 1)])
            return [count_sf(K, 5000, c, q, d) for c in K.class_representatives]

        K = QuadraticField(-14)
        fresh = counts(K)
        assert K._sqfree_cache == {}
        listed = QuadraticField(-14)
        squarefree_ideals_up_to(listed, 5000)
        assert counts(listed) == fresh

    def test_reduces_to_plain_count(self):
        K = make_field(-1)
        for X in (10, 60, 200):
            assert count_sf(K, X, ONE_IDEAL, ONE_IDEAL, ONE_IDEAL) == len(squarefree_ideals_up_to(K, X))

    def test_divisibility_count(self):
        K = make_field(-1)
        P2 = split_prime(K, 2)[0]
        q = make_ideal([(P2, 1)])
        got = count_sf(K, 100, ONE_IDEAL, q, q)
        brute = sum(1 for a in squarefree_ideals_up_to(K, 100) if any(P.p == 2 for P, _ in a.factorization))
        assert got == brute

    def test_partition_over_classes(self):
        K = make_field(-5)
        P3 = split_prime(K, 3)[0]
        q = make_ideal([(P3, 1)])
        for d in (ONE_IDEAL, q):
            total = sum(count_sf(K, 300, c, q, d) for c in K.class_representatives)
            unconstrained = sum(
                1
                for a in squarefree_ideals_up_to(K, 300)
                if ({P for P, _ in a.factorization} & {P3}) == {P for P, _ in d.factorization}
            )
            assert total == unconstrained

    def test_validation(self):
        K = make_field(-1)
        P2 = split_prime(K, 2)[0]
        q = make_ideal([(P2, 1)])
        with pytest.raises(ValueError):
            count_sf(K, 10, ONE_IDEAL, ONE_IDEAL, q)  # d does not divide q
        with pytest.raises(ValueError):
            phi_qd(K, make_ideal([(P2, 2)]), make_ideal([(P2, 2)]))  # d not squarefree


class TestPhiQd:
    def test_empty(self):
        K = make_field(-1)
        assert phi_qd(K, ONE_IDEAL, ONE_IDEAL) == 1

    def test_norm_three_prime(self):
        K = make_field(-5)
        P3 = split_prime(K, 3)[0]
        q = make_ideal([(P3, 1)])
        assert phi_qd(K, q, ONE_IDEAL) == Fraction(3, 4)
        assert phi_qd(K, q, q) == Fraction(1, 4)


class TestAnalyticConstants:
    def test_residue_gaussian(self):
        assert abs(zeta_residue(make_field(-1)) - math.pi / 4) < 1e-9

    def test_residue_m_minus5(self):
        assert abs(zeta_residue(make_field(-5)) - 2 * math.pi / math.sqrt(20)) < 1e-12

    def test_residue_m_minus3(self):
        assert abs(zeta_residue(make_field(-3)) - math.pi / (3 * math.sqrt(3))) < 1e-12

    def test_residue_matches_ideal_count_slope(self):
        for m in (-1, 2):
            K = make_field(m)
            X = 10**5
            slope = ideal_count_up_to(K, X) / X
            assert abs(slope - zeta_residue(K)) / zeta_residue(K) < 0.01

    def test_zeta2_gaussian_against_dirichlet_series(self):
        K = make_field(-1)
        val = zeta_at_2(K, B=2 * 10**6)
        # oracle: zeta(2) * L(chi_{-4}, 2), the latter summed directly
        L = sum((-1) ** ((n - 1) // 2) / n**2 for n in range(1, 200001, 2))
        assert abs(val - (math.pi**2 / 6) * L) < 1e-7
        assert abs(val - 1.50670) < 1e-4

    def test_zeta2_exceeds_one(self):
        for m in (-1, -5, 2, -3):
            assert zeta_at_2(make_field(m), B=10**5) > 1

    def test_zeta2_partial_products_within_tail_bound(self):
        K = make_field(-1)
        a = zeta_at_2(K, B=100)
        b = zeta_at_2(K, B=10**4)
        assert abs(math.log(a) - math.log(b)) < zeta2_tail_bound(100)

    @pytest.mark.parametrize("m", ZETA2_FIELDS)
    def test_zeta2_segments_keep_the_bits_of_one_sieve(self, m):
        # below, at and above one segment, across two, and the default cutoff
        seg = PRIME_SEGMENT
        for B in (100, seg - 1, seg, seg + 1, 2 * seg + 3, ZETA2_DEFAULT_CUTOFF):
            got = zeta_at_2(QuadraticField(m), None if B == ZETA2_DEFAULT_CUTOFF else B)
            assert got.hex() == whole_array_zeta_at_2(QuadraticField(m), B).hex(), (m, B)

    def test_zeta2_peak_memory(self):
        # tracemalloc sees numpy's buffers: one sieve of [0, 1.5e7) and arrays
        # over all of its primes peaked at 29.1 MB, the segments at 8.1 MB
        K = QuadraticField(-5)
        tracemalloc.start()
        try:
            zeta_at_2(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10**6

    def test_zeta2_rejects_a_cutoff_below_two(self):
        with pytest.raises(ValueError):
            zeta_at_2(QuadraticField(-1), B=1)

    def test_mainterm_gaussian(self):
        K = make_field(-1)
        mt = mainterm_sf(K, 10**5, ONE_IDEAL, ONE_IDEAL, ONE_IDEAL)
        assert abs(mt - 52127) < 5


class TestUnitsAndDensity:
    def test_unit_class_sizes(self):
        assert len(units_mod_squares(make_field(-5))) == 2
        assert len(units_mod_squares(make_field(2))) == 4
        assert len(units_mod_squares(make_field(-1))) == 2

    def test_units_are_units(self):
        for m in (-1, -3, -5, 2, 5):
            K = make_field(m)
            for u in units_mod_squares(K):
                assert abs(element_norm(K, u)) == 1

    def test_density_gaussian(self):
        K = make_field(-1)
        c = density_constant(K)
        assert abs(c - 2 * (math.pi / 4) / zeta_at_2(K)) < 1e-12

    def test_density_h1_class_sum_trivial(self):
        K = make_field(2)
        reps = K.class_representatives
        assert len(reps) == 1 and reps[0] == ONE_IDEAL


class TestPrincipalitySearch:
    def test_agrees_with_per_field_search(self):
        # 91: h = 2 and a unit near 3148, where the real box is far smaller than the old one
        for m in SEARCH_FIELDS + (91,):
            K = make_field(m)
            for a in _ideals_up_to_norm(K, 150):
                gen = generator_if_principal(K, a)
                assert (gen is None) == (reference_generator_if_principal(K, a) is None), (m, a)
                if gen is not None:
                    assert ideal_contains(K, a, gen), (m, a, gen)
                    assert abs(element_norm(K, gen)) == a.norm, (m, a, gen)

    def test_membership_against_generator_span(self):
        # P5^2 in Q(i) needs the Newton lift, and both split slots, the
        # ramified primes and their odd powers all occur below norm 30
        for m in SEARCH_FIELDS:
            K = make_field(m)
            for a in _ideals_up_to_norm(K, 30):
                N = a.norm
                members = {(x, y) for x in range(N) for y in range(N) if ideal_contains(K, a, (x, y))}
                assert len(members) == N, (m, a)
                assert members == ideal_mod_norm(K, a), (m, a)

    def test_real_generator_of_negative_norm(self):
        # the prime above 3 in Q(sqrt(3)) is (sqrt(3)); every generator has norm -3
        K = make_field(3)
        (P3,) = split_prime(K, 3)
        gen = generator_if_principal(K, make_ideal([(P3, 1)]))
        assert gen is not None and element_norm(K, gen) == -3

    def test_omega_roots_against_brute_force(self):
        for m in SEARCH_FIELDS:
            K = make_field(m)
            for p in sieve_primes(400):
                brute = [x for x in range(p) if (x * x - K.omega_trace * x + K.omega_norm) % p == 0]
                assert _omega_roots_mod_p(K, p) == brute, (m, p)


class TestClassOfPrime:
    def test_against_full_search(self):
        # Z/4, Z/3, Z/5, and real fields with h = 3 and 4: the inverse of a
        # class is not always the class itself
        for m, h in ((-14, 4), (-23, 3), (-47, 5), (79, 3), (82, 4)):
            K = make_field(m)
            assert K.class_number == h
            reps = K.class_representatives
            for P in primes_up_to(K, 3000):
                a = IdealK(((P, 1),), P.norm)
                full = next(k for k in range(h) if K._equivalent(a, reps[k]))
                assert K.class_of_prime(P) == full, (m, P)

    def test_by_reduced_form_against_the_norm_form_search(self):
        # every imaginary field with |m| < 120 and h > 1: its h reduced forms
        # meet the h classes once each, and the norm-form search puts every
        # prime above p < 1e4 in the class read off its reduced form ((p) is
        # principal, so an inert prime is in class 0 with no search)
        fields = [make_field(m) for m in range(-119, 0) if squarefree_part(m) == m]
        fields = [K for K in fields if K.class_number > 1]
        assert len(fields) == 67
        for K in fields:
            assert sorted(K._form_classes.values()) == list(range(K.class_number))
            reps = K.class_representatives
            for p in sieve_primes(10**4):
                for P in split_prime(K, p):
                    cls = K.class_of_prime(P)
                    if P.splitting == INERT:
                        assert cls == 0, (K.m, P)
                    else:
                        assert K._equivalent(IdealK(((P, 1),), P.norm), reps[cls]), (K.m, P)

    def test_a_conjugate_form_fails_the_search(self, monkeypatch):
        # b -> -b is the form of the conjugate prime, in the inverse class
        prime_form = qf._prime_form

        def conjugate_form(K, p):
            a, b, c = prime_form(K, p)
            return a, -b, c

        monkeypatch.setattr(qf, "_prime_form", conjugate_form)
        for m in (-14, -23, -47):
            K = QuadraticField(m)  # not make_field's: its class cache outlives the patch
            reps = K.class_representatives
            primes = primes_up_to(K, 300)
            assert any(not K._equivalent(IdealK(((P, 1),), P.norm), reps[K.class_of_prime(P)]) for P in primes), m


class TestMinkowskiPartition:
    def test_every_small_ideal_has_one_class(self):
        for m in (-5, -6, -10):
            K = make_field(m)
            reps = K.class_representatives
            for a in _ideals_up_to_norm(K, K.minkowski_bound):
                matches = sum(1 for r in reps if K._equivalent(a, r))
                assert matches == 1
