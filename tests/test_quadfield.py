import functools
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
    DISC_CAP,
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
    count_sf,
    ideal_mul,
    make_field,
    make_ideal,
    mainterm_sf,
    phi_qd,
    primes_up_to,
    split_prime,
    squarefree_ideals_up_to,
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


def reduced_forms(D):
    """The reduced binary quadratic forms of discriminant D < 0, one per
    class of the imaginary quadratic order: |b| <= a <= c, b^2-4ac = D,
    b >= 0 when |b| = a or a = c."""
    forms = []
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
            forms.append((a, b, c))
        a += 1
    return forms


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


def units_mod_squares(field):
    """Representatives of O_K^x/(O_K^x)^2 as elements (x, y) = x + y*omega:
    1 and i = omega in Q(i), where -1 = i^2; 1 and zeta_6 = omega in
    Q(sqrt(-3)), where zeta_6 = -zeta_3^2; 1 and -1 in the other imaginary
    fields; and +-1, +-eps in the real ones."""
    if field.m < 0:
        return [(1, 0), (0, 1)] if field.m in (-1, -3) else [(1, 0), (-1, 0)]
    x, y = field.fundamental_unit
    return [(1, 0), (-1, 0), (x, y), (-x, -y)]


# --- the norm-form principality search, the oracle of every class lookup ---
# (x, y) means x + y*omega


def element_norm(field, el) -> int:
    x, y = el
    return x * x + field.omega_trace * x * y + field.omega_norm * y * y


def ideal_conj(a):
    out = []
    for P, e in a.factorization:
        if P.splitting == SPLIT:
            P = qf.PrimeIdealK(P.p, SPLIT, 1 - P.conjugate_index, P.norm)
        out.append((P, e))
    return make_ideal(out)


def ideal_contains(field, a, el) -> bool:
    """Whether x + y*omega lies in a: v_P(el) >= e for every P^e in a.

    An inert P^e is (p^e).  A ramified P^(2k) is (p^k), and P^(2k+1) adds
    el/p^k in P = (p, omega - r), r the double root of omega's minimal
    polynomial f mod p.  A split P^e is (p^e, omega - R), R the root r of f
    mod p that names P, lifted to a root mod p^e by Newton steps: each one
    doubles the precision, and f'(r) = 2r - t is a unit mod p, p = 2 included.
    """
    x, y = el
    t, n = field.omega_trace, field.omega_norm
    for P, e in a.factorization:
        p = P.p
        if P.splitting == SPLIT:
            q = p**e
            R = _omega_roots_mod_p(field, p)[P.conjugate_index]
            for _ in range((e - 1).bit_length()):
                R = (R - (R * R - t * R + n) * pow(2 * R - t, -1, q)) % q
            if (x + y * R) % q:
                return False
        else:
            k, j = (e, 0) if P.splitting == INERT else divmod(e, 2)
            q = p**k
            if x % q or y % q:
                return False
            if j and (x // q + y // q * _omega_roots_mod_p(field, p)[0]) % p:
                return False
    return True


def generator_if_principal(field, a):
    """A generator of a if principal, else None.

    Bounded search of the norm form 4*N(x + y*omega) = (2x + t*y)^2 - D*y^2,
    D = disc and t = trace(omega): the target n = N(a) with y^2 <= 4n/|D| when
    D < 0, and the targets +-n with y^2 <= 4n*eps/D when D > 0.  For the
    real bound: eps/eps' = +-eps^2, so a generator alpha times a suitable
    +-eps^k has |alpha/alpha'| in [1/eps, eps); with |alpha*alpha'| = n,
    |alpha| and |alpha'| are then at most sqrt(n*eps), and
    |y| = |alpha - alpha'|/sqrt(D) <= 2*sqrt(n*eps/D).
    """
    n = a.norm
    if n == 1:
        return (1, 0)
    D, t = field.disc, field.omega_trace
    if D < 0:
        ybound = math.isqrt(4 * n // -D) + 1
        targets = (n,)
    else:
        ybound = int(2 * math.sqrt(n * field.unit_value / D)) + 2
        targets = (n, -n)
    for y in range(-ybound, ybound + 1):
        for target in targets:
            uu = 4 * target + D * y * y
            if uu < 0:
                continue
            u = math.isqrt(uu)
            if u * u != uu:
                continue
            for v in (u, -u):
                if (v - t * y) % 2 == 0:
                    cand = ((v - t * y) // 2, y)
                    if ideal_contains(field, a, cand) and abs(element_norm(field, cand)) == n:
                        return cand
    return None


@functools.cache
def _primes_below(field, X):
    return primes_up_to(field, X)


def ideal_of(field, X, key):
    """The ideal of a key of squarefree_ideals_up_to(field, X) or of
    enumerate_characters(field, X): the product of the primes of
    primes_up_to(field, X) at its indices."""
    primes = _primes_below(field, X)
    return make_ideal([(primes[j], 1) for j in key])


def equivalent(field, a, b) -> bool:
    """Whether a and b are in one ideal class: a*conj(b) is principal."""
    return generator_if_principal(field, ideal_mul(a, ideal_conj(b))) is not None


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
        assert K.class_number == len(reduced_forms(-20)) == 2

    def test_more_class_numbers_against_forms(self):
        for m in (-2, -6, -7, -10, -13, -14, -15):
            K = make_field(m)
            assert K.class_number == len(reduced_forms(K.disc)), m

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
        # 181 and 341 have units (604, 97) and (131, 15) outside Z[sqrt(m)]
        checked = []
        for m in range(2, 500):
            if squarefree_part(m) != m:
                continue
            x, y = make_field(m).fundamental_unit
            if y < 10**5:
                assert (x, y) == brute_pell_unit(m, cap=2 * y + 2), m
                checked.append(m)
        assert {181, 341} <= set(checked) and len(checked) > 150

    def test_rejects_bad_m(self):
        for m in (0, 1, 12, -8):
            with pytest.raises(ValueError):
                make_field(m)

    def test_every_real_field_under_the_cap(self):
        # the continued fraction finds every unit, Q(sqrt(9601)) with regulator 193.0 the largest
        ms = [m for m in range(2, DISC_CAP + 1) if squarefree_part(m) == m and (m % 4 == 1 or 4 * m <= DISC_CAP)]
        fields = [QuadraticField(m) for m in ms]
        assert len(fields) == 3043
        assert all(element_norm(K, K.fundamental_unit) in (1, -1) for K in fields)
        K = max(fields, key=lambda K: K.regulator)
        assert K.m == 9601 and 193 < K.regulator < 193.01

    def test_regulator_by_the_class_number_formula(self):
        # h R = -1/2 sum_{0 < r < D} chi_D(r) log sin(pi r/D) for D > 0 shares no
        # code with the continued fraction or the forms; eps^2 for eps would double R
        fields = [make_field(m) for m in range(2, 1000) if squarefree_part(m) == m]
        assert len(fields) == 607
        for K in fields:
            D = K.disc
            hR = -0.5 * math.fsum(kronecker(D, r) * math.log(math.sin(math.pi * r / D)) for r in range(1, D))
            assert abs(K.class_number * K.regulator - hR) < 1e-11 * hR, K

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
        assert [norm for norm, _, _ in squarefree_ideals_up_to(K, 3)] == [1, 2]
        assert squarefree_ideals_up_to(K, 1) == []

    def test_all_squarefree(self):
        K = make_field(-5)
        for norm, key, _ in squarefree_ideals_up_to(K, 80):
            a = ideal_of(K, 80, key)
            assert a.norm == norm and all(e == 1 for _, e in a.factorization)


def recursive_squarefree_with_classes(field, X):
    """The recursive walk and (norm, _fact_key) sort that the presorted
    stack walk of squarefree_ideals_up_to replaced, kept as its reference."""
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
    return out


class TestSquarefreeWalk:
    # h = 1, 2 and 4, and a real field with h = 2; X at the edges, around the
    # first split norm N > 10 and its square N(P * conj(P)), and one larger X
    @pytest.mark.parametrize("m, h", [(-1, 1), (-5, 2), (-14, 4), (10, 2)])
    def test_matches_recursive_walk(self, m, h):
        K = QuadraticField(m)
        assert K.class_number == h
        N = next(P.norm for P in primes_up_to(K, 100) if P.splitting == SPLIT and P.norm > 10)
        bounds = (1, 2, 3, N - 1, N, N + 1, N * N - 1, N * N, N * N + 1, 2000)
        whole = squarefree_ideals_up_to(K, max(bounds) + 1)
        for X in bounds:
            walked = squarefree_ideals_up_to(K, X)
            reference = recursive_squarefree_with_classes(K, X)
            assert [(ideal_of(K, X, key), cls) for _, key, cls in walked] == reference, (m, X)
            assert [norm for norm, _, _ in walked] == [a.norm for a, _ in reference]
            # the entries of a larger walk below X are the walk at X, keys included
            assert [t for t in whole if t[0] < X] == walked, (m, X)
        assert squarefree_ideals_up_to(K, 2) == [(1, (), 0)]


def brute_count_sf(field, X, c, q, d) -> int:
    """count_sf's count in the class of c, by filtering the list of every
    squarefree ideal of norm < X."""
    target = field.class_of_ideal(c)
    qset = {P for P, _ in q.factorization}
    dset = {P for P, _ in d.factorization}
    ideals = [ideal_of(field, X, key) for _, key, _ in squarefree_ideals_up_to(field, X)]
    return sum(
        1 for a in ideals if field.class_of_ideal(a) == target and {P for P, _ in a.factorization} & qset == dset
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
                        brute = [brute_count_sf(K, X, c, q, d) for c in K.class_representatives]
                        assert count_sf(K, X, q, d) == brute, (m, spec, sub, X)

    def test_builds_no_ideal_list(self):
        def counts(K):
            P3, P5 = split_prime(K, 3)[0], split_prime(K, 5)[0]
            q, d = make_ideal([(P3, 1), (P5, 1)]), make_ideal([(P5, 1)])
            return count_sf(K, 5000, q, d)

        fresh = counts(QuadraticField(-14))
        listed = QuadraticField(-14)
        squarefree_ideals_up_to(listed, 5000)
        assert counts(listed) == fresh

    def test_reduces_to_plain_count(self):
        K = make_field(-1)
        for X in (10, 60, 200):
            assert count_sf(K, X, ONE_IDEAL, ONE_IDEAL) == [len(squarefree_ideals_up_to(K, X))]

    def test_divisibility_count(self):
        K = make_field(-1)
        P2 = split_prime(K, 2)[0]
        q = make_ideal([(P2, 1)])
        got = count_sf(K, 100, q, q)
        ideals = [ideal_of(K, 100, key) for _, key, _ in squarefree_ideals_up_to(K, 100)]
        brute = sum(1 for a in ideals if any(P.p == 2 for P, _ in a.factorization))
        assert got == [brute]

    def test_partition_over_classes(self):
        K = make_field(-5)
        P3 = split_prime(K, 3)[0]
        q = make_ideal([(P3, 1)])
        for d in (ONE_IDEAL, q):
            total = sum(count_sf(K, 300, q, d))
            ideals = [ideal_of(K, 300, key) for _, key, _ in squarefree_ideals_up_to(K, 300)]
            unconstrained = sum(
                1 for a in ideals if ({P for P, _ in a.factorization} & {P3}) == {P for P, _ in d.factorization}
            )
            assert total == unconstrained

    def test_validation(self):
        K = make_field(-1)
        P2 = split_prime(K, 2)[0]
        q = make_ideal([(P2, 1)])
        with pytest.raises(ValueError):
            count_sf(K, 10, ONE_IDEAL, q)  # d does not divide q
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
        mt = mainterm_sf(K, 10**5, ONE_IDEAL, ONE_IDEAL)
        assert abs(mt - 52127) < 5


class TestUnitsAndDensity:
    def test_unit_class_sizes(self):
        for m, n in ((-5, 2), (-1, 2), (-3, 2), (2, 4), (139, 4)):
            K = make_field(m)
            assert K.num_unit_classes == len(units_mod_squares(K)) == n, m

    def test_units_are_units(self):
        for m in (-1, -3, -5, 2, 5, 139, 241):
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


def search_class_group(field):
    """The class representatives and the Cayley table by the norm-form
    search: the first ideal of each class, in (norm, factorization) order,
    among those of norm at most the Minkowski bound, and the class of each
    product of two of them."""
    reps = []
    for a in _ideals_up_to_norm(field, field.minkowski_bound):
        if not any(equivalent(field, a, r) for r in reps):
            reps.append(a)
    table = [[next(k for k, r in enumerate(reps) if equivalent(field, ideal_mul(a, b), r)) for b in reps] for a in reps]
    return tuple(reps), table


def assert_classes_match_search(field, bound):
    """The representatives, the Cayley table and the class of every prime of
    norm below bound, against the norm-form search ((p) is principal, so
    an inert prime is in class 0 with no search)."""
    reps, table = search_class_group(field)
    assert field.class_representatives == reps, field
    assert field._cayley == table, field
    if len(reps) == 1:
        return
    for P in primes_up_to(field, bound):
        cls = field.class_of_prime(P)
        if P.splitting == INERT:
            assert cls == 0, (field, P)
        else:
            assert equivalent(field, IdealK(((P, 1),), P.norm), reps[cls]), (field, P)


class TestClassOfPrime:
    def test_against_full_search(self):
        # Z/4, Z/3, Z/5, Z/6, Z/7, Z/8, (Z/2)^3, and real fields with h = 3
        # and 4: the inverse of a class is not always the class itself
        for m, h in ((-14, 4), (-23, 3), (-47, 5), (-26, 6), (-71, 7), (-95, 8), (-105, 8), (79, 3), (82, 4)):
            K = make_field(m)
            assert K.class_number == h
            assert_classes_match_search(K, 3000)

    def test_by_reduced_form_against_the_norm_form_search(self):
        # every imaginary field with |m| < 120 and h > 1: the reduced forms of
        # its classes are the h reduced forms of discriminant D, once each,
        # and the norm-form search puts every prime above p < 1e4 in the
        # class read off its reduced form
        fields = [make_field(m) for m in range(-119, 0) if squarefree_part(m) == m]
        fields = [K for K in fields if K.class_number > 1]
        assert len(fields) == 67
        for K in fields:
            index = K._class_group[1]
            assert sorted(index) == sorted(reduced_forms(K.disc)), K
            assert sorted(index.values()) == list(range(K.class_number)), K
            reps = K.class_representatives
            for p in sieve_primes(10**4):
                for P in split_prime(K, p):
                    cls = K.class_of_prime(P)
                    if P.splitting == INERT:
                        assert cls == 0, (K.m, P)
                    else:
                        assert equivalent(K, IdealK(((P, 1),), P.norm), reps[cls]), (K.m, P)

    def test_by_reduced_cycles_on_real_fields(self):
        # every real field with m < 200 where the wide class group is not the
        # narrow one read off a single rho-cycle (N(eps) = +1), or has h > 1;
        # Q(sqrt(3)) has h = 1 and two narrow classes, Q(sqrt(34)) h = 2 with
        # eps = 35 + 6 sqrt(34) of norm +1, and 139, 151, 163, 166 and 199
        # h = 1 with a unit of norm +1 whose coordinates pass 10^7
        fields = []
        for m in range(2, 200):
            if squarefree_part(m) == m:
                K = QuadraticField(m)
                if K.class_number > 1 or element_norm(K, K.fundamental_unit) == 1:
                    fields.append(K)
        assert {3, 6, 7, 15, 21, 34, 79, 82, 139, 151, 163, 166, 199} <= {K.m for K in fields} and len(fields) == 99
        for K in fields:
            assert_classes_match_search(K, 3000)

    def test_a_conjugate_form_fails_the_search(self, monkeypatch):
        # b -> -b is the form of the conjugate ideal, in the inverse class: once
        # the class group is built, a lookup that reads it must fail the search
        ideal_form = qf._ideal_form

        def conjugate_form(K, a):
            n, b, c = ideal_form(K, a)
            return n, -b, c

        for m in (-14, -23, -47, 79, 82):
            K = QuadraticField(m)  # not make_field's: its class cache outlives the patch
            reps = K.class_representatives
            assert len(K._cayley) == K.class_number  # built before the patch
            with monkeypatch.context() as patch:
                patch.setattr(qf, "_ideal_form", conjugate_form)
                primes = primes_up_to(K, 300)
                assert any(not equivalent(K, IdealK(((P, 1),), P.norm), reps[K.class_of_prime(P)]) for P in primes), m


class TestMinkowskiPartition:
    def test_every_small_ideal_has_one_class(self):
        for m in (-5, -6, -10):
            K = make_field(m)
            reps = K.class_representatives
            for a in _ideals_up_to_norm(K, K.minkowski_bound):
                matches = sum(1 for r in reps if equivalent(K, a, r))
                assert matches == 1
