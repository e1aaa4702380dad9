import math
import random
from itertools import compress

import pytest

import twistselmer.arith as arith
from twistselmer.arith import (
    PRIME_SEGMENT,
    REAL_PLACE,
    SIEVE_BLOCK,
    factorize,
    is_perfect_square,
    kronecker,
    least_nonresidue,
    local_square_classes,
    prime_flags,
    sieve_primes,
    sqrt_mod_prime,
    squarefree_factors,
    squarefree_flags,
    squarefree_part,
    torsor_locally_solvable,
)


def trial_division_primes(bound):
    out = []
    for n in range(2, bound):
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def whole_sieve(bound):
    """Eratosthenes over all of [0, bound) in one array, each prime read off the flags."""
    flags = bytearray([1]) * bound
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return flags


class TestSievePrimes:
    def test_first_primes(self):
        assert sieve_primes(10) == (2, 3, 5, 7)
        assert sieve_primes(3) == (2,)

    def test_against_trial_division(self):
        primes = sieve_primes(100)
        assert len(primes) == 25
        assert list(primes) == trial_division_primes(100)

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_prime_flags_mark_exactly_the_primes(self):
        for bound in (2, 3, 4, 50, 101):
            flags = prime_flags(0, bound)
            assert len(flags) == bound and set(flags) <= {0, 1}
            assert list(compress(range(bound), flags)) == trial_division_primes(bound)

    def test_prime_flags_segments_against_the_whole_sieve(self):
        # every [lo, hi) is the slice of one sieve from 0: lo = 0 and 2, the
        # width 0, hi = p^2 and p^2 +- 1 around the last sieving prime, and
        # ranges across the segment ends that zeta_K(2) reads
        seg = PRIME_SEGMENT
        whole = whole_sieve(2 * seg + 200)
        ranges = [(0, 0), (0, 1), (0, 2), (1, 3), (2, 2), (2, 3), (2, 1000), (7, 7), (seg, seg)]
        for p in (2, 3, 7, 31, 719):
            ranges += [(lo, p * p + dh) for lo in (0, 2, p * p - 3) for dh in (-1, 0, 1)]
        ranges += [(seg - 5, seg + 7), (seg - 1, seg + 1), (1000, 2 * seg + 3), (seg + 3, 2 * seg + 200)]
        for lo, hi in ranges:
            assert prime_flags(lo, hi) == whole[lo:hi], (lo, hi)
        rng = random.Random(3)
        for _ in range(40):
            lo = rng.randrange(len(whole))
            hi = rng.randrange(lo, min(len(whole), lo + 3 * SIEVE_BLOCK) + 1)
            assert prime_flags(lo, hi) == whole[lo:hi], (lo, hi)
        assert list(compress(range(3000), whole)) == trial_division_primes(3000)
        assert prime_flags(0, len(whole)) == whole

    def test_prime_flags_rejects_a_bad_range(self):
        for lo, hi in ((-1, 5), (5, 4)):
            with pytest.raises(ValueError):
                prime_flags(lo, hi)

    def test_strictly_increasing_and_prime(self):
        primes = sieve_primes(500)
        assert all(a < b for a, b in zip(primes, primes[1:]))


class TestKronecker:
    def test_examples(self):
        assert kronecker(2, 7) == 1
        assert kronecker(21, 3) == 0
        assert kronecker(-1, 3) == -1
        for a in (-5, -1, 0, 3, 17):
            assert kronecker(a, 1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            kronecker(3, 0)

    def test_matches_legendre_at_odd_primes(self):
        for p in sieve_primes(60):
            if p == 2:
                continue
            squares = {pow(x, 2, p) for x in range(1, p)}
            for a in range(1, p):
                expected = 1 if a in squares else -1
                assert kronecker(a, p) == expected

    def test_complete_multiplicativity(self):
        rng = random.Random(1)
        for _ in range(10**4):
            a, b = rng.randint(-300, 300) or 1, rng.randint(-300, 300) or 1
            n = rng.randint(-300, 300) or 1
            assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
            assert kronecker(a, b * n) == kronecker(a, b) * kronecker(a, n)

    def test_quadratic_reciprocity(self):
        odd_primes = [p for p in sieve_primes(500) if p > 2]
        rng = random.Random(2)
        for _ in range(2000):
            p, q = rng.choice(odd_primes), rng.choice(odd_primes)
            if p == q:
                continue
            sign = (-1) ** ((p - 1) * (q - 1) // 4)
            assert kronecker(p, q) * kronecker(q, p) == sign


class TestSqrtMod:
    def test_roundtrip(self):
        rng = random.Random(3)
        for p in [p for p in sieve_primes(200) if p > 2]:
            for _ in range(5):
                a = rng.randrange(p)
                r = sqrt_mod_prime(a, p)
                if kronecker(a, p) == -1:
                    assert r is None
                else:
                    assert r is not None and r * r % p == a % p

    def test_every_residue_below_600(self):
        # p = 3 mod 4 by one power; p = 1 mod 4, and p = 1 mod 8 in particular,
        # by the Tonelli-Shanks loop
        for p in sieve_primes(600)[1:]:
            roots = {}
            for r in range(p):
                roots.setdefault(r * r % p, r)  # the smaller root of each square comes first
            for a in range(-p, 2 * p):
                assert sqrt_mod_prime(a, p) == roots.get(a % p), (a, p)

    def test_nonresidue_cache_stays_bounded(self):
        maxsize = least_nonresidue.cache_info().maxsize
        primes = sieve_primes(40000)[1:]
        assert len(primes) > maxsize
        for p in primes:
            u = least_nonresidue(p)
            assert kronecker(u, p) == -1 and all(kronecker(v, p) == 1 for v in range(2, u))
            assert least_nonresidue.cache_info().currsize <= maxsize
        assert least_nonresidue.cache_info().currsize == maxsize


class TestSquarefreePart:
    def test_examples(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(1) == 1
        assert squarefree_part(-18) == -2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_square_multiple_invariance(self):
        for d in range(-99, 100):
            if d == 0:
                continue
            for k in range(1, 11):
                assert squarefree_part(d * k * k) == squarefree_part(d)

    def test_quotient_is_square(self):
        for d in (360, -4900, 17, -1, 97 * 4):
            s = squarefree_part(d)
            assert d % s == 0 and is_perfect_square(d // s)


class TestSieveSquarefree:
    # the squarefree 0 < d < X; C(Q, X) is the signed d read off squarefree_flags
    def test_small(self):
        assert list(compress(range(1, 10), squarefree_flags(1, 10))) == [1, 2, 3, 5, 6, 7]
        assert list(compress(range(1, 2), squarefree_flags(1, 2))) == [1]

    def test_million_count_against_density(self):
        count = 2 * squarefree_flags(1, 10**6).count(1)
        predicted = (6 / math.pi**2) * 2 * 10**6
        assert abs(count - predicted) / predicted < 0.001

    def test_matches_squarefree_part(self):
        flags = squarefree_flags(1, 200)
        for d in range(1, 200):
            assert bool(flags[d - 1]) == (squarefree_part(d) == d)


def factorize_squarefree(lo, hi):
    """(d, primes of d) for the squarefree lo <= d < hi, by trial division."""
    out = []
    for d in range(lo, hi):
        fact = factorize(d)
        if all(e == 1 for _, e in fact):
            out.append((d, tuple(p for p, _ in fact)))
    return out


class TestSquarefreeSieve:
    def test_flags_agree_with_factorize(self):
        X = 5000
        flags = squarefree_flags(1, X)
        assert [d for d in range(1, X) if flags[d - 1]] == [d for d, _ in factorize_squarefree(1, X)]
        assert squarefree_flags(30, 30) == bytearray()
        with pytest.raises(ValueError):
            squarefree_flags(0, 10)

    def test_factors_match_factorize_below_5e4(self):
        assert list(squarefree_factors(1, 50000)) == factorize_squarefree(1, 50000)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (1, 2),
            (1, 300),
            (49, 400),  # lo a prime square
            (2, 122),  # hi - 1 = 121 a prime square
            (1, 169 + 1),
            (1000, 1003),  # narrower than the gap to the next prime, 1009
            (7919**2 - 40, 7919**2 + 1),  # hi - 1 a large prime square
            (10**6 - 5, 10**6 + 2 * SIEVE_BLOCK + 7),  # several sieve blocks
        ],
    )
    def test_factors_on_ranges_and_chunks(self, lo, hi):
        whole = list(squarefree_factors(lo, hi))
        assert whole == factorize_squarefree(lo, hi)
        for width in (1, 7, 64) if hi - lo < 5000 else (64, SIEVE_BLOCK - 1):
            chunked = []
            for start in range(lo, hi, width):
                chunked.extend(squarefree_factors(start, min(start + width, hi)))
            assert chunked == whole


class TestLocalSquareClasses:
    def test_real(self):
        assert local_square_classes(REAL_PLACE) == [1, -1]

    def test_two(self):
        reps = local_square_classes(2)
        assert sorted(reps) == sorted([1, -1, 2, -2, 5, -5, 10, -10])
        # enumeration oracle: the 8 reps are pairwise inequivalent in Q_2
        keys = set()
        for r in reps:
            v = 0
            n = abs(r)
            while n % 2 == 0:
                n //= 2
                v += 1
            if r < 0:
                n = -n
            keys.add((v % 2, n % 8))
        assert len(keys) == 8

    def test_odd(self):
        assert local_square_classes(5) == [1, 2, 5, 10]
        for p in (3, 7, 11, 13):
            reps = local_square_classes(p)
            assert len(reps) == 4
            u = reps[1]
            assert kronecker(u, p) == -1
            # pairwise inequivalent: distinct (valuation parity, residue class)
            keys = {(1 if r % p == 0 else 0, kronecker(r // p if r % p == 0 else r, p)) for r in reps}
            assert len(keys) == 4

    def test_representatives_squarefree(self):
        for place in (REAL_PLACE, 2, 3, 7, 13):
            for r in local_square_classes(place):
                assert squarefree_part(r) == r


SAMPLE_CURVES = [
    (1, -1), (0, 4), (-1, 3), (0, -2), (2, -1), (1, 3), (-2, 5), (3, -2),
    (1, -3), (-1, -1), (2, 3), (-3, 2), (1, 5), (5, -1), (-2, -3), (4, 1),
    (-4, 3), (2, 7), (-5, -2), (3, 5),
]


def places_of(a, b):
    from twistselmer.arith import factorize

    return [REAL_PLACE] + [p for p, _ in factorize(2 * b * (a * a - 4 * b))]


class TestTorsorSolvability:
    def test_real_examples(self):
        assert torsor_locally_solvable(1, -1, 1, REAL_PLACE) is True
        assert torsor_locally_solvable(1, -1, -1, REAL_PLACE) is False

    def test_identity_class_everywhere(self):
        for a, b in SAMPLE_CURVES:
            for v in places_of(a, b) + [3, 7, 97]:
                assert torsor_locally_solvable(a, b, 1, v) is True

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            torsor_locally_solvable(0, 0, 1, 3)
        with pytest.raises(ValueError):
            torsor_locally_solvable(2, 1, 1, REAL_PLACE)  # a^2 = 4b

    def test_rejects_zero_class(self):
        with pytest.raises(ValueError):
            torsor_locally_solvable(1, -1, 0, 3)

    def test_class_representative_invariance(self):
        # solvability depends only on the square class of delta
        for a, b in [(1, -1), (0, 4), (-1, 3)]:
            for v in places_of(a, b):
                for d in local_square_classes(v):
                    base = torsor_locally_solvable(a, b, d, v)
                    for k in (2, 3, 5):
                        assert torsor_locally_solvable(a, b, d * k * k, v) == base

    @pytest.mark.parametrize("a,b", SAMPLE_CURVES)
    def test_solvable_set_is_subgroup(self, a, b):
        # closure under class multiplication at every place over 2*disc*oo
        for v in places_of(a, b):
            classes = local_square_classes(v)
            solvable = [c for c in classes if torsor_locally_solvable(a, b, c, v)]
            for x in solvable:
                for y in solvable:
                    prod = squarefree_part(x * y)
                    if v != REAL_PLACE and v != 2:
                        # reduce modulo the class structure at odd v
                        prod_class = next(c for c in classes if _same_class_odd(prod, c, v))
                    elif v == 2:
                        prod_class = next(c for c in classes if _same_class_two(prod, c))
                    else:
                        prod_class = 1 if prod > 0 else -1
                    assert prod_class in solvable, (a, b, v, x, y)

    def test_good_unramified_dimension_one(self):
        # at odd p not dividing 2*disc*delta-support the solvable set has 2 classes
        for a, b in [(1, -1), (0, 4), (2, 3), (-1, 3)]:
            bad = set(places_of(a, b)[1:])
            for p in (7, 11, 13, 17, 19, 23):
                if p in bad:
                    continue
                count = sum(1 for c in local_square_classes(p) if torsor_locally_solvable(a, b, c, p))
                assert count == 2, (a, b, p)


def _same_class_odd(x, rep, p):
    vx = 0
    while x % p == 0:
        x //= p
        vx += 1
    vr = 0
    r = rep
    while r % p == 0:
        r //= p
        vr += 1
    return vx % 2 == vr % 2 and kronecker(x, p) == kronecker(r, p)


def _same_class_two(x, rep):
    def key(n):
        v = 0
        m = abs(n)
        while m % 2 == 0:
            m //= 2
            v += 1
        if n < 0:
            m = -m
        return (v % 2, m % 8)

    return key(x) == key(rep)


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _route_cases(p, rng, n):
    """Polynomials over F_p with a unit leading coefficient, of the shapes the
    torsor solver reduces to: even quartics and quadratics, polynomials of
    degree 1 or 2, constants times squares, and even quartics with
    repeated roots."""
    cases = [[0, 0, 0, 0, 1], [0, 0, 1], [0, 1], [p - 1, 0, 1], [1, 0, 0, 0, 1]]
    for i in range(n):
        kind = i % 4
        if kind == 0:
            f = [rng.randrange(p), 0, rng.randrange(p), 0, rng.randrange(1, p)]
        elif kind == 1:
            f = [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [rng.randrange(1, p)]
        elif kind == 2:
            g = [rng.randrange(p), 1] if i % 8 == 2 else [rng.randrange(p), 0, 1]
            f = _poly_mul([rng.randrange(1, p)], _poly_mul(g, g, p), p)
        else:
            # c * (z^2 - r^2) * (z^2 - v): double roots +-r when v = r^2, 0 when r = 0
            r = rng.randrange(p)
            v = r * r if i % 8 == 3 else rng.randrange(p)
            f = _poly_mul([rng.randrange(1, p)], _poly_mul([-r * r % p, 0, 1], [-v % p, 0, 1], p), p)
        cases.append(f)
    return cases


def _not_even_cases(p, rng, n):
    """Monic cubics and quartics over F_p with an odd power of z."""
    cases = []
    while len(cases) < n:
        f = [rng.randrange(p) for _ in range(rng.randint(3, 4))] + [1]
        if any(f[1::2]):
            cases.append(f)
    return cases


def _square_by_coefficients(f, p):
    """Whether a monic f of degree <= 4 is g^2, g read off the top coefficients of f."""
    half = (p + 1) // 2
    if len(f) == 3:
        g = [f[1] * half % p, 1]
    elif len(f) == 5:
        u = f[3] * half % p
        g = [(f[2] - u * u) * half % p, u, 1]
    else:
        return False
    return _poly_mul(g, g, p) == [c % p for c in f]


class TestOddPrimeRoutes:
    """The residue scan and the polynomial route of the odd-prime torsor
    solver, each run on its own against the other."""

    @pytest.mark.parametrize("p", [p for p in sieve_primes(401) if p >= 31])
    def test_polynomial_route_matches_scan(self, p, monkeypatch):
        monkeypatch.setattr(arith, "_SMALL_PRIME_SCAN", 29)
        rng = random.Random(p)
        for f in _route_cases(p, rng, 24):
            # the solver hands both routes the monic g, with lead's symbol in the multiplier
            lead, g = arith._pmonic(f, p)
            scan_roots = arith._roots_by_scan(f, p)
            assert arith._roots_mod_p(g, p) == scan_roots, f
            for c_kron in (1, -1):
                exists, roots = arith._unit_square_scan(f, c_kron, p)
                assert arith._unit_square_value(g, c_kron * kronecker(lead, p), p)[0] == exists, (f, c_kron)
                assert roots is None or roots == scan_roots

    def test_even_reduction_matches_scan(self):
        rng = random.Random(4)
        primes = [p for p in sieve_primes(3000) if p > 400]
        squares = 0
        for _ in range(40):
            p = rng.choice(primes)
            for f in _route_cases(p, rng, 12):
                _, f = arith._pmonic(f, p)
                assert arith._monic_roots(f, p) == arith._roots_by_scan(f, p), (f, p)
                square = _square_by_coefficients(f, p)
                assert arith._monic_is_square(f, p) == square, (f, p)
                squares += square
        assert squares > 50

    def test_not_even_cubic_or_quartic_raises(self):
        # the torsor solver never reduces to one (see arith._monic_roots)
        rng = random.Random(5)
        for p in (409, 1009, 2003):
            for f in _not_even_cases(p, rng, 20):
                with pytest.raises(ArithmeticError):
                    arith._monic_roots(f, p)
                with pytest.raises(ArithmeticError):
                    arith._monic_is_square(f, p)

    @pytest.mark.parametrize(
        "a, b, delta, p, solvable",
        [(-6, -6 * 401**2, 3, 401, True), (-6, -6 * 401**3, 3, 401, False)],
    )
    def test_shift_at_nonzero_double_root(self, a, b, delta, p, solvable, monkeypatch):
        # the reduction mod p is 3*(3 + 6z^2)^2, with double roots z = +-sqrt(-1/2);
        # q(r + p*t) is not even, so its Weil test is the quadratic discriminant
        calls = {"shift": 0, "disc": 0}
        shift, is_square = arith._taylor_shift_scale, arith._monic_is_square

        def counted_shift(c, r, p):
            calls["shift"] += r % p != 0
            return shift(c, r, p)

        def counted_is_square(f, p):
            calls["disc"] += len(f) == 3 and arith._even_half(f) is None
            return is_square(f, p)

        monkeypatch.setattr(arith, "_taylor_shift_scale", counted_shift)
        monkeypatch.setattr(arith, "_monic_is_square", counted_is_square)
        assert torsor_locally_solvable(a, b, delta, p) is solvable
        assert calls["shift"] >= 1 and calls["disc"] >= 1
        monkeypatch.setattr(arith, "_SMALL_PRIME_SCAN", p + 1)
        assert torsor_locally_solvable(a, b, delta, p) is solvable


def _reference_solvable_z2(q, disc) -> bool:
    """Whether q takes a square value (or 0) on Z_2: the depth-first search
    over residue classes t = t0 mod 2^j that the solver used before the
    recursion, kept as an oracle.

    Adaptive refinement of residue classes t = t0 mod 2^j.  A class is
    decided once val_2(q(t0)) + 3 <= j (the square class of q is then
    constant on it) or once Newton's bound val(q) > 2*val(q') certifies a
    2-adic root.  The Bezout identity for Res(q, q') bounds the depth.
    """
    dq = [i * q[i] for i in range(1, len(q))]
    cap = 2 * (_val(disc, 2) + _val(q[-1], 2)) + 16
    stack = [(0, 0)]
    while stack:
        t0, j = stack.pop()
        v = _poly_eval(q, t0)
        if v == 0:
            return True
        m = _val(v, 2)
        if m + 3 <= j:
            # v = 2^m * u exactly; square in Q_2 iff m even and u = 1 mod 8
            if m % 2 == 0 and (v >> m) % 8 == 1:
                return True
            continue
        dv = _poly_eval(dq, t0)
        if dv != 0 and m > 2 * _val(dv, 2):
            return True
        if j >= cap:  # unreachable by the resultant bound; fail loudly if not
            raise ArithmeticError("2-adic torsor refinement exceeded certified depth")
        stack.append((t0, j + 1))
        stack.append((t0 + (1 << j), j + 1))
    return False


def _val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _poly_eval(c, x):
    acc = 0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _reference_at_2(a, b, delta):
    q = [delta**3, 0, -2 * a * delta * delta, 0, delta * (a * a - 4 * b)]
    disc = 4096 * delta**12 * b * b * (a * a - 4 * b)
    return _reference_solvable_z2(q, disc) or _reference_solvable_z2(q[::-1], disc)


CLASSES_AT_2 = (1, -1, 2, -2, 5, -5, 10, -10)


class TestTwoAdicSolver:
    """The 2-adic recursion against the residue-class search it replaced."""

    @pytest.mark.parametrize("a,b", SAMPLE_CURVES)
    def test_matches_reference_on_sample_curves(self, a, b):
        # both sides of the isogeny, every twist class at 2, every delta
        for sa, sb in ((a, b), (-2 * a, a * a - 4 * b)):
            for rep in CLASSES_AT_2:
                at, bt = sa * rep, sb * rep * rep
                for delta in CLASSES_AT_2:
                    expected = _reference_at_2(at, bt, delta)
                    assert torsor_locally_solvable(at, bt, delta, 2) == expected, (at, bt, delta)

    def test_matches_reference_on_random_twists(self):
        rng = random.Random(6)
        checked = solvable = 0
        while checked < 1600:
            a, b = rng.randint(-60, 60), rng.randint(-60, 60)
            if b * (a * a - 4 * b) == 0:
                continue
            k = rng.choice((1, 2, 3, 4, 6, 8, 12))
            rep = rng.choice(CLASSES_AT_2) * k
            at, bt = a * rep, b * rep * rep
            for delta in CLASSES_AT_2:
                expected = _reference_at_2(at, bt, delta)
                assert torsor_locally_solvable(at, bt, delta, 2) == expected, (at, bt, delta)
                checked += 1
                solvable += expected
        assert 0 < solvable < checked

    def test_newton_bound_certifies_simple_root(self):
        # t^2 - 17 has simple roots in 1 + 2*Z_2, found by Newton's bound at once:
        # q(1 + 2t) = 4t^2 + 4t - 16, and v(q(1)) = 4 > 2*v(q'(1)) = 2.  Without
        # the bound the class is refined past depth 1 toward the root.
        assert arith._solve_z2([-17, 0, 1], 0, 1) is True

    def test_depth_caps_fire(self):
        # t^2 + 1 needs one refinement at 2: q(2t) = 1 + 4t^2 is not yet
        # 1 mod 8 on Z_2, while q(4t) = 1 + 16t^2 is
        assert arith._solve_z2([1, 0, 1], 0, 1) is True
        with pytest.raises(ArithmeticError):
            arith._solve_z2([1, 0, 1], 0, 0)
        # (t^2 + 9) times a nonresidue at 3: its unit values are nonresidues and
        # t = 0 is a double root mod 3, so the class 3*Z_3 needs a shift
        assert arith._solve_odd([9, 0, 1], 3, 0, -1, 1) is True
        with pytest.raises(ArithmeticError):
            arith._solve_odd([9, 0, 1], 3, 0, -1, 0)
