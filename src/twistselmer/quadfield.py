"""Ideal arithmetic in quadratic number fields K = Q(sqrt(m)).

Prime splitting, squarefree-ideal enumeration by ideal class, the class
group via Minkowski-bound enumeration with exact principality testing,
the class of a prime of an imaginary field by Gauss reduction of its
binary quadratic form, units modulo squares, and the analytic constants
(residue of zeta_K at s=1, zeta_K(2)) that drive squarefree-ideal counts.

Ideals are kept in fully factored form, and membership is read off the
factorization one prime power at a time.  Fields are capped at
|disc| <= 10^4 and real fields at a fundamental-unit coordinate bound of
10^7 so that every search is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import PRIME_SEGMENT, factorize, kronecker, prime_flags, sieve_primes, sqrt_mod_prime, squarefree_part

SPLIT, INERT, RAMIFIED = "split", "inert", "ramified"

DISC_CAP = 10**4
UNIT_COORD_CAP = 10**7

# default Euler-product cutoff for zeta_K(2); the log of the tail past it is
# about 2.1/(B log B) < 1e-8
ZETA2_DEFAULT_CUTOFF = 15_000_000


class FieldTooLargeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PrimeIdealK:
    """A prime ideal of O_K, identified by its rational prime and conjugate slot."""

    p: int
    splitting: str
    conjugate_index: int
    norm: int


@dataclass(frozen=True, slots=True)
class IdealK:
    """A nonzero integral ideal in factored form; factorization sorted, no repeats."""

    factorization: tuple[tuple[PrimeIdealK, int], ...]
    norm: int


ONE_IDEAL = IdealK((), 1)


def _fact_key(ideal: IdealK):
    return tuple((P.p, P.conjugate_index, e) for P, e in ideal.factorization)


def make_ideal(factors) -> IdealK:
    """Build an IdealK from (PrimeIdealK, exponent) pairs in any order, merging duplicates.

    The enumeration walks add primes in order and build their IdealK directly."""
    acc: dict[PrimeIdealK, int] = {}
    for P, e in factors:
        if e < 0:
            raise ValueError("make_ideal: exponents must be >= 0")
        if e:
            acc[P] = acc.get(P, 0) + e
    fact = tuple(sorted(acc.items(), key=lambda t: (t[0].norm, t[0].p, t[0].conjugate_index)))
    norm = 1
    for P, e in fact:
        norm *= P.norm**e
    return IdealK(fact, norm)


def ideal_mul(a: IdealK, b: IdealK) -> IdealK:
    return make_ideal(a.factorization + b.factorization)


def ideal_conj(a: IdealK) -> IdealK:
    out = []
    for P, e in a.factorization:
        if P.splitting == SPLIT:
            P = PrimeIdealK(P.p, SPLIT, 1 - P.conjugate_index, P.norm)
        out.append((P, e))
    return make_ideal(out)


def ideal_is_squarefree(a: IdealK) -> bool:
    return all(e == 1 for _, e in a.factorization)


def ideal_divides(d: IdealK, q: IdealK) -> bool:
    qmap = {P: e for P, e in q.factorization}
    return all(qmap.get(P, 0) >= e for P, e in d.factorization)


class QuadraticField:
    """Q(sqrt(m)) for squarefree m not in {0, 1}, with exact class data."""

    def __init__(self, m: int):
        if m in (0, 1):
            raise ValueError("m must be a squarefree integer distinct from 0 and 1")
        if squarefree_part(m) != m:
            raise ValueError(f"m = {m} is not squarefree")
        self.m = m
        self.disc = m if m % 4 == 1 else 4 * m
        if abs(self.disc) > DISC_CAP:
            raise FieldTooLargeError(f"|disc| = {abs(self.disc)} exceeds the cap {DISC_CAP}")
        self.signature = (2, 0) if m > 0 else (0, 1)
        # omega = sqrt(m) (m != 1 mod 4) or (1+sqrt(m))/2; trace/norm of omega:
        if m % 4 == 1:
            self.omega_trace, self.omega_norm = 1, (1 - m) // 4
        else:
            self.omega_trace, self.omega_norm = 0, -m
        if m == -1:
            self.num_roots_of_unity = 4
        elif m == -3:
            self.num_roots_of_unity = 6
        else:
            self.num_roots_of_unity = 2
        if m > 0:
            self.fundamental_unit = _fundamental_unit(self)
            x, y = self.fundamental_unit
            self.unit_value = x + y * self._omega_real()
            self.regulator = math.log(self.unit_value)
        else:
            self.fundamental_unit = None
            self.unit_value = None
            self.regulator = 0.0
        self._prime_cache: dict[int, list[PrimeIdealK]] = {}
        self._prime_class_cache: dict[PrimeIdealK, int] = {}
        self._zeta2_cache: dict[int, float] = {}
        self._sqfree_cache: dict[int, tuple] = {}

    def _omega_real(self) -> float:
        return math.sqrt(self.m) if self.m % 4 != 1 else (1 + math.sqrt(self.m)) / 2

    def __repr__(self):
        return f"QuadraticField({self.m})"

    # --- class group -------------------------------------------------

    @cached_property
    def class_representatives(self) -> tuple[IdealK, ...]:
        """One ideal per class: the first of its class, in (norm, factorization)
        order, among the ideals of norm at most the Minkowski bound."""
        reps: list[IdealK] = []
        for a in _ideals_up_to_norm(self, self.minkowski_bound):
            if not any(self._equivalent(a, r) for r in reps):
                reps.append(a)
        return tuple(reps)

    @property
    def class_number(self) -> int:
        return len(self.class_representatives)

    @property
    def minkowski_bound(self) -> int:
        d = abs(self.disc)
        if self.m < 0:
            return int((2.0 / math.pi) * math.sqrt(d)) + 1
        return int(0.5 * math.sqrt(d)) + 1

    @cached_property
    def _cayley(self) -> list[list[int]]:
        """The class group's table: _cayley[i][j] is the class of reps[i]*reps[j]."""
        reps = self.class_representatives
        h = len(reps)
        table = [[0] * h for _ in range(h)]
        for i in range(h):
            for j in range(i, h):
                prod = ideal_mul(reps[i], reps[j])
                k = next(t for t in range(h) if self._equivalent(prod, reps[t]))
                table[i][j] = table[j][i] = k
        return table

    def _equivalent(self, a: IdealK, b: IdealK) -> bool:
        return generator_if_principal(self, ideal_mul(a, ideal_conj(b))) is not None

    def class_compose(self, i: int, j: int) -> int:
        return self._cayley[i][j]

    def class_inverse(self, i: int) -> int:
        return self._cayley[i].index(0)

    def class_of_prime(self, P: PrimeIdealK) -> int:
        if self.class_number == 1:
            return 0
        cls = self._prime_class_cache.get(P)
        if cls is None:
            if P.conjugate_index == 1:
                # P * conj(P) = (p), so P is in the inverse class of its conjugate
                cls = self.class_inverse(self.class_of_prime(PrimeIdealK(P.p, SPLIT, 0, P.norm)))
            elif P.splitting == INERT:
                cls = 0  # (p) is principal
            elif self.m < 0:
                cls = self._form_classes[_reduced_form(*_prime_form(self, P.p))]
            else:
                # a prime in none of the other classes is in the last one
                a = IdealK(((P, 1),), P.norm)
                reps = self.class_representatives
                cls = next((k for k, r in enumerate(reps[:-1]) if self._equivalent(a, r)), len(reps) - 1)
            self._prime_class_cache[P] = cls
        return cls

    @cached_property
    def _form_classes(self) -> dict[tuple[int, int, int], int]:
        """For D < 0, the class index of each reduced form (a, b, c) of
        discriminant D (Cohen, GTM 138, Alg. 5.3.5): that of the ideal
        [a, (-b + sqrt(D))/2] = (a, omega - r), r = (t + b)/2, found by the
        norm-form search against class_representatives.  The h reduced
        forms must meet the h classes once each."""
        D, t = self.disc, self.omega_trace
        reps = self.class_representatives
        out = {}
        for a in range(1, math.isqrt(-D // 3) + 1):  # |b| <= a <= c gives 3a^2 <= |D|
            for b in range(1 - a, a + 1):
                c, rem = divmod(b * b - D, 4 * a)
                if rem or _reduced_form(a, b, c) != (a, b, c):
                    continue
                r = (t + b) // 2
                factors = []
                for p, e in factorize(a):
                    primes = split_prime(self, p)
                    # a primitive ideal: a split prime's slot is read off r, a ramified one has e = 1
                    P = primes[_omega_roots_mod_p(self, p).index(r % p)] if len(primes) == 2 else primes[0]
                    factors.append((P, e))
                J = make_ideal(factors)
                out[(a, b, c)] = next((k for k, rep in enumerate(reps) if self._equivalent(J, rep)), None)
        if len(out) != len(reps) or set(out.values()) != set(range(len(reps))):
            raise ArithmeticError(f"the reduced forms of discriminant {D} do not match the class group")
        return out

    def class_of_ideal(self, a: IdealK) -> int:
        cls = 0
        h = self.class_number
        for P, e in a.factorization:
            cp = self.class_of_prime(P)
            # element orders divide h, so the exponent only matters mod h
            for _ in range(e % h):
                cls = self.class_compose(cls, cp)
        return cls


_FIELD_CACHE: dict[int, QuadraticField] = {}


def make_field(m: int) -> QuadraticField:
    if m not in _FIELD_CACHE:
        _FIELD_CACHE[m] = QuadraticField(m)
    return _FIELD_CACHE[m]


# --- elements: (x, y) means x + y*omega ------------------------------


def element_norm(field: QuadraticField, el) -> int:
    x, y = el
    return x * x + field.omega_trace * x * y + field.omega_norm * y * y


def _fundamental_unit(field: QuadraticField):
    """Fundamental unit of a real field, as integral coordinates on (1, omega).

    Write omega = (t + sqrt(D))/2, t its trace and D the discriminant.  A
    unit u = x + y*omega > 1 has |(x + y*t) - y*omega| = |conj(u)| = 1/u, and
    u >= y*sqrt(D) - 1/u > 2y once D > 8, so by Legendre's criterion
    (x + y*t)/y is a convergent h/k of omega.  The first convergent of norm
    h^2 - t*h*k + N(omega)*k^2 = +-1 thus gives the smallest unit > 1,
    h - k*conj(omega) = (h - k*t) + k*omega (it exceeds 1 as conj(omega) < 0).
    The tests check this against a brute-force search, D = 5 and 8 included.
    """
    t, n, D = field.omega_trace, field.omega_norm, field.disc
    P, Q = t, 2  # the complete quotient (P + sqrt(D))/Q, starting from omega
    h, hp, k, kp = 1, 0, 0, 1  # the last two convergents h/k and hp/kp
    while True:
        a = (P + math.isqrt(D)) // Q
        h, hp, k, kp = a * h + hp, h, a * k + kp, k
        if max(h - k * t, k) > UNIT_COORD_CAP:
            raise FieldTooLargeError(f"fundamental unit of Q(sqrt({field.m})) exceeds the search bound")
        if h * h - t * h * k + n * k * k in (1, -1):
            return (h - k * t, k)
        P = a * Q - P
        Q = (D - P * P) // Q


def units_mod_squares(field: QuadraticField):
    """Representatives of O_K^x/(O_K^x)^2 as elements."""
    if field.m < 0:
        if field.m == -1:
            return [(1, 0), (0, 1)]
        if field.m == -3:
            return [(1, 0), (0, 1)]  # zeta_6 = omega
        return [(1, 0), (-1, 0)]
    eps = field.fundamental_unit
    return [(1, 0), (-1, 0), eps, (-eps[0], -eps[1])]


# --- prime ideals -----------------------------------------------------


def split_prime(field: QuadraticField, p: int) -> list[PrimeIdealK]:
    """The prime ideals of O_K above the rational prime p."""
    if p not in field._prime_cache:
        sym = kronecker(field.disc, p)
        if sym == 1:
            out = [PrimeIdealK(p, SPLIT, 0, p), PrimeIdealK(p, SPLIT, 1, p)]
        elif sym == -1:
            out = [PrimeIdealK(p, INERT, 0, p * p)]
        else:
            out = [PrimeIdealK(p, RAMIFIED, 0, p)]
        field._prime_cache[p] = out
    return field._prime_cache[p]


def _omega_roots_mod_p(field: QuadraticField, p: int) -> list[int]:
    """Roots of x^2 - t*x + N(omega), the minimal polynomial of omega, mod p."""
    t = field.omega_trace
    if p == 2:
        return [x for x in (0, 1) if (x * x - t * x + field.omega_norm) % 2 == 0]
    # omega = (t + sqrt(D))/2
    s = sqrt_mod_prime(field.disc % p, p)
    if s is None:
        return []
    inv2 = (p + 1) // 2
    return sorted({(t + s) * inv2 % p, (t - s) * inv2 % p})


def ideal_contains(field: QuadraticField, a: IdealK, el) -> bool:
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


def generator_if_principal(field: QuadraticField, a: IdealK):
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


def _prime_form(field: QuadraticField, p: int) -> tuple[int, int, int]:
    """The form (p, b, c) of the prime P = (p, omega - R) above p of
    conjugate index 0, split or ramified: P = [p, (-b + sqrt(D))/2] with
    b = 2R - t, and b^2 - D = 4(R^2 - t*R + N(omega)) = 0 mod 4p."""
    b = 2 * _omega_roots_mod_p(field, p)[0] - field.omega_trace
    return p, b, (b * b - field.disc) // (4 * p)


def _reduced_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced form properly equivalent to a positive definite (a, b, c):
    |b| <= a <= c, and b >= 0 if |b| = a or a = c (Cohen, GTM 138, Alg. 5.4.2)."""
    while True:
        if not -a < b <= a:  # b -> b - 2aq in (-a, a], by (x, y) -> (x - qy, y)
            q, r = divmod(b, 2 * a)
            if r > a:
                r -= 2 * a
                q += 1
            c -= (b + r) * q // 2
            b = r
        if a <= c:
            break
        a, b, c = c, -b, a  # (x, y) -> (-y, x)
    if a == c and b < 0:
        b = -b
    return a, b, c


# --- enumeration ------------------------------------------------------


def primes_up_to(field: QuadraticField, X: int) -> list[PrimeIdealK]:
    """All prime ideals of norm < X, ordered by (norm, p, conjugate_index)."""
    out = []
    for p in sieve_primes(max(2, X)):
        for P in split_prime(field, p):
            if P.norm < X:
                out.append(P)
    out.sort(key=lambda P: (P.norm, P.p, P.conjugate_index))
    return out


def _ideals_up_to_norm(field: QuadraticField, bound: int) -> list[IdealK]:
    """All integral ideals of norm <= bound, sorted by (norm, factorization)."""
    primes = primes_up_to(field, bound + 1)
    out = []

    def rec(i, factors, norm):
        # primes are added in primes_up_to order, so factors is already sorted
        out.append(IdealK(factors, norm))
        for j in range(i, len(primes)):
            P = primes[j]
            if norm * P.norm > bound:
                break
            e, nn = 1, norm * P.norm
            while nn <= bound:
                rec(j + 1, factors + ((P, e),), nn)
                e += 1
                nn *= P.norm

    rec(0, (), 1)
    out.sort(key=lambda a: (a.norm, _fact_key(a)))
    return out


def squarefree_ideals_up_to(field: QuadraticField, X: int, class_constraint: IdealK | None = None) -> list[IdealK]:
    """Squarefree ideals of norm < X; optionally only those a with a*b^2 principal."""
    classed = _squarefree_with_classes(field, X)
    if class_constraint is None:
        return [a for a, _ in classed]
    b_cls = field.class_of_ideal(class_constraint)
    target = field.class_inverse(field.class_compose(b_cls, b_cls))
    return [a for a, cls in classed if cls == target]


def _squarefree_with_classes(field: QuadraticField, X: int):
    """Cached tuple of (squarefree ideal of norm < X, class index), sorted by
    (norm, factorization).

    A stack walk, like count_sf's, adds primes in primes_up_to order.  Each
    ideal carries its sort key: its norm, then the indices of its primes in
    that order, ascending, from which its factorization is read after the
    sort.  For ideals of one norm the indices compare as the
    factorizations' (p, conjugate_index) tuples do.  Where two such ideals
    first differ, in P and Q with NP < NQ, p(P) > p(Q) would make Q inert
    and NP = p(P); as p(P) divides the norm of the second ideal, a later
    prime of it would lie above p(P), of norm p(P) < NQ, out of order.  The
    list of a larger bound, once cached, gives that of X as its prefix."""
    cached = field._sqfree_cache.get(X)
    if cached is not None:
        return cached
    larger = [Y for Y in field._sqfree_cache if Y > X]
    if larger:
        whole = field._sqfree_cache[min(larger)]
        return whole[: bisect_left(whole, X, key=lambda t: t[0].norm)]
    primes = primes_up_to(field, X)
    norms = [P.norm for P in primes]
    pcls = [field.class_of_prime(P) for P in primes]
    table = field._cayley
    out = []
    stack = [(0, 1, (), 0)] if X > 1 else []  # (next prime, norm, prime indices, class)
    while stack:
        i, norm, key, cls = stack.pop()
        out.append((norm, key, cls))
        row = table[cls]
        for j in range(i, len(primes)):
            nn = norm * norms[j]
            if nn >= X:
                break
            stack.append((j + 1, nn, key + (j,), row[pcls[j]]))
    out.sort()  # (norm, key) is distinct, so the sort compares nothing else
    factor = [(P, 1) for P in primes].__getitem__
    result = tuple((IdealK(tuple(map(factor, key)), norm), cls) for norm, key, cls in out)
    field._sqfree_cache[X] = result
    return result


def count_sf(field: QuadraticField, X: int, c: IdealK, q: IdealK, d: IdealK) -> int:
    """Exact count of squarefree ideals a, norm < X, class of c, gcd(a, q) = d.

    Such an a is d*b with b squarefree and prime to q, so only b is walked,
    over the primes prime to q, and no ideal is built: N(d)*N(b) < X iff
    N(b) < B = ceil(X / N(d)).  The walk starts at the class of d.
    """
    _validate_qd(q, d)
    if d.norm >= X:  # not even b = (1) fits
        return 0
    target = field.class_of_ideal(c)
    B = -(-X // d.norm)
    qprimes = {P for P, _ in q.factorization}
    primes = [P for P in primes_up_to(field, B) if P not in qprimes]
    norms = [P.norm for P in primes]
    pcls = [field.class_of_prime(P) for P in primes]
    table = field._cayley
    count = 0
    stack = [(0, 1, field.class_of_ideal(d))]
    while stack:
        i, norm, cls = stack.pop()
        count += cls == target
        row = table[cls]
        for j in range(i, len(primes)):
            nn = norm * norms[j]
            if nn >= B:
                break
            stack.append((j + 1, nn, row[pcls[j]]))
    return count


def _validate_qd(q: IdealK, d: IdealK):
    if not ideal_is_squarefree(d):
        raise ValueError("d must be squarefree")
    if not ideal_divides(d, q):
        raise ValueError("d must divide q")


def phi_qd(field: QuadraticField, q: IdealK, d: IdealK) -> Fraction:
    """prod_{P | d} 1/(NP+1) * prod_{P | q, P !| d} NP/(NP+1)."""
    _validate_qd(q, d)
    dset = {P for P, _ in d.factorization}
    out = Fraction(1)
    for P, _ in q.factorization:
        if P in dset:
            out *= Fraction(1, P.norm + 1)
        else:
            out *= Fraction(P.norm, P.norm + 1)
    return out


# --- analytic constants ----------------------------------------------


def zeta_residue(field: QuadraticField) -> float:
    """res_{s=1} zeta_K(s) by the class number formula."""
    r1, r2 = field.signature
    reg = field.regulator if field.m > 0 else 1.0
    return (
        2**r1
        * (2 * math.pi) ** r2
        * field.class_number
        * reg
        / (field.num_roots_of_unity * math.sqrt(abs(field.disc)))
    )


def zeta_at_2(field: QuadraticField, B: int | None = None) -> float:
    """zeta_K(2) via the Euler product over prime ideals of norm < B.

    The primes below B are read one PRIME_SEGMENT of the sieve at a time,
    and only the split and ramified ones, and the inert ones below sqrt(B),
    are kept.  Each log-factor array holds the same elements in the same
    order as over one sieve of [0, B), so its pairwise sum, and the value,
    has the same bits."""
    if B is None:
        B = ZETA2_DEFAULT_CUTOFF
    if B < 2:
        raise ValueError("zeta_at_2: B must be >= 2")
    if B in field._zeta2_cache:
        return field._zeta2_cache[B]
    import numpy as np

    absd = abs(field.disc)
    chi_table = np.array([kronecker(field.disc, r) if r else 0 for r in range(absd)], dtype=np.int8)
    split, ram, inert = [], [], []
    for lo in range(0, B, PRIME_SEGMENT):
        index = np.flatnonzero(np.frombuffer(prime_flags(lo, min(lo + PRIME_SEGMENT, B)), dtype=np.bool_)) + lo
        ps = index.astype(np.float64)
        chi = chi_table[index % absd]
        split.append(ps[chi == 1])
        ram.append(ps[chi == 0])
        inert.append(ps[(chi == -1) & (ps * ps < B)])
    # -2 log(1 - p^-2) over the split p, in place: one array of them at a time
    log_split = np.concatenate(split)
    del split
    np.multiply(log_split, log_split, out=log_split)
    np.divide(1.0, log_split, out=log_split)
    np.log1p(np.negative(log_split, out=log_split), out=log_split)
    log_split *= -2.0
    ps = np.concatenate(ram)
    log_ram = -np.log1p(-(1.0 / (ps * ps)))
    log_inert = -np.log1p(-1.0 / np.concatenate(inert) ** 4)
    val = math.exp(float(log_split.sum() + log_ram.sum() + log_inert.sum()))
    field._zeta2_cache[B] = val
    return val


def mainterm_sf(field: QuadraticField, X: int, c: IdealK, q: IdealK, d: IdealK) -> float:
    """Main term (1/h) (res zeta_K / zeta_K(2)) phi(q, d) X of the squarefree count."""
    _validate_qd(q, d)
    return (
        (1.0 / field.class_number)
        * (zeta_residue(field) / zeta_at_2(field))
        * float(phi_qd(field, q, d))
        * X
    )

