"""Ideal arithmetic in quadratic number fields K = Q(sqrt(m)).

Prime splitting, squarefree-ideal enumeration by ideal class, the class
group with the class of every ideal read off the reduced binary quadratic
form of its primitive part, the fundamental unit, and the analytic
constants (residue of zeta_K at s=1, zeta_K(2)) that drive
squarefree-ideal counts.

Ideals are kept in fully factored form.  Fields are capped at
|disc| <= 10^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import PRIME_SEGMENT, kronecker, prime_flags, sieve_primes, sqrt_mod_prime, squarefree_part

__all__ = [
    "PrimeIdealK",
    "IdealK",
    "QuadraticField",
    "make_field",
    "split_prime",
    "primes_up_to",
    "squarefree_ideals_up_to",
    "count_sf",
    "phi_qd",
    "zeta_residue",
    "zeta_at_2",
    "mainterm_sf",
]

SPLIT, INERT, RAMIFIED = "split", "inert", "ramified"

DISC_CAP = 10**4

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
        self.m = m
        self.disc = m if m % 4 == 1 else 4 * m
        if abs(self.disc) > DISC_CAP:  # before squarefree_part, which would factor a huge m
            raise FieldTooLargeError(f"|disc| = {abs(self.disc)} exceeds the cap {DISC_CAP}")
        if squarefree_part(m) != m:
            raise ValueError(f"m = {m} is not squarefree")
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
        # the classes of O_K^x / (O_K^x)^2: 1 and i = omega in Q(i), as -1 = i^2; 1 and -1 in
        # the other imaginary fields (zeta_6 = -zeta_3^2); +-1 and +-eps in the real ones
        self.num_unit_classes = 2 if m < 0 else 4
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

    def _omega_real(self) -> float:
        return math.sqrt(self.m) if self.m % 4 != 1 else (1 + math.sqrt(self.m)) / 2

    def __repr__(self):
        return f"QuadraticField({self.m})"

    # --- class group -------------------------------------------------

    @cached_property
    def _class_group(self) -> tuple[tuple[IdealK, ...], dict[tuple[int, int, int], int]]:
        """The class representatives, and the class index of every reduced
        form of discriminant D in their classes.

        The class of an ideal is read off a reduced form of its primitive
        part (_ideal_form, _reduced).  For D < 0 a class holds one reduced
        form (Cohen, GTM 138, Alg. 5.4.2).  For D > 0 the reduced forms of a
        narrow class are one rho-cycle (section 5.6), and an element of
        negative norm takes the form (a, b, c) of an ideal to the narrow
        class of (-a, b, -c); the wide class is the union of both cycles.
        A representative is the first ideal of its class, in (norm,
        factorization) order, among those of norm at most the Minkowski
        bound; as every class has one, every reduced form is indexed."""
        D = self.disc
        reps: list[IdealK] = []
        index: dict[tuple[int, int, int], int] = {}
        for a in _ideals_up_to_norm(self, self.minkowski_bound):
            form = _reduced(D, *_ideal_form(self, a))
            if form not in index:
                n, b, c = form
                forms = [form] if D < 0 else _cycle(D, form) + _cycle(D, _reduced(D, -n, b, -c))
                index.update(dict.fromkeys(forms, len(reps)))
                reps.append(a)
        return tuple(reps), index

    @cached_property
    def class_representatives(self) -> tuple[IdealK, ...]:
        """One ideal per class, the first of its class (see _class_group)."""
        return self._class_group[0]

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
        return [[self.class_of_ideal(ideal_mul(r, s)) for s in reps] for r in reps]

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
            else:
                cls = self.class_of_ideal(IdealK(((P, 1),), P.norm))
            self._prime_class_cache[P] = cls
        return cls

    def class_of_ideal(self, a: IdealK) -> int:
        return self._class_group[1][_reduced(self.disc, *_ideal_form(self, a))]


_FIELD_CACHE: dict[int, QuadraticField] = {}


def make_field(m: int) -> QuadraticField:
    if m not in _FIELD_CACHE:
        _FIELD_CACHE[m] = QuadraticField(m)
    return _FIELD_CACHE[m]


# --- elements: (x, y) means x + y*omega ------------------------------


def _fundamental_unit(field: QuadraticField):
    """Fundamental unit of a real field, as integral coordinates on (1, omega).

    Write omega = (t + sqrt(D))/2, t its trace and D the discriminant.  A
    unit u = x + y*omega > 1 has |(x + y*t) - y*omega| = |conj(u)| = 1/u, and
    u >= y*sqrt(D) - 1/u > 2y once D > 8, so by Legendre's criterion
    (x + y*t)/y is a convergent h/k of omega.  The first convergent of norm
    h^2 - t*h*k + N(omega)*k^2 = +-1 thus gives the smallest unit > 1,
    h - k*conj(omega) = (h - k*t) + k*omega (it exceeds 1 as conj(omega) < 0).
    The loop ends: the continued fraction of omega is periodic, and the
    convergent that ends its first period has norm +-1 (Cohen, GTM 138,
    5.7).  The tests check this against a brute-force search, D = 5 and 8
    included, and the regulator against the analytic class number formula.
    """
    t, n, D = field.omega_trace, field.omega_norm, field.disc
    P, Q = t, 2  # the complete quotient (P + sqrt(D))/Q, starting from omega
    h, hp, k, kp = 1, 0, 0, 1  # the last two convergents h/k and hp/kp
    while True:
        a = (P + math.isqrt(D)) // Q
        h, hp, k, kp = a * h + hp, h, a * k + kp, k
        if h * h - t * h * k + n * k * k in (1, -1):
            return (h - k * t, k)
        P = a * Q - P
        Q = (D - P * P) // Q


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


def _ideal_form(field: QuadraticField, a: IdealK) -> tuple[int, int, int]:
    """The form (N, b, c) of the primitive part J of a: J = (N, omega - R) is
    the lattice [N, (-b + sqrt(D))/2] with b = 2R - t.

    (p) is principal, so J drops the inert primes, P^2 at a ramified p and
    P*conj(P) at a split p.  At each prime power P^e left, R is the root r of
    omega's minimal polynomial f mod p that names P, lifted to a root mod p^e
    by Newton steps: each one doubles the precision, and f'(r) = 2r - t is a
    unit mod p, p = 2 included.  The CRT joins the roots, and then
    b^2 - D = 4 f(R) = 0 mod 4N."""
    t, n = field.omega_trace, field.omega_norm
    net: dict[int, int] = {}  # p -> exponent of its conjugate index 0, less that of index 1
    for P, e in a.factorization:
        if P.splitting == SPLIT:
            net[P.p] = net.get(P.p, 0) + (-e if P.conjugate_index else e)
        elif P.splitting == RAMIFIED:
            net[P.p] = e % 2
    N, R = 1, 0
    for p, e in net.items():
        if e:
            q = p ** abs(e)
            r = _omega_roots_mod_p(field, p)[e < 0]
            for _ in range((abs(e) - 1).bit_length()):
                r = (r - (r * r - t * r + n) * pow(2 * r - t, -1, q)) % q
            R += N * ((r - R) * pow(N, -1, q) % q)
            N *= q
    b = 2 * R - t
    return N, b, (b * b - field.disc) // (4 * N)


def _reduced(D: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """A reduced form properly equivalent to (a, b, c) of discriminant D: the
    one of its class for D < 0, the first that rho reaches for D > 0, where
    reduced means |sqrt(D) - 2|a|| < b < sqrt(D) (Cohen, GTM 138, 5.6.2).
    D is not a square, so with s = isqrt(D) that is s - b < 2|a| <= s + b
    and 0 < b <= s."""
    if D < 0:
        return _reduced_form(a, b, c)
    s = math.isqrt(D)
    while not (0 < b <= s and s - b < 2 * abs(a) <= s + b):
        a, b, c = _rho(D, a, b, c)
    return a, b, c


def _rho(D: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduction step rho(a, b, c) = (c, r, (r^2 - D)/4c) of an indefinite
    form, with r = -b mod 2c in (-|c|, |c|] if |c| > sqrt(D) and in
    (sqrt(D) - 2|c|, sqrt(D)) otherwise (Cohen, GTM 138, 5.6.4).  It takes
    a reduced form to the next one of its cycle."""
    s, m = math.isqrt(D), 2 * abs(c)
    if m > 2 * s:
        r = -b % m
        if 2 * r > m:
            r -= m
    else:
        r = s - (s + b) % m  # the r = -b mod m in [s - m + 1, s]
    return c, r, (r * r - D) // (4 * c)


def _cycle(D: int, form: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """The rho-cycle of a reduced indefinite form: the reduced forms of its
    narrow class."""
    out = [form]
    while (form := _rho(D, *form)) != out[0]:
        out.append(form)
    return out


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


def _walk(field: QuadraticField, primes: list[PrimeIdealK], bound: int, cls: int):
    """(Nb, key, class of b times class cls) for each squarefree product b of
    `primes` with Nb < bound, key the indices of b's primes in `primes`."""
    norms = [P.norm for P in primes]
    pcls = [field.class_of_prime(P) for P in primes]
    table = field._cayley
    stack = [(0, 1, (), cls)] if bound > 1 else []  # (next prime, norm, key, class)
    while stack:
        i, norm, key, cls = stack.pop()
        yield norm, key, cls
        row = table[cls]
        for j in range(i, len(primes)):
            nn = norm * norms[j]
            if nn >= bound:
                break
            stack.append((j + 1, nn, key + (j,), row[pcls[j]]))


def squarefree_ideals_up_to(field: QuadraticField, X: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The squarefree ideals of norm < X, as (norm, key, class index), sorted.

    An ideal's key is the indices of its primes in primes_up_to(field, X),
    ascending.  For ideals of one norm the keys compare as the
    factorizations' (p, conjugate_index) tuples do.  Where two such ideals
    first differ, in P and Q with NP < NQ, p(P) > p(Q) would make Q inert
    and NP = p(P); as p(P) divides the norm of the second ideal, a later
    prime of it would lie above p(P), of norm p(P) < NQ, out of order.  The
    primes of norm below any bound are a prefix of that list, so the
    entries of norm below it are the walk at that bound, keys included."""
    return sorted(_walk(field, primes_up_to(field, X), X, 0))


def count_sf(field: QuadraticField, X: int, q: IdealK, d: IdealK) -> list[int]:
    """Exact counts of squarefree ideals a, norm < X, gcd(a, q) = d, one per
    class index.

    Such an a is d*b with b squarefree and prime to q, so only b is walked,
    over the primes prime to q, and no ideal is built: N(d)*N(b) < X iff
    N(b) < B = ceil(X / N(d)).  The walk starts at the class of d.
    """
    _validate_qd(q, d)
    counts = [0] * field.class_number
    if d.norm >= X:  # not even b = (1) fits
        return counts
    B = -(-X // d.norm)
    qprimes = {P for P, _ in q.factorization}
    primes = [P for P in primes_up_to(field, B) if P not in qprimes]
    for _, _, cls in _walk(field, primes, B, field.class_of_ideal(d)):
        counts[cls] += 1
    return counts


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


def mainterm_sf(field: QuadraticField, X: int, q: IdealK, d: IdealK) -> float:
    """Main term (1/h) (res zeta_K / zeta_K(2)) phi(q, d) X of each class's count_sf."""
    _validate_qd(q, d)
    return (
        (1.0 / field.class_number)
        * (zeta_residue(field) / zeta_at_2(field))
        * float(phi_qd(field, q, d))
        * X
    )

