"""Exact arithmetic over Q and its completions.

Prime sieves, Kronecker symbols, squarefree decomposition, square classes
of R and Q_p, and local solvability of the binary quartic torsors that
drive two-isogeny descent.  Everything is plain integer arithmetic; all
functions are pure and safe to share across worker processes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

REAL_PLACE = "oo"

# Odd primes p <= _SMALL_PRIME_SCAN are decided by a scan of all p residues,
# larger ones by the Weil bound (sound from p = 17) and roots in F_p[x].  Per
# torsor call on twists of random curves (Python 3.11, 2-core VM) the scan
# took 32 us against 28 us for the polynomial route at p = 17, 52 against
# 30 us at p = 31, and 250-310 against 17-18 us at p = 307-397; the scan,
# which needs no bound, keeps the primes up to 29, near that crossover.
_SMALL_PRIME_SCAN = 29

# squarefree_factors keeps one list (about 100 bytes) per integer of a block
SIEVE_BLOCK = 1 << 15

# zeta_K(2) reads the primes below its cutoff from prime_flags segments of
# this many integers, 512 KB of flags each
PRIME_SEGMENT = 1 << 19

__all__ = [
    "REAL_PLACE",
    "prime_flags",
    "PRIME_SEGMENT",
    "sieve_primes",
    "kronecker",
    "sqrt_mod_prime",
    "squarefree_part",
    "is_perfect_square",
    "factorize",
    "squarefree_flags",
    "squarefree_factors",
    "SIEVE_BLOCK",
    "least_nonresidue",
    "local_square_classes",
    "torsor_locally_solvable",
]


def prime_flags(lo: int, hi: int) -> bytearray:
    """flags[i] = 1 iff lo + i is prime, for 0 <= lo <= lo + i < hi.

    Segmented sieve of Eratosthenes over [lo, hi) by the primes
    p <= isqrt(hi - 1).  From lo = 0 it reads them off its own flags, each
    final by the time the loop reaches it; otherwise off the sieve of
    [0, isqrt(hi - 1)].
    """
    if lo < 0 or hi < lo:
        raise ValueError("prime_flags: need 0 <= lo <= hi")
    width = hi - lo
    flags = bytearray([1]) * width
    units = min(width, max(0, 2 - lo))  # 0 and 1 are not prime
    flags[:units] = bytes(units)
    root = math.isqrt(hi - 1) if width else 0
    small = flags if lo == 0 else prime_flags(0, root + 1)
    for p in range(2, root + 1):
        if small[p]:
            start = p * p - lo
            if start < 0:  # the first multiple of p from lo on
                start %= p
            flags[start::p] = bytearray(len(range(start, width, p)))
    return flags


@lru_cache(maxsize=8)
def sieve_primes(bound: int) -> tuple[int, ...]:
    """The primes < bound, ascending."""
    if bound < 2:
        raise ValueError("sieve_primes: bound must be >= 2")
    return tuple(compress(range(bound), prime_flags(0, bound)))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), with the classical extension to n < 0 and even n."""
    if n == 0:
        raise ValueError("kronecker: n must be nonzero")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root of a mod an odd prime p; None if a is a nonresidue."""
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization of |n| (n != 0) as ((p, e), ...) ascending."""
    if n == 0:
        raise ValueError("factorize: 0 has no factorization")
    n = abs(n)
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def squarefree_part(d: int) -> int:
    """Signed squarefree part s of d: d/s is a positive perfect square."""
    if d == 0:
        raise ValueError("squarefree_part: d must be nonzero")
    s = -1 if d < 0 else 1
    for p, e in factorize(d):
        if e % 2:
            s *= p
    return s


def squarefree_flags(lo: int, hi: int) -> bytearray:
    """flags[i] = 1 iff lo + i is squarefree, for 1 <= lo <= lo + i < hi.

    Segmented sieve of Eratosthenes over [lo, hi) by the squares of the
    primes p <= isqrt(hi - 1).
    """
    if lo < 1 or hi < lo:
        raise ValueError("squarefree_flags: need 1 <= lo <= hi")
    width = hi - lo
    flags = bytearray([1]) * width
    if width:
        for p in sieve_primes(math.isqrt(hi - 1) + 1):
            pp = p * p
            start = -lo % pp
            flags[start::pp] = bytes(len(range(start, width, pp)))
    return flags


def squarefree_factors(lo: int, hi: int):
    """Yield (d, primes of d ascending) for every squarefree d, lo <= d < hi.

    Sieves [lo, hi) in blocks of SIEVE_BLOCK integers: each prime
    p <= isqrt(hi - 1) is recorded at its multiples, and the cofactor left
    after dividing them out is 1 or a single prime.
    """
    primes = sieve_primes(math.isqrt(hi - 1) + 1) if hi > lo else ()
    for start in range(lo, hi, SIEVE_BLOCK):
        end = min(start + SIEVE_BLOCK, hi)
        small: list[list[int]] = [[] for _ in range(end - start)]
        for p in primes:
            for ps in small[-start % p :: p]:
                ps.append(p)
        for d, ps in compress(zip(range(start, end), small), squarefree_flags(start, end)):
            rest = d // math.prod(ps)
            if rest > 1:
                ps.append(rest)
            yield d, tuple(ps)


def least_nonresidue(p: int) -> int:
    """Smallest quadratic nonresidue modulo an odd prime p."""
    u = 2
    while kronecker(u, p) != -1:
        u += 1
    return u


def local_square_classes(place) -> list[int]:
    """Squarefree integer representatives of K_v^x/(K_v^x)^2 for v = place."""
    if place == REAL_PLACE:
        return [1, -1]
    if place == 2:
        return [1, -1, 2, -2, 5, -5, 10, -10]
    p = int(place)
    u = least_nonresidue(p)
    return [1, u, p, u * p]


# ----------------------------------------------------------------------
# Local solvability of the quartic torsor
#
#   C_delta:  delta*w^2 = delta^2 - 2*a*delta*z^2 + (a^2-4b)*z^4
#
# over R and Q_p.  Multiplying through by delta turns it into W^2 = q(z)
# with q(z) = A z^4 + B z^2 + C, A = delta*(a^2-4b), B = -2a*delta^2,
# C = delta^3.  A point of the smooth model exists iff q takes a square
# value (0 allowed) at some z in P^1(Q_v); z outside Z_p is covered by the
# reversed polynomial, whose value at 0 is the leading-coefficient test.
# ----------------------------------------------------------------------


def torsor_locally_solvable(a: int, b: int, delta: int, place) -> bool:
    """Whether the descent torsor for the class of delta has a point over K_place."""
    if b * (a * a - 4 * b) == 0:
        raise ValueError("torsor_locally_solvable: singular curve (b*(a^2-4b) = 0)")
    if delta == 0:
        raise ValueError("torsor_locally_solvable: delta must be a nonzero class")
    if place == REAL_PLACE:
        if delta > 0:
            return True
        return a * a - 4 * b < 0 or (a < 0 and b > 0)
    p = int(place)
    A = delta * (a * a - 4 * b)
    B = -2 * a * delta * delta
    C = delta**3
    q = [C, 0, B, 0, A]
    qrev = [A, 0, B, 0, C]
    # disc of A z^4 + B z^2 + C, nonzero for nonsingular (a, b); reversal preserves it
    disc = 4096 * delta**12 * b * b * (a * a - 4 * b)
    if p == 2:
        return any(_solve_z2(f, 0, 3 * (_v2(disc) + _v2(f[-1])) + 8) for f in (q, qrev))
    cap = _val(disc, p) + 36
    return _solve_odd(q, p, 0, 1, cap) or _solve_odd(qrev, p, 0, 1, cap)


def _val(n: int, p: int) -> int:
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


def _taylor_shift_scale(c, r, p):
    """Coefficients of q(r + p*t) from those of q(t)."""
    c = list(c)
    n = len(c)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            c[j] += r * c[j + 1]
    return [c[j] * p**j for j in range(n)]


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _solve_z2(q, c_parity, depth) -> bool:
    """Whether 2^c_parity * q(t) takes a square value (or 0) on Z_2.

    The 2-adic counterpart of _solve_odd.  The 2-content of q goes into the
    multiplier, then each class t0 + 2*Z_2 (t0 in {0, 1}) is read from
    s(t) = q(t0 + 2t).  If v(s_i) >= v(s_0) + 3 for every i >= 1, s is s_0
    times a unit = 1 mod 8 on all of Z_2, so every value on the class has
    the square class of s_0.  Newton's bound v(q(t0)) > 2*v(q'(t0)), with
    q'(t0) = s_1/2, certifies a root of q in Z_2.  Otherwise s is refined.

    Depth: with r = v(Res(q, q')) = v(disc) + v(lead) for the torsor's q,
    Res = U*q + V*q' gives min(v(q(z)), v(q'(z))) <= r on Z_2.  A class
    z0 + 2^n*Z_2 is decided once n >= v(q(z0)) + 3.  Past n = 2r + 2 an
    undecided class lies near a root z* with v(q'(z*)) = k <= r.  If it
    holds z*, Newton's bound fires.  If the class at n = 2r + 3 does not,
    v(z0 - z*) = m <= 2r + 2 and v(q) = k + m on all of it, so each class
    below it is decided by n = k + m + 3 <= 3r + 5, that is, at depth
    3r + 4.  torsor_locally_solvable allows 3r + 8.
    """
    if depth < 0:
        raise ArithmeticError("2-adic torsor recursion exceeded certified depth")
    e = min(_v2(coef) for coef in q if coef)
    if e:
        q = [coef >> e for coef in q]
        c_parity ^= e & 1
    for t0 in (0, 1):
        s = _taylor_shift_scale(q, t0, 2)
        if s[0] == 0:
            return True
        m = _v2(s[0])
        if all(_v2(coef) >= m + 3 for coef in s[1:] if coef):
            # 2^c_parity * s_0 = 2^(c_parity + m) * u: a square iff the power is even and u = 1 mod 8
            if (c_parity + m) % 2 == 0 and (s[0] >> m) % 8 == 1:
                return True
            continue
        if s[1] and m > 2 * (_v2(s[1]) - 1):
            return True  # Newton's bound: a root of q in Z_2, value 0
        if _solve_z2(s, c_parity, depth - 1):
            return True
    return False


def _solve_odd(q, p, c_parity, c_kron, depth) -> bool:
    """Whether c*q(t) takes a square value (or 0) on Z_p, p odd.

    c is a squarefree multiplier tracked as (valuation parity, Kronecker
    symbol of its unit part).  Certificates only: a unit value that is a
    QR lifts by Hensel, a simple root of the reduction is a Z_p-root of q,
    and for p beyond scanning range the Weil bound forces a QR value
    whenever the reduction is not a constant times a square.
    """
    if depth < 0:
        raise ArithmeticError("p-adic torsor recursion exceeded certified depth")
    e = min(_val(coef, p) for coef in q if coef)
    if e:
        pe = p**e
        q = [coef // pe for coef in q]
        c_parity ^= e & 1
    qbar = [coef % p for coef in q]
    deg = len(qbar) - 1
    while deg and qbar[deg] == 0:
        deg -= 1
    if deg == 0:
        return c_parity == 0 and c_kron * kronecker(qbar[0], p) == 1
    roots = None
    if c_parity == 0:
        found, roots = _unit_square_value(qbar, deg, c_kron, p)
        if found:
            return True
    if roots is None:
        roots = _roots_mod_p(qbar, deg, p)
    dqbar = [(i * qbar[i]) % p for i in range(1, deg + 1)]
    for r in roots:
        if _poly_eval(dqbar, r) % p != 0:
            return True  # simple root mod p: Hensel root of q in Z_p, value 0
        if _solve_odd(_taylor_shift_scale(q, r, p), p, c_parity, c_kron, depth - 1):
            return True
    return False


def _unit_square_value(qbar, deg, c_kron, p):
    """(exists, roots): exists <=> some unit value of qbar has c*value a QR mod p.

    roots is the root list when the scan had to collect it, else None.
    """
    if p <= _SMALL_PRIME_SCAN:
        return _unit_square_scan(qbar, c_kron, p)
    # Weil bound: for p > 16 a quartic that is not a constant times a square
    # takes both classes of unit values; a constant times a square takes the
    # class of its leading coefficient off its (< p) roots
    if not _monic_is_square(_pmonic(qbar[: deg + 1], p), p):
        return True, None
    return c_kron * kronecker(qbar[deg], p) == 1, None


def _unit_square_scan(qbar, c_kron, p):
    """_unit_square_value by evaluating qbar at every residue."""
    roots = []
    for t in range(p):
        v = _poly_eval(qbar, t) % p
        if v == 0:
            roots.append(t)
        elif c_kron * kronecker(v, p) == 1:
            return True, None
    return False, roots


def _even_half(f):
    """h with f(z) = h(z^2) if only even powers of z occur in f, else None."""
    return None if any(f[1::2]) else f[::2]


def _monic_is_square(f, p):
    """Whether a monic f in F_p[x] is the square of a polynomial.

    The torsor solver makes only polynomials of degree <= 2 and even
    quartics (see _monic_roots).  A quadratic is a square iff its
    discriminant vanishes.  A monic square root of an even quartic h(z^2)
    is even, z^2 + v, so the quartic is a square iff disc(h) = 0.
    """
    deg = len(f) - 1
    if deg == 1:
        return False
    if deg == 2:
        return (f[1] * f[1] - 4 * f[0]) % p == 0
    if deg == 4 and _even_half(f) is not None:
        return (f[2] * f[2] - 4 * f[0]) % p == 0
    raise ArithmeticError(f"square test of a degree-{deg} polynomial that is not even")


def _roots_mod_p(qbar, deg, p):
    """The distinct roots in F_p of qbar (degree deg >= 1), ascending."""
    if p <= _SMALL_PRIME_SCAN:
        return _roots_by_scan(qbar, p)
    return _monic_roots(_pmonic(qbar[: deg + 1], p), p)


def _roots_by_scan(qbar, p):
    return [t for t in range(p) if _poly_eval(qbar, t) % p == 0]


def _monic_roots(f, p):
    """The distinct roots in F_p of a monic f, ascending, p odd.

    Degree 1 and 2 by formula; an even f = h(z^2) from the square roots of
    the roots of h.  The torsor solver makes no other f: q is even, and
    after a Taylor shift at r != 0 mod p at most two roots of q (one of each
    pair +-root) lie near r, so the reduction has degree <= 2.
    """
    deg = len(f) - 1
    if deg == 1:
        return [-f[0] % p]
    if deg == 2:
        r = sqrt_mod_prime(f[1] * f[1] - 4 * f[0], p)
        if r is None:
            return []
        half = (p + 1) // 2
        return sorted({(r - f[1]) * half % p, (-r - f[1]) * half % p})
    h = _even_half(f)
    if h is None:
        raise ArithmeticError(f"roots of a degree-{deg} polynomial that is not even")
    roots = set()
    for s in _monic_roots(h, p):
        r = sqrt_mod_prime(s, p)
        if r is not None:
            roots.update((r, -r % p))
    return sorted(roots)


def _pmonic(f, p):
    """f mod p, without leading zeros, divided by its leading coefficient."""
    f = [c % p for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]
