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

# At an odd p <= _SMALL_PRIME_SCAN a scan of all p residues decides whether
# the reduction takes a unit value of the wanted class, beyond it the Weil
# bound (sound from p = 17).  Per torsor call on the four delta classes of
# twists d = k*p of random curves good at p (Python 3.11, 2-core VM) the
# scan took 8-15 us against 4-8 us for the polynomial route at p = 17, 12
# against 4-5 us at p = 31, and 164-178 against 9 us at p = 307-397.  The
# scan, which needs no bound, keeps the primes up to 29, about 1% of an
# audit's odd-p calls.
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
    "is_prime",
    "squarefree_flags",
    "squarefree_factors",
    "SIEVE_BLOCK",
    "least_nonresidue",
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
    if pow(a, (p - 1) // 2, p) != 1:  # Euler's criterion
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    c = pow(least_nonresidue(p), q, p)
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


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases up to 41: exact below 3.3 * 10^24,
    the least strong pseudoprime to all of them (Sorenson and Webster, 2015),
    and a ValueError from there on."""
    if n >= 3317044064679887385961981:
        raise ValueError(f"{n} is past the proven range of the primality test (< 3.3 * 10^24)")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # n is a strong probable prime to a iff a^d = 1 or a^(d * 2^r) = -1 for some r < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in bases)


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


@lru_cache(maxsize=2048)  # more than the 1,228 odd primes below 1e4 that an audit at X = 1e4 can meet
def least_nonresidue(p: int) -> int:
    """Smallest quadratic nonresidue modulo an odd prime p."""
    u = 2
    while kronecker(u, p) != -1:
        u += 1
    return u


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
    m = a * a - 4 * b
    if b * m == 0:
        raise ValueError("torsor_locally_solvable: singular curve (b*(a^2-4b) = 0)")
    if delta == 0:
        raise ValueError("torsor_locally_solvable: delta must be a nonzero class")
    if place == REAL_PLACE:
        if delta > 0:
            return True
        return m < 0 or (a < 0 and b > 0)
    p = int(place)
    A = delta * m
    B = -2 * a * delta * delta
    C = delta**3
    # disc of A z^4 + B z^2 + C is 4096 delta^12 b^2 m, with m = a^2 - 4b, nonzero for
    # nonsingular (a, b); reversal preserves it
    if p == 2:
        disc = 4096 * delta**12 * b * b * m
        return any(_solve_z2(f, 0, 3 * (_v2(disc) + _v2(f[-1])) + 8) for f in ([C, 0, B, 0, A], [A, 0, B, 0, C]))
    cap = 12 * _val(delta, p) + _val(b * b * m, p) + 36  # v_p(disc) + 36
    return _solve_even(C, B, A, p, 0, 1, cap) or _solve_even(A, B, C, p, 0, 1, cap)


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
    if r:  # at r = 0 only the scaling is left
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


def _solve_even(c0, c2, c4, p, c_parity, c_kron, depth) -> bool:
    """Whether c*q(z) takes a square value (or 0) on Z_p, p odd, for the even
    q(z) = c0 + c2 z^2 + c4 z^4: the certificates and depth of _solve_odd,
    read through the monic h with q = lead * h(z^2) mod p.

    The root 0 is never simple, and q(p*t) is even again.  A nonzero root r
    is simple iff h'(r^2) != 0 mod p; only a shift at a nonzero double root,
    whose reductions have degree <= 2 (see _monic_roots), goes to _solve_odd.
    """
    if depth < 0:
        raise ArithmeticError("p-adic torsor recursion exceeded certified depth")
    g = math.gcd(c0, c2, c4)
    if g % p == 0:
        e = _val(g, p)
        pe = p**e
        c0, c2, c4 = c0 // pe, c2 // pe, c4 // pe
        c_parity ^= e & 1
    r0, r2, r4 = c0 % p, c2 % p, c4 % p
    if not (r2 or r4):  # a unit constant mod p
        return c_parity == 0 and (pow(r0, p >> 1, p) == 1) == (c_kron == 1)
    lead = r4 or r2
    inv = pow(lead, -1, p)
    h = [r0 * inv % p, r2 * inv % p, 1] if r4 else [r0 * inv % p, 1]
    if c_parity == 0:
        if p <= _SMALL_PRIME_SCAN:
            if _unit_square_scan([r0, 0, r2, 0, r4], c_kron, p):
                return True
        # the Weil bound (see _solve_odd), with c*lead's symbol by Euler's criterion
        elif (pow(lead, p >> 1, p) == 1) == (c_kron == 1) or not _even_is_square(h, p):
            return True
    for r in _even_roots(h, p):
        if r == 0:
            found = _solve_even(c0, c2 * p * p, c4 * p**4, p, c_parity, c_kron, depth - 1)
        elif not r4 or (2 * r * r + h[1]) % p:
            return True  # simple root mod p: Hensel root of q in Z_p, value 0
        else:
            found = _solve_odd(_taylor_shift_scale([c0, 0, c2, 0, c4], r, p), p, c_parity, c_kron, depth - 1)
        if found:
            return True
    return False


def _even_is_square(h, p) -> bool:
    """Whether h(z^2) is a square in F_p[z], for a monic h of degree 1 or 2.
    A monic square root of h(z^2) is even, z^2 + v, or z when h = y, so
    h(z^2) is a square iff h = y or disc(h) = 0."""
    return (h[0] if len(h) == 2 else h[1] * h[1] - 4 * h[0]) % p == 0


def _even_roots(h, p):
    """The distinct roots in F_p of h(z^2), ascending, for a monic h of
    degree 1 or 2: the square roots of the roots of h."""
    roots = set()
    for s in _monic_roots(h, p):
        r = sqrt_mod_prime(s, p)
        if r is not None:
            roots.update((r, -r % p))
    return sorted(roots)


def _solve_odd(q, p, c_parity, c_kron, depth) -> bool:
    """Whether c*q(t) takes a square value (or 0) on Z_p, p odd, for the
    shift of an even quartic at a nonzero double root (see _solve_even).

    c is a squarefree multiplier tracked as (valuation parity, Kronecker
    symbol of its unit part).  Certificates only: a unit value that is a
    QR lifts by Hensel, a simple root of the reduction is a Z_p-root of q,
    and for p beyond scanning range the Weil bound forces a QR value
    whenever the reduction is not a constant times a square.  The
    reduction is read as lead * f with f monic, so c*q = (c*lead) * f mod p.
    """
    if depth < 0:
        raise ArithmeticError("p-adic torsor recursion exceeded certified depth")
    e = _val(math.gcd(*q), p)
    if e:
        pe = p**e
        q = [coef // pe for coef in q]
        c_parity ^= e & 1
    lead, f = _pmonic(q, p)
    if c_parity == 0:
        kron = c_kron * kronecker(lead, p)
        if len(f) == 1:
            return kron == 1
        if p <= _SMALL_PRIME_SCAN:
            if _unit_square_scan(f, kron, p):
                return True
        # Weil bound: for p > 16 a polynomial of degree <= 4 that is not a
        # constant times a square takes both classes of unit values; a monic
        # square takes square values off its (< p) roots
        elif kron == 1 or not _monic_is_square(f, p):
            return True
    elif len(f) == 1:
        return False
    roots = _monic_roots(f, p)
    df = [i * f[i] % p for i in range(1, len(f))] if roots else ()
    for r in roots:
        if _poly_eval(df, r) % p != 0:
            return True  # simple root mod p: Hensel root of q in Z_p, value 0
        if _solve_odd(_taylor_shift_scale(q, r, p), p, c_parity, c_kron, depth - 1):
            return True
    return False


def _unit_square_scan(qbar, c_kron, p) -> bool:
    """Whether c*qbar(t) is a nonzero QR mod p at some residue t."""
    return any(c_kron * kronecker(_poly_eval(qbar, t) % p, p) == 1 for t in range(p))


def _monic_is_square(f, p):
    """Whether a monic f in F_p[x] of degree 1 or 2 is the square of a
    polynomial: a quadratic is one iff its discriminant vanishes.  The
    solver makes no other f (see _monic_roots)."""
    deg = len(f) - 1
    if deg == 1:
        return False
    if deg == 2:
        return (f[1] * f[1] - 4 * f[0]) % p == 0
    raise ArithmeticError(f"square test of a degree-{deg} polynomial")


def _monic_roots(f, p):
    """The distinct roots in F_p of a monic f of degree 1 or 2, ascending,
    by formula, at every odd p.

    The torsor solver makes no other f: _even_roots reads the roots of an
    even quartic h(z^2) off those of h, and after a Taylor shift at
    r != 0 mod p at most two roots of q (one of each pair +-root) lie near
    r, so every reduction on _solve_odd's route has degree <= 2.
    """
    deg = len(f) - 1
    if deg == 1:
        return [-f[0] % p]
    if deg != 2:
        raise ArithmeticError(f"roots of a degree-{deg} polynomial")
    r = sqrt_mod_prime(f[1] * f[1] - 4 * f[0], p)
    if r is None:
        return []
    half = (p + 1) // 2
    return sorted({(r - f[1]) * half % p, (-r - f[1]) * half % p})


def _pmonic(f, p):
    """(lead, g): f mod p is lead * g, with g monic and lead its leading coefficient."""
    f = [c % p for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    lead = f[-1]
    inv = pow(lead, -1, p)
    return lead, [c * inv % p for c in f]
