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
# bound: a polynomial of degree <= 4 that is not a constant times a square
# has character sum at most 3*sqrt(p), so it takes each unit class once
# p - 4 > 3*sqrt(p), that is, from p = 17 on.
_SMALL_PRIME_SCAN = 13

# factorize trial-divides up to this bound, then asks is_prime of the cofactor
_TRIAL_DIVISION_BOUND = 10**6

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
    """Factorization of |n| (n != 0) as ((p, e), ...) ascending.

    Trial division by the integers up to _TRIAL_DIVISION_BOUND: a cofactor
    left over is a prime if is_prime says so, and otherwise a ValueError.
    Every |n| < _TRIAL_DIVISION_BOUND^2 factors by trial division alone.
    """
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
    while f * f <= n and f <= _TRIAL_DIVISION_BOUND:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if f * f <= n and not is_prime(n):
        raise ValueError(f"factorize: {n} has no prime factor up to {_TRIAL_DIVISION_BOUND} and is not prime")
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
# At odd p, q(z) = Q(z^2) for the quadratic Q(y) = C + B y + A y^2, so the
# solver asks whether Q takes a square value on the squares of Z_p.
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
    return _solve_quadratic(C, B, A, p, 0, 1, cap, True) or _solve_quadratic(A, B, C, p, 0, 1, cap, True)


def _val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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

    The 2-adic counterpart of _solve_quadratic.  The 2-content of q goes
    into the multiplier, then each class t0 + 2*Z_2 (t0 in {0, 1}) is read
    from s(t) = q(t0 + 2t).  If v(s_i) >= v(s_0) + 3 for every i >= 1, s is
    s_0 times a unit = 1 mod 8 on all of Z_2, so every value on the class
    has the square class of s_0.  Newton's bound v(q(t0)) > 2*v(q'(t0)), with
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


def _solve_quadratic(c0, c1, c2, p, c_parity, c_kron, depth, squares) -> bool:
    """Whether c*Q(y) takes a square value (or 0) for Q(y) = c0 + c1 y + c2 y^2,
    p odd, over all y in Z_p, or over the squares y = z^2 of Z_p if squares.

    c is a squarefree multiplier tracked as (valuation parity, Kronecker
    symbol of its unit part).  Each level takes the p-content and reads
    Q mod p as lead * h, h monic of degree 1 or 2.  Certificates only: a
    unit value that is a QR lifts by Hensel, so does a simple root of h
    (on the squares, one that is a nonzero square: z^2 = s then has two
    simple roots), and for p beyond scanning range the Weil bound forces a
    QR value whenever h, or h(z^2) on the squares, is not a square.

    On the squares the root 0 is the class z in p*Z_p, y = p^2 * z'^2.  A
    double root s != 0 is the class z in +-r + p*Z_p, r^2 = s mod p: for a
    unit r, z -> z^2 maps r + p^k*Z_p onto r^2 + p^k*Z_p, so the shift
    Q(s + p*t) runs over all t in Z_p, and the y-tree is the z-tree of the
    even quartic Q(z^2) level for level, under the same depth cap.
    """
    if depth < 0:
        raise ArithmeticError("p-adic torsor recursion exceeded certified depth")
    g = math.gcd(c0, c1, c2)
    if g % p == 0:
        e = _val(g, p)
        pe = p**e
        c0, c1, c2 = c0 // pe, c1 // pe, c2 // pe
        c_parity ^= e & 1
    r0, r1, r2 = c0 % p, c1 % p, c2 % p
    if not (r1 or r2):  # a unit constant mod p
        return c_parity == 0 and (pow(r0, p >> 1, p) == 1) == (c_kron == 1)
    lead = r2 or r1
    inv = pow(lead, -1, p)
    h = [r0 * inv % p, r1 * inv % p, 1] if r2 else [r0 * inv % p, 1]
    # h is a square iff disc(h) = 0; on the squares h(z^2) also when h = y
    square = (h[1] * h[1] - 4 * h[0]) % p == 0 if r2 else squares and h[0] == 0
    if c_parity == 0:
        if p <= _SMALL_PRIME_SCAN:
            ys = {t * t % p for t in range(p)} if squares else range(p)
            if any(c_kron * kronecker(r0 + (r1 + r2 * y) * y, p) == 1 for y in ys):
                return True
        # the Weil bound, with c*lead's symbol by Euler's criterion
        elif (pow(lead, p >> 1, p) == 1) == (c_kron == 1) or not square:
            return True
    for s in _monic_roots(h, p):
        if squares and s == 0:
            found = _solve_quadratic(c0, c1 * p * p, c2 * p**4, p, c_parity, c_kron, depth - 1, True)
        elif squares and pow(s, p >> 1, p) != 1:
            continue  # no z has z^2 = s mod p
        elif not (r2 and square):
            return True  # simple root mod p: Hensel root of Q in Z_p, value 0
        else:
            found = _solve_quadratic(
                c0 + (c1 + c2 * s) * s, (c1 + 2 * c2 * s) * p, c2 * p * p, p, c_parity, c_kron, depth - 1, False
            )
        if found:
            return True
    return False


def _monic_roots(f, p):
    """The distinct roots in F_p of a monic f of degree 1 or 2, ascending,
    by formula, at every odd p: the solver's h, which has no other degree.
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

