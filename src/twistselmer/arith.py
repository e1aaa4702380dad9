"""Exact arithmetic over Q and its completions.

Prime sieves, Kronecker symbols, squarefree decomposition, square classes
of R and Q_p, and local solvability of the binary quartic torsors that
drive two-isogeny descent.  Everything is plain integer arithmetic; all
functions are pure and safe to share across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

__all__ = [
    "REAL_PLACE",
    "PrimeTable",
    "SquareClassLocal",
    "sieve_primes",
    "kronecker",
    "sqrt_mod_prime",
    "squarefree_part",
    "is_perfect_square",
    "factorize",
    "sieve_squarefree",
    "squarefree_flags",
    "squarefree_factors",
    "SIEVE_BLOCK",
    "least_nonresidue",
    "local_square_classes",
    "torsor_locally_solvable",
]


@dataclass(frozen=True, slots=True)
class PrimeTable:
    """All rational primes strictly below `bound`, ascending."""

    bound: int
    primes: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SquareClassLocal:
    """A square class of R or Q_p, tagged by a squarefree integer representative."""

    place: object  # finite prime (int) or REAL_PLACE
    representative: int


@lru_cache(maxsize=8)
def sieve_primes(bound: int) -> PrimeTable:
    """Sieve of Eratosthenes; primes < bound."""
    if bound < 2:
        raise ValueError("sieve_primes: bound must be >= 2")
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, bound, i)))
    return PrimeTable(bound, tuple(i for i in range(bound) if flags[i]))


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
        for p in sieve_primes(math.isqrt(hi - 1) + 1).primes:
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
    primes = sieve_primes(math.isqrt(hi - 1) + 1).primes if hi > lo else ()
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


def sieve_squarefree(X: int) -> list[int]:
    """All squarefree d with 0 < |d| < X, ordered by (|d|, sign) with +d first."""
    if X < 2:
        raise ValueError("sieve_squarefree: X must be >= 2")
    out = []
    for d in compress(range(1, X), squarefree_flags(1, X)):
        out.append(d)
        out.append(-d)
    return out


def least_nonresidue(p: int) -> int:
    """Smallest quadratic nonresidue modulo an odd prime p."""
    u = 2
    while kronecker(u, p) != -1:
        u += 1
    return u


def local_square_classes(place) -> list[SquareClassLocal]:
    """Representatives of K_v^x/(K_v^x)^2 for v = place."""
    if place == REAL_PLACE:
        reps = [1, -1]
    elif place == 2:
        reps = [1, -1, 2, -2, 5, -5, 10, -10]
    else:
        p = int(place)
        u = least_nonresidue(p)
        reps = [1, u, p, u * p]
    return [SquareClassLocal(place, r) for r in reps]


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


def torsor_locally_solvable(a: int, b: int, delta, place) -> bool:
    """Whether the descent torsor for the class of delta has a point over K_place."""
    if isinstance(delta, SquareClassLocal):
        delta = delta.representative
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
        return _solvable_z2(q, disc) or _solvable_z2(qrev, disc)
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


def _poly_deriv(c):
    return [i * c[i] for i in range(1, len(c))]


def _taylor_shift_scale(c, r, p):
    """Coefficients of q(r + p*t) from those of q(t)."""
    c = list(c)
    n = len(c)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            c[j] += r * c[j + 1]
    return [c[j] * p**j for j in range(n)]


def _solvable_z2(q, disc) -> bool:
    """Whether q takes a square value (or 0) on Z_2.

    Adaptive refinement of residue classes t = t0 mod 2^j.  A class is
    decided once val_2(q(t0)) + 3 <= j (the square class of q is then
    constant on it) or once Newton's bound val(q) > 2*val(q') certifies a
    2-adic root.  The Bezout identity for Res(q, q') bounds the depth.
    """
    dq = _poly_deriv(q)
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
    """Whether a monic f in F_p[x] of degree <= 4 is the square of a polynomial."""
    h = _even_half(f)
    if h is None:
        return all(mult % 2 == 0 for _, mult in _sqfree_multiplicities(f, p))
    return _even_is_square(h, p)


def _even_is_square(h, p):
    """Whether h(z^2) is a square in F_p[z], for a monic h of degree 1 or 2.

    A monic square root of an even polynomial is even or odd, so h(z^2) is
    (z^2 + v)^2 or z^2: h = (w + v)^2, that is disc(h) = 0, or h = w.
    """
    if len(h) == 2:
        return h[0] == 0
    return (h[1] * h[1] - 4 * h[0]) % p == 0


def _sqfree_multiplicities(f, p):
    """[(deg of g_i, i)] for the squarefree decomposition f = prod g_i^i (f monic)."""
    out = []
    a = _pgcd(f, _pderiv(f, p), p)
    b = _pdiv(f, a, p)
    c = _pdiv(_pderiv(f, p), a, p)
    i = 1
    while _pdeg(b) > 0:
        d = _psub(c, _pderiv(b, p), p)
        g = _pgcd(b, d, p)
        if _pdeg(g) > 0:
            out.append((_pdeg(g), i))
        b, c = _pdiv(b, g, p), _pdiv(d, g, p)
        i += 1
    return out


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
    the roots of h; any other f by the gcd route.  The torsor solver makes
    no other f: q is even, and after a Taylor shift at r != 0 mod p at most
    two roots of q (one of each pair +-root) lie near r, so the reduction
    has degree <= 2.
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
        return _roots_by_gcd(f, p)
    roots = set()
    for s in _monic_roots(h, p):
        r = sqrt_mod_prime(s, p)
        if r is not None:
            roots.update((r, -r % p))
    return sorted(roots)


def _roots_by_gcd(f, p):
    """Roots of a monic f from gcd(x^p - x, f), split by Cantor-Zassenhaus."""
    g = _pgcd(_psub(_ppow_x(p, f, p), [0, 1], p), f, p)
    return sorted(_split_linears(g, p))


def _split_linears(g, p):
    """Roots of a monic product of distinct linear factors over F_p."""
    d = _pdeg(g)
    if d <= 0:
        return []
    if d == 1:
        return [(-g[0]) % p]
    s = 0
    while True:
        # gcd with (x+s)^((p-1)/2) - 1 separates roots by the character of r+s
        base = [s % p, 1]
        h = _ppow(base, (p - 1) // 2, g, p)
        h = _psub(h, [1], p)
        h = _pgcd(h, g, p)
        if 0 < _pdeg(h) < d:
            return _split_linears(h, p) + _split_linears(_pdiv(g, h, p), p)
        s += 1


# dense F_p[x] helpers, ascending coefficients, always trimmed


def _ptrim(f):
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _pdeg(f):
    return len(f) - 1 if f != [0] else -1


def _pmonic(f, p):
    f = _ptrim([c % p for c in f])
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _pderiv(f, p):
    return _ptrim([i * f[i] % p for i in range(1, len(f))]) or [0]


def _psub(f, g, p):
    n = max(len(f), len(g))
    return _ptrim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)])


def _pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _prem(f, g, p):
    f = [c % p for c in f]
    dg = _pdeg(g)
    inv = pow(g[-1], p - 2, p)
    while _pdeg(f) >= dg and any(f):
        df = _pdeg(f)
        coef = f[df] * inv % p
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - coef * g[i]) % p
        f = _ptrim(f)
        if f == [0]:
            break
    return _ptrim(f)


def _pdiv(f, g, p):
    f = [c % p for c in f]
    dg = _pdeg(g)
    inv = pow(g[-1], p - 2, p)
    out = [0] * max(1, _pdeg(f) - dg + 1)
    while _pdeg(f) >= dg and any(f):
        df = _pdeg(f)
        coef = f[df] * inv % p
        out[df - dg] = coef
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - coef * g[i]) % p
        f = _ptrim(f)
    return _ptrim(out)


def _pgcd(f, g, p):
    f = _ptrim([c % p for c in f])
    g = _ptrim([c % p for c in g])
    while g != [0]:
        f, g = g, _prem(f, g, p)
    return _pmonic(f, p) if f != [0] else [0]


def _ppow(base, e, mod, p):
    result = [1]
    base = _prem(base, mod, p)
    while e:
        if e & 1:
            result = _prem(_pmul(result, base, p), mod, p)
        base = _prem(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _ppow_x(e, mod, p):
    return _ppow([0, 1], e, mod, p)
