"""Two-isogeny descent over Q for curves y^2 = x^3 + a*x^2 + b*x and their
quadratic twists.

For each squarefree twist d the module computes the local images of the
descent map at every relevant place (via the explicit quartic torsor at
the archimedean place, at 2 and at odd bad primes; via the two-torsion
structure of the twisted curves at odd good primes that ramify in the
twist), the phi- and dual-Selmer dimensions by F_2 linear algebra over
the supported square classes, and the 2-adic order of the Tamagawa ratio
by two independent routes whose agreement is asserted on every twist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

from .arith import (
    REAL_PLACE,
    SIEVE_BLOCK,
    factorize,
    is_perfect_square,
    kronecker,
    least_nonresidue,
    local_square_classes,
    sqrt_mod_prime,
    squarefree_factors,
    squarefree_part,
    torsor_locally_solvable,
)

__all__ = [
    "IsogenyPair",
    "SelmerDescentResult",
    "DescentConsistencyError",
    "make_pair",
    "local_dim_good_ramified",
    "local_image",
    "g_chi",
    "g_chi_of_twist",
    "g_of_primes",
    "descend",
    "selmer2_lower_bound",
    "scan_twists",
    "audit_curve",
]


class DescentConsistencyError(RuntimeError):
    """An exact descent identity failed; carries a dump of the local data.

    `check` names the identity: "product-formula" (Selmer ratio != local
    product), "ord2-decomposition" (local product != g + correction) or
    "local-image" (a local image fails its size, subgroup or duality check).
    `d` is the twist whose descent failed, when known.  `dims` maps each
    place (the places over 2*disc*oo, then the good primes of d) to
    dim H^1_phi there when an identity check failed, else None.
    """

    def __init__(self, message: str, check: str, d: int | None = None, dims: dict | None = None):
        super().__init__(message)
        self.check = check
        self.d = d
        self.dims = dims

    def __reduce__(self):
        # pool workers send the error back pickled; the default would drop check, d and dims
        return type(self), (str(self), self.check, self.d, self.dims)


@dataclass(frozen=True, slots=True)
class IsogenyPair:
    """E: y^2 = x^3 + a x^2 + b x together with its 2-isogenous partner
    E': y^2 = x^3 - 2a x^2 + (a^2-4b) x."""

    a: int
    b: int
    a_dual: int
    b_dual: int  # a^2-4b, also the square class of disc(E) = 16 b^2 (a^2-4b); b is that of disc(E')
    bad_primes: tuple[int, ...]
    eligible: bool


class SelmerDescentResult(NamedTuple):
    """The descent data of one twist: the row that `scan` writes to twists.csv."""

    d: int
    dim_selphi: int
    dim_selphihat: int
    ord2T_product: int
    ord2T_ratio: int
    g_chi: int
    correction: int


def make_pair(a: int, b: int) -> IsogenyPair:
    disc2 = a * a - 4 * b
    if b * disc2 == 0:
        raise ValueError(f"(a, b) = ({a}, {b}) gives a singular curve")
    bad = tuple(p for p, _ in factorize(2 * b * disc2))
    eligible = not is_perfect_square(disc2) and not is_perfect_square(b * disc2)
    return IsogenyPair(a, b, -2 * a, disc2, bad, eligible)


def local_dim_good_ramified(pair: IsogenyPair, p: int) -> int:
    """dim H^1_phi at an odd prime of good reduction that ramifies in the
    twist, from the Legendre symbols of the two discriminant classes."""
    if p == 2 or (2 * pair.b * pair.b_dual) % p == 0:
        raise ValueError(f"p = {p} divides 2*disc; the good-reduction table does not apply")
    return _good_dim(kronecker(pair.b_dual, p), kronecker(pair.b, p))


def _good_dim(s: int, sp: int) -> int:
    """dim H^1_phi at a good odd ramified prime p, from s = (disc(E) | p) and s' = (disc(E') | p)."""
    return 1 + (sp - s) // 2


def local_image(a: int, b: int, rep: int, place) -> tuple[int, tuple[int, ...]]:
    """(dim, masks): the local square classes at `place` whose quartic torsor
    for the twist of y^2 = x^3 + a x^2 + b x by `rep` is solvable, as their
    bit coordinates (see _local_bits), and log2 of their number.  This is the
    torsor route, independent of any symbol table."""
    at, bt = a * rep, b * rep * rep
    masks = tuple(
        _local_bits(delta, place) for delta in local_square_classes(place) if torsor_locally_solvable(at, bt, delta, place)
    )
    dim = len(masks).bit_length() - 1
    if 1 << dim != len(masks):
        raise DescentConsistencyError(
            f"local image at {place} (curve {(a, b)}, twist class {rep}) has size {len(masks)}, not a power of 2",
            "local-image",
        )
    return dim, masks


# ----------------------------------------------------------------------
# bit coordinates for Q_v^x / (Q_v^x)^2, as the bits of a Python int
#
#   real place: 1 bit  (sign)
#   odd p:      2 bits (valuation parity, nonresidue bit of the unit part)
#   p = 2:      3 bits (valuation parity, unit = 3 mod 4, unit in {3,5} mod 8)
#
# A functional on these coordinates is a bitmask f; its value at a class
# with bits x is (f & x).bit_count() & 1.
# ----------------------------------------------------------------------


def _local_bits(n: int, place) -> int:
    if place == REAL_PLACE:
        return int(n < 0)
    v = 0
    while n % place == 0:
        n //= place
        v += 1
    if place == 2:
        u = n % 8
        return (v & 1) | (u in (3, 7)) << 1 | (u in (3, 5)) << 2
    return (v & 1) | (kronecker(n, place) == -1) << 1


def _class_rep(bits: int, place) -> int:
    """The representative in local_square_classes(place) of the class with these bits."""
    if place == REAL_PLACE:
        return -1 if bits else 1
    unit = (1, -1, 5, -5)[bits >> 1] if place == 2 else least_nonresidue(place) ** (bits >> 1)
    return unit * place ** (bits & 1)


def _span_and_perp(vectors, nbits: int) -> tuple[int, tuple[int, ...]]:
    """Rank of the span of `vectors` and a basis of the functionals vanishing
    on it: one per coordinate that is not a pivot of the reduced echelon form."""
    rows: dict[int, int] = {}  # pivot -> row; a pivot bit is set in its own row only
    for v in vectors:
        for piv, r in rows.items():
            if v >> piv & 1:
                v ^= r
        if v:
            piv = v.bit_length() - 1
            for q in rows:
                if rows[q] >> piv & 1:
                    rows[q] ^= v
            rows[piv] = v
    funcs = tuple(
        (1 << j) | sum(1 << piv for piv, r in rows.items() if r >> j & 1)
        for j in range(nbits)
        if j not in rows
    )
    return len(rows), funcs


def _f2_rank(rows, keep: int = -1) -> int:
    """Rank over F_2 of the rows restricted to the columns in `keep`."""
    pivots: dict[int, int] = {}
    for r in rows:
        r &= keep
        while r:
            hb = r.bit_length()
            if hb in pivots:
                r ^= pivots[hb]
            else:
                pivots[hb] = r
                break
    return len(pivots)


class _Lazy(dict):
    """A dict that fills a missing key with fill(key)."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _CurveContext:
    """Per-curve Rédei-matrix data for the descent.

    The Selmer matrix of a twist d has the fixed columns -1 and the bad
    primes, then one column per good prime of d.  Its rows are the
    annihilator functionals of the local images.  At the places over
    2*disc*oo they depend only on the class of d there: `blocks`, keyed by
    the sign of d and its class bits at the bad primes, holds the dims
    there, the correction and each functional with its row over the fixed
    columns, so it has at most 2 * 8 * 4^k entries for k odd bad primes.  At
    a good prime of d the rows come from Legendre symbols, which +d and -d
    share.  The local bits of a good prime at a bad place depend only on its
    residue mod 8 (at 2) or mod q (at odd q), so they come from a table
    keyed by that residue, of size at most 8 + sum(q).
    """

    def __init__(self, pair: IsogenyPair):
        self.pair = pair
        self.bad_places = (REAL_PLACE, *pair.bad_primes)
        self.sides = ((pair.a, pair.b), (pair.a_dual, pair.b_dual))
        self.columns = (-1, *pair.bad_primes)
        self.column_of = {p: i for i, p in enumerate(self.columns)}
        self.residue_bits = {q: _Lazy(partial(_local_bits, place=q)) for q in pair.bad_primes}
        # the unit bits of the classes at the bad primes, numbered from 1; 0 is a bit no class has
        unit_bits = [(q, k) for q in pair.bad_primes for k in range(1, 3 if q == 2 else 2)]
        self.unit_bit = {qk: i for i, qk in enumerate(unit_bits, 1)}
        self.images = {v: _Lazy(partial(self._local_images, v)) for v in self.bad_places}
        self.blocks = _Lazy(self._bad_block)
        self._goodram_cache: dict = {}

    def _local_images(self, place, bits: int):
        """((dim, rows), (dim, rows)) for the two sides at a place over
        2*disc*oo, for the twist class with these bits, from local_image.
        Each row is a pair (functional, its row over the fixed columns)."""
        nbits = 1 if place == REAL_PLACE else 3 if place == 2 else 2
        rep = _class_rep(bits, place)
        fixed = [_local_bits(g, place) for g in self.columns]
        images = []
        for a, b in self.sides:
            dim, masks = local_image(a, b, rep, place)
            span, funcs = _span_and_perp(masks, nbits)
            if span != dim:
                raise DescentConsistencyError(f"local image at {place} is not a subgroup: {masks}", "local-image")
            rows = tuple((f, sum(((f & x).bit_count() & 1) << i for i, x in enumerate(fixed))) for f in funcs)
            images.append((dim, rows))
        # |H^1_phi| * |H^1_phihat| = |Q_v^x / squares| at every place
        if images[0][0] + images[1][0] != nbits:
            raise DescentConsistencyError(
                f"local duality fails at {place}, twist class {rep}: {images[0][0]} + {images[1][0]} != {nbits}",
                "local-image",
            )
        return tuple(images)

    def _bad_block(self, classes: tuple[int, ...]):
        """(dims, correction, rows) at the places over 2*disc*oo for a twist
        with these class bits there.  rows holds, for each side, every
        functional as (its row over the fixed columns, then the unit_bit of
        its bits 1 and 2, 0 where unset).  A good prime has valuation bit 0,
        so only the unit bits meet the good columns."""
        dims = {}
        rows: tuple[list, list] = ([], [])
        for v, bits in zip(self.bad_places, classes):
            images = self.images[v][bits]
            dims[v] = images[0][0]
            for side, (_, frows) in zip(rows, images):
                for f, fixed in frows:
                    u1, u2 = (self.unit_bit.get((v, k), 0) if f >> k & 1 else 0 for k in (1, 2))
                    side.append((fixed, u1, u2))
        return dims, sum(dims.values()) - len(dims), rows

    def goodram_syms(self, p: int):
        """(s, s', nonres bit of a+2*sqrt(b), nonres bit of -2a+2*sqrt(a^2-4b),
        nonresidue mask of p over the fixed columns, the unit_bit of each unit
        bit of p at the bad primes) at a good odd prime p."""
        data = self._goodram_cache.get(p)
        if data is None:
            a = self.pair.a
            s = kronecker(self.pair.b_dual, p)
            sp = kronecker(self.pair.b, p)
            kb_phi = kb_dual = 0
            if s == 1 and sp == 1:
                r = sqrt_mod_prime(self.pair.b % p, p)
                kb_phi = (1 - kronecker(a + 2 * r, p)) // 2
                rp = sqrt_mod_prime(self.pair.b_dual % p, p)
                kb_dual = (1 - kronecker(-2 * a + 2 * rp, p)) // 2
            fixed = sum((kronecker(g, p) == -1) << i for i, g in enumerate(self.columns))
            units = tuple(
                i for (q, k), i in self.unit_bit.items() if self.residue_bits[q][p % (8 if q == 2 else q)] >> k & 1
            )
            data = (s, sp, kb_phi, kb_dual, fixed, units)
            self._goodram_cache[p] = data
        return data


@lru_cache(maxsize=8)
def _context(pair: IsogenyPair) -> _CurveContext:
    return _CurveContext(pair)


def descend(pair: IsogenyPair, d: int, *, _ctx: _CurveContext | None = None) -> SelmerDescentResult:
    """Full local-global descent data for the twist of `pair` by d."""
    d0 = squarefree_part(d)
    ctx = _ctx if _ctx is not None else _context(pair)
    (res,) = _descend_abs(ctx, abs(d0), tuple(p for p, _ in factorize(d0)), (1 if d0 > 0 else -1,))
    return _raise_failed(res)


def _raise_failed(res):
    if isinstance(res, DescentConsistencyError):
        raise res
    return res


def _descend_abs(ctx: _CurveContext, ad: int, primes: tuple[int, ...], signs) -> list:
    """The descent of the twist by sign*ad for each sign in `signs`, where
    ad > 0 is squarefree with these primes: per sign its SelmerDescentResult,
    or the DescentConsistencyError that its checks raised.  What depends only
    on ad (good-prime symbols, residue bits, single-column rows) is computed
    once for all signs."""
    column_of = ctx.column_of
    nfix = len(ctx.columns)
    good = []
    dmask = 0  # +ad over the columns: its bad primes, then all of its good primes
    for p in primes:
        if p in column_of:
            dmask |= 1 << column_of[p]
        else:
            good.append(p)
    ngens = nfix + len(good)
    dmask |= ((1 << len(good)) - 1) << nfix
    syms = [ctx.goodram_syms(p) for p in good]

    # the class bits of +ad and -ad at the places over 2*disc*oo
    classes = ([0], [1])
    for q, table in ctx.residue_bits.items():
        m = 8 if q == 2 else q
        val = ad % q == 0
        u = ad // q if val else ad
        classes[0].append(val | table[u % m])
        classes[1].append(val | table[-u % m])

    # at a good prime p: the nonresidue mask of p over all columns
    nonres = [sym[4] for sym in syms]
    for i, pi in enumerate(good):
        for j in range(i + 1, len(good)):
            pj = good[j]
            nij = pow(pi, (pj - 1) >> 1, pj) != 1
            nonres[j] |= nij << (nfix + i)
            nonres[i] |= (nij ^ (pi & pj & 2 != 0)) << (nfix + j)  # reciprocity

    units = [0] * (len(ctx.unit_bit) + 1)  # per unit bit at a bad prime, the good columns that have it
    killed = [0, 0]  # per side, the columns of its single-column rows
    grows = (([], []), ([], []))  # per sign and side, the other good-prime rows
    g_val = excess = 0  # excess: the sum of (dim H^1_phi - 1) over the good primes
    for j, ((s, sp, kb_phi, kb_dual, _, ubits), n) in enumerate(zip(syms, nonres)):
        g_val += (sp - s) // 2
        excess += _good_dim(s, sp) - 1
        col = 1 << (nfix + j)
        for i in ubits:
            units[i] |= col
        if s == sp == -1:
            killed[0] |= col
            killed[1] |= col
        elif s == sp:
            # image = {1, p*c}; the unit class of d/p folds into c, and -1 moves it when p = 3 mod 4
            c = (n & dmask).bit_count() & 1
            r0, r1, flip = n | col * (kb_phi ^ c), n | col * (kb_dual ^ c), col * (n & 1)
            grows[0][0].append(r0)
            grows[0][1].append(r1)
            grows[1][0].append(r0 ^ flip)
            grows[1][1].append(r1 ^ flip)
        else:
            # the side with (s, s') = (1, -1) has the trivial image, the other all classes
            side = 0 if s == 1 else 1
            killed[side] |= col
            grows[0][side].append(n)
            grows[1][side].append(n)
    # a single-column row adds 1 to the rank and clears its column from the other rows
    keep = (~killed[0], ~killed[1])
    base = (ngens - killed[0].bit_count(), ngens - killed[1].bit_count())

    results = []
    for sign in signs:
        neg = sign < 0
        d = -ad if neg else ad
        block = None
        try:
            block = ctx.blocks[tuple(classes[neg])]
            _, correction, frows = block
            sel = []
            for side in (0, 1):
                rows = [fixed | units[u1] ^ units[u2] for fixed, u1, u2 in frows[side]]
                sel.append(base[side] - _f2_rank(rows + grows[neg][side], keep[side]))
            # the local product: correction is the sum of (dim - 1) over the places over 2*disc*oo
            res = SelmerDescentResult(d, sel[0], sel[1], correction + excess, sel[0] - sel[1], g_val, correction)
            _check_identities(res)
        except DescentConsistencyError as exc:
            exc.d = d
            if block is not None:
                exc.dims = {**block[0], **{p: _good_dim(sym[0], sym[1]) for p, sym in zip(good, syms)}}
            res = exc
        results.append(res)
    return results


def _check_identities(res: SelmerDescentResult):
    if res.ord2T_product != res.ord2T_ratio:
        check = "product-formula"
    elif res.ord2T_product != res.g_chi + res.correction:
        check = "ord2-decomposition"
    else:
        return
    raise DescentConsistencyError(
        f"{check} fails for d={res.d}: product={res.ord2T_product}, ratio={res.ord2T_ratio}, "
        f"g={res.g_chi}, correction={res.correction}",
        check,
        res.d,
    )


def g_chi(pair: IsogenyPair, chi) -> int:
    """The additive twist statistic evaluated at a quadratic character of Q."""
    if not chi.is_rational():
        raise ValueError("g_chi is defined for characters of Q")
    return g_chi_of_twist(pair, chi.d_conductor)


def g_chi_of_twist(pair: IsogenyPair, d: int) -> int:
    return g_of_primes(pair, [p for p, e in factorize(d) if e % 2])


def g_of_primes(pair: IsogenyPair, primes) -> int:
    """g at the twist whose squarefree part has these primes (g ignores its sign)."""
    total = 0
    for p in primes:
        if p != 2 and p not in pair.bad_primes:
            total += (kronecker(pair.b, p) - kronecker(pair.b_dual, p)) // 2
    return total


def selmer2_lower_bound(result: SelmerDescentResult) -> int:
    """Proven lower bound for the 2-Selmer rank of the twist (may be vacuous)."""
    return result.ord2T_product - 2


def _scan_range(pair: IsogenyPair, lo: int, hi: int):
    """The descent of +d, then of -d, for every squarefree lo <= d < hi."""
    ctx = _context(pair)
    for d, primes in squarefree_factors(lo, hi):
        for res in _descend_abs(ctx, d, primes, (1, -1)):
            yield _raise_failed(res)


def _scan_batch(a: int, b: int, bounds: tuple[int, int]) -> list[SelmerDescentResult]:
    return list(_scan_range(make_pair(a, b), *bounds))


def scan_twists(pair: IsogenyPair, X: int, workers: int = 1):
    """Yield descent results for every squarefree 0 < |d| < X, ordered by
    (|d|, sign) with the positive twist first.

    [1, X) is split into chunks of at most one sieve block.  With one worker
    they run lazily in this process; with more, a pool of at most one
    process per chunk runs them and the results are merged in order."""
    if not pair.eligible:
        raise ValueError("scan_twists requires an eligible pair")
    if X < 2:
        raise ValueError("scan_twists: X must be >= 2")
    if workers < 1:
        raise ValueError("scan_twists: workers must be >= 1")
    size = min(max(64, (X - 1) // (workers * 8)), SIEVE_BLOCK)
    chunks = [(lo, min(lo + size, X)) for lo in range(1, X, size)]
    if workers == 1:
        for lo, hi in chunks:
            yield from _scan_range(pair, lo, hi)
        return
    import multiprocessing as mp

    with mp.Pool(min(workers, len(chunks))) as pool:
        for batch in pool.imap(partial(_scan_batch, pair.a, pair.b), chunks):
            yield from batch


def _parity_modulus(pair: IsogenyPair) -> int | None:
    """-N_odd, where N_odd is the product of the odd primes of multiplicative
    reduction: the odd bad primes not dividing c4 = 16(a^2 - 3b).  None when
    the model may not be minimal at an odd bad prime (p^4 | c4 and
    p^12 | disc), where the reduction type cannot be read off it."""
    c4 = 16 * (pair.a * pair.a - 3 * pair.b)
    disc = 16 * pair.b * pair.b * pair.b_dual
    n_odd = 1
    for p in pair.bad_primes[1:]:  # bad_primes starts with 2
        if c4 % p**4 == 0 and disc % p**12 == 0:
            return None
        if c4 % p:
            n_odd *= p
    return -n_odd


def audit_curve(pair: IsogenyPair, X: int, seed: int = 0, inject_fault: bool = False) -> dict:
    """Run the exact invariant suite over all squarefree |d| < X.

    Per twist: the product-formula identity, the additive decomposition of
    ord_2 of the Tamagawa ratio, and agreement of the symbol-table and
    torsor routes at every good odd ramified prime encountered; plus
    twist-class invariance on a seeded sample.  The root-number parity
    check shares no code with the descent: on the twists d = 1 mod 8
    coprime to the bad primes, (-1)^ord2T(d) = w(E_d) = w(E) * (d | -N_odd)
    (2-parity, with N_odd from _parity_modulus), so the product of the
    two sides is the same on all of them.  A model that may not be minimal
    at an odd bad prime is refused: its family is counted in
    n_parity_skipped instead of checked.  Returns a report dict with
    report["ok"] False iff an exact identity failed; each failure names its
    check ("product-formula", "ord2-decomposition", "local-image",
    "good-ramified-cross-oracle", "root-number-parity" or
    "twist-class-invariance").  A failure of the first three, which the
    descent kernel raises, also carries "dims": the error's per-place dims
    with the places as strings, or None.
    """
    rng = random.Random(seed)
    ctx = _CurveContext(pair)  # private context: fault injection stays isolated
    failures = []
    corrections = set()
    n_cross = 0
    n_twists = 0
    cross_cache: dict = {}
    parity_mod = _parity_modulus(pair)
    parity_ref = None  # (d, sign) of the first twist the parity check saw
    n_parity = n_parity_skipped = 0

    if inject_fault:
        (dim, rows), dual = ctx.images[2][0]  # the class of d = 1 at 2
        ctx.images[2][0] = ((dim + 1, rows), dual)

    for ad, fact in squarefree_factors(1, X):
        coprime = not any(p in pair.bad_primes for p in fact)  # 2 is a bad prime, so ad is odd
        for d, res in zip((ad, -ad), _descend_abs(ctx, ad, fact, (1, -1))):
            n_twists += 1
            if isinstance(res, DescentConsistencyError):
                dims = None if res.dims is None else {str(v): n for v, n in res.dims.items()}
                failures.append({"d": d, "check": res.check, "detail": str(res), "dims": dims})
                continue
            corrections.add(res.correction)
            for p in (p for p in fact if p not in pair.bad_primes):
                key = (p, kronecker(d // p, p))
                if key not in cross_cache:
                    cross_cache[key] = local_image(pair.a, pair.b, d, p)[0]
                    n_cross += 1
                    table = local_dim_good_ramified(pair, p)
                    if cross_cache[key] != table:
                        failures.append(
                            {
                                "d": d,
                                "check": "good-ramified-cross-oracle",
                                "detail": f"p={p}: torsor {cross_cache[key]} != table {table}",
                            }
                        )
            if not coprime or d % 8 != 1:
                continue
            if parity_mod is None:
                n_parity_skipped += 1
                continue
            n_parity += 1
            sign = (1 - 2 * (res.ord2T_product & 1)) * kronecker(d, parity_mod)
            if parity_ref is None:
                parity_ref = (d, sign)
            elif sign != parity_ref[1]:
                failures.append(
                    {
                        "d": d,
                        "check": "root-number-parity",
                        "detail": f"(-1)^ord2T * (d | {parity_mod}) = {sign}, but {parity_ref[1]} at d={parity_ref[0]}",
                    }
                )

    if inject_fault and not failures:
        failures.append({"d": 0, "check": "fault-injection", "detail": "injected fault went undetected"})

    if not failures and X > 2:  # randrange(2, X) needs X > 2
        for _ in range(4):
            ad = rng.randrange(2, X)
            base = descend(pair, ad, _ctx=ctx)
            for k in (2, 3, 5):
                scaled = descend(pair, ad * k * k, _ctx=ctx)
                if base != scaled:
                    failures.append({"d": ad, "check": "twist-class-invariance", "detail": f"k={k}"})

    return {
        "ok": not failures,
        "n_twists": n_twists,
        "n_cross_checks": n_cross,
        "n_parity_checks": n_parity,
        "n_parity_skipped": n_parity_skipped,
        "n_corrections": len(corrections),
        "corrections": sorted(corrections),
        "correction_bound": 3 ** len(ctx.bad_places),
        "failures": failures,
    }
