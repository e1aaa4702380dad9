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

import math
import os
import random
from functools import lru_cache, partial
from typing import NamedTuple

from .arith import (
    REAL_PLACE,
    SIEVE_BLOCK,
    factorize,
    is_perfect_square,
    kronecker,
    least_nonresidue,
    sqrt_mod_prime,
    squarefree_factors,
    torsor_locally_solvable,
)

__all__ = [
    "IsogenyPair",
    "SelmerDescentResult",
    "DescentConsistencyError",
    "make_pair",
    "local_dim_good_ramified",
    "local_image",
    "g_of_primes",
    "descend",
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


class IsogenyPair(NamedTuple):
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
    # b and disc2 apart: with a = 0, 2*b*disc2 = -8b^2, whose cofactor is no prime
    bad = tuple(sorted({2, *(p for n in (b, disc2) for p, _ in factorize(n))}))
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
    nbits = 1 if place == REAL_PLACE else 3 if place == 2 else 2
    masks = tuple(bits for bits in range(1 << nbits) if torsor_locally_solvable(at, bt, _class_rep(bits, place), place))
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
    """The squarefree integer representative of the class at `place` with these bits."""
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
    """A dict that fills a missing key with fill(key).  A bounded one stores
    the value only while it holds fewer than _MEMO_CAP keys; past that it
    computes each missing key anew on every read."""

    def __init__(self, fill, bounded: bool = False):
        super().__init__()
        self.fill = fill
        self.bounded = bounded

    def __missing__(self, key):
        value = self.fill(key)
        if not self.bounded or len(self) < _MEMO_CAP:
            self[key] = value
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
    keyed by that residue, of size at most 8 + sum(q).  Its other symbols
    are periodic mod 8|b*b'| by Jacobi reciprocity: `residue_syms` holds
    them per residue class, and `split_syms` per prime only for the primes
    with s = s' = 1, whose square-root bits need p itself, up to _MEMO_CAP
    primes.

    `memo` maps the signature of a pair of twists +-|d| (see _signature) to
    the interned entry of their verified rows; `_descend_abs`, which scan,
    audit and descend all call, fills it, up to _MEMO_CAP signatures.
    """

    def __init__(self, pair: IsogenyPair):
        self.pair = pair
        self.bad_places = (REAL_PLACE, *pair.bad_primes)
        self.minus_one = [_local_bits(-1, v) for v in self.bad_places]  # XOR turns d's class bits into -d's
        self.sides = ((pair.a, pair.b), (pair.a_dual, pair.b_dual))
        self.columns = (-1, *pair.bad_primes)
        self.column_of = {p: i for i, p in enumerate(self.columns)}
        self.residue_bits = {q: _Lazy(partial(_local_bits, place=q)) for q in pair.bad_primes}
        # (q, the modulus that fixes the unit bits at q, its residue table), per bad prime
        self.class_tables = [(q, 8 if q == 2 else q, table) for q, table in self.residue_bits.items()]
        # the unit bits of the classes at the bad primes, numbered from 1; 0 is a bit no class has
        unit_bits = [(q, k) for q in pair.bad_primes for k in range(1, 3 if q == 2 else 2)]
        self.unit_bit = {qk: i for i, qk in enumerate(unit_bits, 1)}
        self.images = {v: _Lazy(partial(self._local_images, v)) for v in self.bad_places}
        self.blocks = _Lazy(self._bad_block)
        self.modulus = 8 * abs(pair.b * pair.b_dual)
        self.residue_syms = _Lazy(self._residue_syms)
        self.split_syms = _Lazy(self._split_syms, bounded=True)
        self.syms: dict[tuple, tuple] = {}  # the interned symbol tuples, numbered in order of arrival
        # a symbol tuple's number fits in this many bits: at most 4 per residue class
        self.sym_bits = (4 * self.modulus).bit_length()
        self.memo: dict[int, tuple] = {}
        self.entries: dict[tuple, tuple] = {}  # the interned memo values

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

    def _residue_syms(self, r: int):
        """The symbols of the good primes p = r mod 8|b*b'|, or None when
        s = s' = 1 there.  Every symbol but the square-root bits is a Jacobi
        symbol (g | p) with g | 2*b*b', so (g | r) gives it."""
        if kronecker(self.pair.b_dual, r) == kronecker(self.pair.b, r) == 1:
            return None
        return self._symbols(r, 0, 0)

    def _split_syms(self, p: int):
        """The symbols of a good prime p with s = s' = 1, square-root bits included."""
        a = self.pair.a
        r = sqrt_mod_prime(self.pair.b % p, p)
        kb_phi = (1 - kronecker(a + 2 * r, p)) // 2
        rp = sqrt_mod_prime(self.pair.b_dual % p, p)
        kb_dual = (1 - kronecker(-2 * a + 2 * rp, p)) // 2
        return self._symbols(p % self.modulus, kb_phi, kb_dual)

    def _symbols(self, r: int, kb_phi: int, kb_dual: int):
        """The symbols of the good primes p = r mod 8|b*b'| with these
        square-root bits: (s, s', nonres bit of a+2*sqrt(b), nonres bit of
        -2a+2*sqrt(a^2-4b), nonresidue mask of p over the fixed columns, the
        unit_bit of each unit bit of p at the bad primes, the number of this
        tuple).  The tuples are interned, so equal symbols are one object.
        A good prime p reads its tuple as
        residue_syms[p % modulus] or split_syms[p]."""
        fixed = sum((kronecker(g, r) == -1) << i for i, g in enumerate(self.columns))
        bits = {q: table[r % m] for q, m, table in self.class_tables}
        units = tuple(i for (q, k), i in self.unit_bit.items() if bits[q] >> k & 1)
        syms = (kronecker(self.pair.b_dual, r), kronecker(self.pair.b, r), kb_phi, kb_dual, fixed, units)
        if syms not in self.syms:
            self.syms[syms] = (*syms, len(self.syms))
        return self.syms[syms]

    def descend(self, d: int) -> SelmerDescentResult:
        """descend(pair, d) on this context, as the audit's twist-class
        sample runs it on the audit's own."""
        primes = tuple(p for p, e in factorize(d) if e % 2)  # those of the squarefree part of d
        ad = math.prod(primes)
        row = _descend_abs(self, ad, primes)[d < 0]
        if type(row) is not tuple:
            raise row
        return SelmerDescentResult(-ad if d < 0 else ad, *row)


@lru_cache(maxsize=8)
def _context(pair: IsogenyPair) -> _CurveContext:
    return _CurveContext(pair)


def descend(pair: IsogenyPair, d: int) -> SelmerDescentResult:
    """Full local-global descent data for the twist of `pair` by d."""
    return _context(pair).descend(d)


def _descend_abs(ctx: _CurveContext, ad: int, primes: tuple[int, ...]) -> tuple:
    """The memo entry of the twists by +ad and by -ad, where ad > 0 is
    squarefree with these primes: (plus, minus, plus text, minus text).
    plus and minus are the rows of +ad and -ad, the six ints of a
    SelmerDescentResult after d as a plain tuple, and each text is the
    twists.csv line of its row after d.  A row whose checks failed is the
    DescentConsistencyError that they raised, and then both texts are None.

    The rows are read from the memo of ctx by the signature of ad (see
    _signature) when an earlier |d| had it; each row still goes through
    _check_identities with its own d, and a failure there reruns _rows,
    whose error carries the dims.  A miss runs _rows and stores the entry
    of two verified rows while the memo holds fewer than _MEMO_CAP
    signatures.  The entries are interned, so equal rows are one object."""
    signature = _signature(ctx, ad, primes)
    entry = ctx.memo.get(signature[0])
    if entry is not None:
        try:
            _check_identities((ad, *entry[0]))
            _check_identities((-ad, *entry[1]))
            return entry
        except DescentConsistencyError:
            pass
    rows = _rows(ctx, ad, *signature)
    if type(rows[0]) is not tuple or type(rows[1]) is not tuple:
        return (*rows, None, None)
    entry = ctx.entries.get(rows)
    if entry is None:
        tails = (
            f",{g_chi},{correction},{product},{sel},{sel_dual},{product - _SELMER2_SLACK}\n"
            for sel, sel_dual, product, _, g_chi, correction in rows
        )
        entry = ctx.entries[rows] = (*rows, *tails)
    if len(ctx.memo) < _MEMO_CAP:
        ctx.memo[signature[0]] = entry
    return entry


def _signature(ctx: _CurveContext, ad: int, primes: tuple[int, ...]):
    """(key, good primes, their symbols) for the twists by +-ad, ad > 0
    squarefree with these primes.

    The rows of both twists depend on ad only through the key, one int that
    packs, after a leading 1: whether each bad prime divides ad, one bit
    each, the number of each good prime's symbol tuple, sym_bits each, and
    last the Legendre symbols (p_i | p_j), i < j, among the good primes,
    one bit each, that _rows reads back.  The class bits of +ad at a bad
    prime q, which _rows reads off ad, are a function of the key: the class
    map is a homomorphism, so they are the XOR of those of the primes of ad.
    q itself gives the valuation bit, the other bad primes of ad constant
    bits, and a good prime its unit bits at q, which its symbol tuple holds;
    -ad's class bits are a function of +ad's.  The key's length grows with
    the number of good primes, so it is injective."""
    column_of = ctx.column_of
    residue_syms, split_syms, modulus, width = ctx.residue_syms, ctx.split_syms, ctx.modulus, ctx.sym_bits
    key = 1
    for q in ctx.pair.bad_primes:
        key = key << 1 | (ad % q == 0)
    good, syms = [], []
    for p in primes:
        if p not in column_of:
            sym = residue_syms[p % modulus] or split_syms[p]
            good.append(p)
            syms.append(sym)
            key = key << width | sym[6]
    for i, pi in enumerate(good):
        for pj in good[i + 1 :]:
            key = key << 1 | (pow(pi, (pj - 1) >> 1, pj) != 1)
    return key, good, syms


def _rows(ctx: _CurveContext, ad: int, key: int, good: list, syms: list) -> tuple:
    """The rows of +ad and -ad (or their errors, see _descend_abs) from the
    signature of ad (see _signature); what depends only on ad (good-prime
    symbols, residue bits, single-column rows) is computed once for both."""
    nfix = len(ctx.columns)
    # at a good prime p: the nonresidue mask of p over all columns, with the pairwise bits of the key
    nonres = [sym[4] for sym in syms]
    bit = len(good) * (len(good) - 1) // 2
    for i, pi in enumerate(good):
        for j in range(i + 1, len(good)):
            bit -= 1
            nij = key >> bit & 1
            nonres[j] |= nij << (nfix + i)
            nonres[i] |= (nij ^ (pi & good[j] & 2 != 0)) << (nfix + j)  # reciprocity
    ngens = nfix + len(good)
    dmask = ((1 << len(good)) - 1) << nfix  # +ad over the columns: its bad primes, then all of its good primes

    # the class bits of +ad and -ad at the places over 2*disc*oo
    plus = [0]
    for i, (q, m, table) in enumerate(ctx.class_tables, 1):
        if ad % q:
            plus.append(table[ad % m])
        else:
            dmask |= 1 << i
            plus.append(1 | table[ad // q % m])
    minus = [c ^ sign for c, sign in zip(plus, ctx.minus_one)]

    units = [0] * (len(ctx.unit_bit) + 1)  # per unit bit at a bad prime, the good columns that have it
    killed0 = killed1 = 0  # per side, the columns of its single-column rows
    plus0, plus1, minus0, minus1 = [], [], [], []  # per sign and side, the other good-prime rows
    g_val = 0
    col = 1 << nfix
    for (s, sp, kb_phi, kb_dual, _, ubits, _), n in zip(syms, nonres):
        g_val += (sp - s) // 2
        for i in ubits:
            units[i] |= col
        if s != sp:
            # the side with (s, s') = (1, -1) has the trivial image, the other all classes
            if s == 1:
                killed0 |= col
                plus0.append(n)
                minus0.append(n)
            else:
                killed1 |= col
                plus1.append(n)
                minus1.append(n)
        elif s == 1:
            # image = {1, p*c}; the unit class of d/p folds into c, and -1 moves it when p = 3 mod 4
            c = (n & dmask).bit_count() & 1
            r0, r1 = n | col * (kb_phi ^ c), n | col * (kb_dual ^ c)
            plus0.append(r0)
            plus1.append(r1)
            if n & 1:
                r0 ^= col
                r1 ^= col
            minus0.append(r0)
            minus1.append(r1)
        else:
            killed0 |= col
            killed1 |= col
        col <<= 1
    # a single-column row adds 1 to the rank and clears its column from the other rows
    keep0, keep1 = ~killed0, ~killed1
    base0, base1 = ngens - killed0.bit_count(), ngens - killed1.bit_count()
    # the sum of (dim H^1_phi - 1) over the good primes: dim is 0 where side 0 alone
    # has a single-column row, 2 where side 1 alone has one, and 1 elsewhere
    excess = base0 - base1

    rows = []
    for d, classes, good0, good1 in ((ad, plus, plus0, plus1), (-ad, minus, minus0, minus1)):
        block = None
        try:
            block = ctx.blocks[tuple(classes)]
            _, correction, (fixed0, fixed1) = block
            sel0 = base0 - _f2_rank([f | units[u1] ^ units[u2] for f, u1, u2 in fixed0] + good0, keep0)
            sel1 = base1 - _f2_rank([f | units[u1] ^ units[u2] for f, u1, u2 in fixed1] + good1, keep1)
            # the local product: correction is the sum of (dim - 1) over the places over 2*disc*oo
            row = (sel0, sel1, correction + excess, sel0 - sel1, g_val, correction)
            _check_identities((d, *row))
        except DescentConsistencyError as exc:
            exc.d = d
            if block is not None:
                exc.dims = {**block[0], **{p: _good_dim(sym[0], sym[1]) for p, sym in zip(good, syms)}}
            row = exc
        rows.append(row)
    return tuple(rows)


def _check_identities(row: tuple):
    """Raise a DescentConsistencyError naming d unless the row (the fields
    of a SelmerDescentResult) satisfies product == ratio == g + correction."""
    d, _, _, product, ratio, g_chi, correction = row
    if product != ratio:
        check = "product-formula"
    elif product != g_chi + correction:
        check = "ord2-decomposition"
    else:
        return
    raise DescentConsistencyError(
        f"{check} fails for d={d}: product={product}, ratio={ratio}, g={g_chi}, correction={correction}",
        check,
        d,
    )


def g_of_primes(pair: IsogenyPair, primes) -> int:
    """g at the twist whose squarefree part has these primes (g ignores its sign)."""
    total = 0
    for p in primes:
        if p != 2 and p not in pair.bad_primes:
            total += (kronecker(pair.b, p) - kronecker(pair.b_dual, p)) // 2
    return total


# the 2-Selmer rank of a twist is at least ord2T - _SELMER2_SLACK
_SELMER2_SLACK = 2

# the most signatures that the memo of one curve holds in one process
_MEMO_CAP = 1 << 16


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(pair: IsogenyPair, X: int, workers: int) -> tuple[list[tuple[int, int]], int]:
    """The chunks [lo, hi) of [1, X) and the number of processes to scan them.

    Workers beyond the CPUs available count as absent: they would only
    shrink the chunks and share the CPUs."""
    if not pair.eligible:
        raise ValueError("scan_twists requires an eligible pair")
    if X < 2:
        raise ValueError("scan_twists: X must be >= 2")
    if workers < 1:
        raise ValueError("scan_twists: workers must be >= 1")
    workers = min(workers, _available_cpus())
    size = min(max(64, (X - 1) // (workers * 8)), SIEVE_BLOCK)
    chunks = [(lo, min(lo + size, X)) for lo in range(1, X, size)]
    return chunks, min(workers, len(chunks))


def _scan_chunk(a: int, b: int, bounds: tuple[int, int]):
    """The twists.csv rows of +d, then of -d, for every squarefree d in the
    chunk [lo, hi) = bounds as text, and an array('b') of their ord2T, from
    the memoized kernel _descend_abs; a failed check is raised."""
    from array import array  # here, like numpy elsewhere, so that the other commands never load it

    ctx = _context(make_pair(a, b))
    lines = []
    ord2t = array("b")
    for ad, primes in squarefree_factors(*bounds):
        plus, minus, plus_tail, minus_tail = _descend_abs(ctx, ad, primes)
        if plus_tail is None:
            raise minus if type(plus) is tuple else plus
        lines.append(f"{ad}{plus_tail}-{ad}{minus_tail}")  # no ratio column: it equals ord2T
        ord2t.append(plus[2])
        ord2t.append(minus[2])
    return "".join(lines), ord2t


def scan_twists(pair: IsogenyPair, X: int, workers: int = 1):
    """Yield, for each chunk of [1, X) in order, the twists.csv rows of its
    squarefree twists (by |d|, then +d before -d) as text, and an
    array('b') of their ord2T.

    One process (one worker, one CPU or one chunk) computes the chunks
    lazily in this process; otherwise a pool of at most one process per
    chunk and per available CPU does."""
    chunks, processes = _chunks(pair, X, workers)
    scan = partial(_scan_chunk, pair.a, pair.b)
    if processes == 1:
        yield from map(scan, chunks)
        return
    import multiprocessing as mp

    with mp.Pool(processes) as pool:
        yield from pool.imap(scan, chunks)


def _parity_modulus(pair: IsogenyPair) -> int | None:
    """-N_odd, where N_odd is the product of the odd primes of multiplicative
    reduction: the odd bad primes not dividing c4 = 16(a^2 - 3b).  An
    additive odd prime p has f_p = 2, so it leaves the symbol (d | N) alone:
    wild inertia at p is pro-p and fixes the rational 2-torsion point, so
    its image in Aut(E[2]) has order <= 2 and it acts trivially on E[2]; on
    T_2 it then acts through the pro-2 ker(GL_2(Z_2) -> GL_2(F_2)), so
    trivially too, and the Swan conductor is 0.  None when the model may
    not be minimal at an odd bad prime (p^4 | c4 and p^12 | disc), where
    the reduction type cannot be read off it."""
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
    twist-class invariance on a seeded sample: d's row, read through the
    memo, against the kernel's _rows for the squarefree part of d*k^2,
    which factorize gives.  The root-number parity
    check shares no code with the descent: on the twists d = 1 mod 4
    coprime to the bad primes, which do not ramify at 2,
    (-1)^ord2T(d) = w(E_d) = w(E) * (d | -N_odd) * (d | 2)^f_2 (2-parity,
    with N_odd from _parity_modulus and f_2 the conductor exponent at 2).
    (d | 2) depends only on d mod 8, so the product of (-1)^ord2T(d) and
    (d | -N_odd) is the same on all such twists in one class mod 8.  A model that may not be minimal
    at an odd bad prime is refused: its family is counted in
    n_parity_skipped instead of checked.  Returns a report dict with
    report["ok"] False iff an exact identity failed; each failure names its
    check ("product-formula", "ord2-decomposition", "local-image",
    "good-ramified-cross-oracle", "root-number-parity" or
    "twist-class-invariance").  A failure of the first three, which the
    descent kernel (or the cross-check's local_image) raises, also carries
    "dims": the error's per-place dims with the places as strings, or None.
    """
    rng = random.Random(seed)
    ctx = _CurveContext(pair)  # private context with its own memo: fault injection stays isolated
    failures = []
    corrections = set()
    n_cross = 0
    n_twists = 0
    cross_keys: set[tuple[int, int]] = set()  # the (p, class of d/p at p) already cross-checked
    cross_done: set[int] = set()  # primes with both twist classes in cross_keys
    parity_mod = _parity_modulus(pair)
    parity_ref: dict[int, tuple[int, int]] = {}  # d % 8 -> (d, sign) of its first checked twist
    n_parity = n_parity_skipped = 0

    if inject_fault:
        (dim, rows), dual = ctx.images[2][0]  # the class of d = 1 at 2
        ctx.images[2][0] = ((dim + 1, rows), dual)

    for ad, fact in squarefree_factors(1, X):
        good = [p for p in fact if p not in pair.bad_primes]
        coprime = len(good) == len(fact)  # 2 is a bad prime, so ad is odd
        for d, row in zip((ad, -ad), _descend_abs(ctx, ad, fact)[:2]):
            n_twists += 1
            if type(row) is not tuple:
                dims = None if row.dims is None else {str(v): n for v, n in row.dims.items()}
                failures.append({"d": d, "check": row.check, "detail": str(row), "dims": dims})
                continue
            ord2t, correction = row[2], row[5]
            corrections.add(correction)
            for p in good:
                if p in cross_done:
                    continue
                key = (p, kronecker(d // p, p))
                if key in cross_keys:
                    continue
                cross_keys.add(key)
                n_cross += 1
                if (p, -key[1]) in cross_keys:
                    cross_done.add(p)
                try:
                    torsor = local_image(pair.a, pair.b, d, p)[0]
                except DescentConsistencyError as exc:
                    failures.append({"d": d, "check": exc.check, "detail": str(exc), "dims": None})
                    continue
                table = local_dim_good_ramified(pair, p)
                if torsor != table:
                    failures.append(
                        {
                            "d": d,
                            "check": "good-ramified-cross-oracle",
                            "detail": f"p={p}: torsor {torsor} != table {table}",
                        }
                    )
            if not coprime or d % 4 != 1:
                continue
            if parity_mod is None:
                n_parity_skipped += 1
                continue
            n_parity += 1
            sign = (1 - 2 * (ord2t & 1)) * kronecker(d, parity_mod)
            ref_d, ref_sign = parity_ref.setdefault(d % 8, (d, sign))
            if sign != ref_sign:
                failures.append(
                    {
                        "d": d,
                        "check": "root-number-parity",
                        "detail": f"(-1)^ord2T * (d | {parity_mod}) = {sign}, but {ref_sign} at d={ref_d}",
                    }
                )

    if inject_fault and not failures:
        failures.append({"d": 0, "check": "fault-injection", "detail": "injected fault went undetected"})

    if not failures and X > 2:  # randrange(2, X) needs X > 2
        for _ in range(4):
            ad = rng.randrange(2, X)
            base = ctx.descend(ad)
            for k in (2, 3, 5):
                # d*k^2 from the kernel's own rows, past the memo that d's read
                primes = tuple(p for p, e in factorize(ad * k * k) if e % 2)
                sq = math.prod(primes)
                row = _rows(ctx, sq, *_signature(ctx, sq, primes))[0]
                if type(row) is not tuple or base != (sq, *row):
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
