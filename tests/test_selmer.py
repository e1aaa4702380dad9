import math
import random

import pytest

from twistselmer.arith import (
    REAL_PLACE,
    factorize,
    kronecker,
    least_nonresidue,
    sieve_primes,
    squarefree_factors,
    squarefree_flags,
    squarefree_part,
    torsor_locally_solvable,
)
from twistselmer.selmer import (
    DescentConsistencyError,
    IsogenyPair,
    SelmerDescentResult,
    _check_identities,
    _context,
    _CurveContext,
    _descend_abs,
    _f2_rank,
    _rows,
    _signature,
    audit_curve,
    descend,
    g_of_primes,
    local_dim_good_ramified,
    local_image,
    make_pair,
    scan_twists,
)

CURVES_20 = [
    (1, -1), (0, 4), (-1, 3), (0, -2), (2, -1), (1, 3), (-2, 5), (3, -2),
    (1, -3), (-1, -1), (2, 3), (-3, 2), (1, 5), (5, -1), (-2, -3), (4, 1),
    (-4, 3), (2, 7), (-5, -2), (3, 5),
]

# the curves of the root-number parity audit
PARITY_CURVES = [(1, -1), (0, 4), (-1, 3), (0, -2), (7, -11), (2, 3), (3, -5), (5, 2), (-3, 7)]
# additive at 3 (3 | c4 and disc) with models minimal there
ADDITIVE_AT_3 = [(0, 3), (0, -3), (3, 3), (0, 6), (3, -3)]


def g_chi_of_twist(pair, d):
    """g at the character of Q(sqrt(d)): over the primes of odd exponent in d."""
    return g_of_primes(pair, [p for p, e in factorize(d) if e % 2])


class TestMakePair:
    def test_example_1_m1(self):
        pair = make_pair(1, -1)
        assert (pair.a_dual, pair.b_dual) == (-2, 5)
        assert (pair.b_dual, pair.b) == (5, -1)
        assert pair.eligible
        # b_dual and b are the square classes of the discriminants of E and E'
        disc = 16 * pair.b**2 * (pair.a**2 - 4 * pair.b)
        disc_dual = 256 * pair.b * (pair.a**2 - 4 * pair.b) ** 2
        assert squarefree_part(disc) == squarefree_part(pair.b_dual)
        assert squarefree_part(disc_dual) == squarefree_part(pair.b)

    def test_full_two_torsion_ineligible(self):
        assert not make_pair(6, 5).eligible  # a^2-4b = 16 is a square
        assert not make_pair(3, 2).eligible  # a^2-4b = 1

    def test_eligible_with_negative_disc(self):
        assert make_pair(0, 4).eligible

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            make_pair(0, 0)
        with pytest.raises(ValueError):
            make_pair(2, 1)

    def test_bad_primes(self):
        assert make_pair(1, -1).bad_primes == (2, 5)
        assert make_pair(-1, 3).bad_primes == (2, 3, 11)


class TestDualPair:
    def test_example(self):
        pair = make_pair(1, -1)
        dp = make_pair(pair.a_dual, pair.b_dual)
        assert (dp.a, dp.b) == (-2, 5)

    def test_double_dual_is_square_twist(self):
        pair = make_pair(1, -1)
        dp = make_pair(pair.a_dual, pair.b_dual)
        dd = make_pair(dp.a_dual, dp.b_dual)
        assert (dd.a, dd.b) == (4, -16)
        assert squarefree_part(dd.b_dual) == squarefree_part(pair.b_dual)
        assert squarefree_part(dd.b) == squarefree_part(pair.b)

    def test_dual_swaps_classes(self):
        for a, b in CURVES_20:
            pair = make_pair(a, b)
            dp = make_pair(pair.a_dual, pair.b_dual)
            assert squarefree_part(dp.b_dual) == squarefree_part(16 * pair.b)
            assert squarefree_part(dp.b) == squarefree_part(pair.b_dual)


class TestLocalDimGoodRamified:
    def test_case_iv(self):
        pair = make_pair(1, -1)
        assert kronecker(5, 11) == 1 and kronecker(-1, 11) == -1
        assert local_dim_good_ramified(pair, 11) == 0

    def test_case_iii(self):
        pair = make_pair(1, -1)
        assert kronecker(5, 13) == -1 and kronecker(-1, 13) == 1
        assert local_dim_good_ramified(pair, 13) == 2

    def test_equal_symbols_give_dimension_one(self):
        pair = make_pair(1, -1)
        for p in (3, 7, 23, 43):
            s, sp = kronecker(pair.b_dual, p), kronecker(pair.b, p)
            if s == sp:
                assert local_dim_good_ramified(pair, p) == 1

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            local_dim_good_ramified(make_pair(1, -1), 5)
        with pytest.raises(ValueError):
            local_dim_good_ramified(make_pair(1, -1), 2)


class TestLocalDim:
    def test_real(self):
        assert local_image(1, -1, 1, REAL_PLACE) == (0, (0,))

    def test_good_unramified(self):
        assert local_image(1, -1, 1, 7)[0] == 1

    def test_matches_table_at_ramified(self):
        pair = make_pair(1, -1)
        assert local_image(1, -1, 11, 11)[0] == 0 == local_dim_good_ramified(pair, 11)
        assert local_image(1, -1, 13, 13)[0] == 2 == local_dim_good_ramified(pair, 13)

    def test_cross_oracle_20_curves_200_twists(self):
        # symbol table vs torsor solvability at every good odd ramified prime
        seen = set()
        twists = [sd for d, _ in squarefree_factors(1, 200) for sd in (d, -d)]
        for a, b in CURVES_20:
            pair = make_pair(a, b)
            for d in twists:
                for p, mult in _factor(abs(d)):
                    if p == 2 or p in pair.bad_primes:
                        continue
                    key = (a, b, p, kronecker(d // p, p))
                    if key in seen:
                        continue
                    seen.add(key)
                    assert local_image(a, b, d, p)[0] == local_dim_good_ramified(pair, p), (a, b, d, p)

    @pytest.mark.parametrize("a, b", CURVES_20[:5])
    def test_weil_route_matches_scan_below_2000(self, a, b, monkeypatch):
        # at every good prime 17 <= p < 2000 and both twist classes there, the
        # Weil bound and the roots in F_p[x] against the scan of all p residues
        import twistselmer.arith as arith

        pair = make_pair(a, b)
        for p in (p for p in sieve_primes(2000) if p >= 17 and p not in pair.bad_primes):
            for rep in (p, p * least_nonresidue(p)):
                monkeypatch.setattr(arith, "_SMALL_PRIME_SCAN", 13)
                weil = local_image(a, b, rep, p)
                monkeypatch.setattr(arith, "_SMALL_PRIME_SCAN", p)
                assert local_image(a, b, rep, p) == weil, (a, b, rep, p)


def _factor(n):
    from twistselmer.arith import factorize

    return factorize(n)


def _brute_selmer_dim(a, b, d):
    at, bt = a * d, b * d * d
    primes = [p for p, _ in _factor(2 * b * (a * a - 4 * b) * d)]
    gens = [-1, *primes]
    count = 0
    for mask in range(1 << len(gens)):
        delta = math.prod(g for i, g in enumerate(gens) if mask >> i & 1)
        if all(torsor_locally_solvable(at, bt, delta, v) for v in (REAL_PLACE, *primes)):
            count += 1
    dim = count.bit_length() - 1
    assert 1 << dim == count, (a, b, d, count)
    return dim


# The one-sign descent that the two-sign kernel _descend_abs replaced, kept
# as the reference for it: verbatim, except that a good prime's symbol
# tuple has a sixth and a seventh field (the unit bits of p at the bad
# primes, the number of the tuple) to unpack, that it reads the tuple off
# residue_syms and split_syms, and that the result no longer carries the
# per-place dims.
def _parent_descend(
    pair: IsogenyPair,
    d: int,
    *,
    _ctx: _CurveContext | None = None,
    _dprimes: tuple[int, ...] | None = None,
) -> SelmerDescentResult:
    """Full local-global descent data for the twist of `pair` by d."""
    ctx = _ctx if _ctx is not None else _context(pair)
    d0 = squarefree_part(d) if _dprimes is None else d
    dprimes = _dprimes if _dprimes is not None else tuple(p for p, _ in factorize(d0))
    column_of = ctx.column_of
    good = [p for p in dprimes if p not in column_of]
    nfix = len(ctx.columns)
    ngens = nfix + len(good)
    # d over the columns: its sign, its bad primes and all of its good primes
    dmask = int(d0 < 0) | (((1 << len(good)) - 1) << nfix)
    for p in dprimes:
        if p in column_of:
            dmask |= 1 << column_of[p]

    try:
        places = [(REAL_PLACE, (), ctx.images[REAL_PLACE][int(d0 < 0)])]
        for q, table in ctx.residue_bits.items():
            m = 8 if q == 2 else q
            val = d0 % q == 0
            dbits = val | table[(d0 // q if val else d0) % m]
            places.append((q, [table[p % m] for p in good], ctx.images[q][dbits]))
    except DescentConsistencyError as exc:
        exc.d = d0
        raise

    # at a good prime p of d: the nonresidue mask of p over all columns
    syms = [ctx.residue_syms[p % ctx.modulus] or ctx.split_syms[p] for p in good]
    nonres = [sym[4] for sym in syms]
    for i, pi in enumerate(good):
        for j in range(i + 1, len(good)):
            pj = good[j]
            nij = pow(pi, (pj - 1) >> 1, pj) != 1
            nonres[j] |= nij << (nfix + i)
            nonres[i] |= (nij ^ (pi & pj & 2 != 0)) << (nfix + j)  # reciprocity

    dims_phi: dict = {}
    rows0: list[int] = []
    rows1: list[int] = []
    for v, gbits, images in places:
        dims_phi[v] = images[0][0]
        for rows, (_, frows) in zip((rows0, rows1), images):
            for f, row in frows:
                for j, x in enumerate(gbits, nfix):
                    row |= ((f & x).bit_count() & 1) << j
                rows.append(row)
    for j, (s, sp, kb_phi, kb_dual, _, _, _) in enumerate(syms):
        dims_phi[good[j]] = 1 + (sp - s) // 2
        col, n = 1 << (nfix + j), nonres[j]
        if s == sp == -1:
            rows0.append(col)
            rows1.append(col)
        elif s == sp:
            # image = {1, p*c}; the unit class of d/p folds into c
            c = (n & dmask).bit_count() & 1
            rows0.append(n | col * (kb_phi ^ c))
            rows1.append(n | col * (kb_dual ^ c))
        else:
            # the side with (s, s') = (1, -1) has the trivial image, the other all classes
            (rows0 if s == 1 else rows1).extend((col, n))
    sel_dims = (ngens - _f2_rank(rows0), ngens - _f2_rank(rows1))

    ord2T_product = sum(dims_phi.values()) - len(dims_phi)
    g_val = sum((sym[1] - sym[0]) // 2 for sym in syms)

    result = SelmerDescentResult(
        d=d0,
        dim_selphi=sel_dims[0],
        dim_selphihat=sel_dims[1],
        ord2T_product=ord2T_product,
        ord2T_ratio=sel_dims[0] - sel_dims[1],
        g_chi=g_val,
        correction=sum(dims_phi[v] for v in ctx.bad_places) - len(ctx.bad_places),
    )
    _check_identities(result)
    return result


def _always_fail(row):
    raise DescentConsistencyError("forced", "product-formula", row[0])


class TestCheckIdentities:
    def test_consistent_row_passes(self):
        row = descend(make_pair(1, -1), 11)
        assert row.ord2T_product == row.ord2T_ratio == row.g_chi + row.correction
        _check_identities(tuple(row))

    @pytest.mark.parametrize(
        "row, check",
        [
            ((-35, 2, 1, 1, 2, 0, 1), "product-formula"),  # ratio != product
            ((-35, 2, 1, 1, 1, 1, 1), "ord2-decomposition"),  # product != g + correction
            ((-35, 2, 1, 1, 2, 1, 1), "product-formula"),  # both: the product formula is checked first
        ],
    )
    def test_each_check_fires_and_names_d(self, row, check):
        with pytest.raises(DescentConsistencyError) as info:
            _check_identities(row)
        assert (info.value.check, info.value.d) == (check, -35)
        assert str(info.value).startswith(f"{check} fails for d=-35:")


class TestGChi:
    def test_examples(self):
        pair = make_pair(1, -1)
        assert g_chi_of_twist(pair, 11) == -1
        assert g_chi_of_twist(pair, 1) == 0
        assert g_chi_of_twist(pair, 143) == 0  # -1 at 11, +1 at 13

    def test_character_interface(self):
        # d and d*k^2 cut out the same character, so they give the same g
        pair = make_pair(1, -1)
        assert g_chi_of_twist(pair, 11 * 9) == g_chi_of_twist(pair, -11 * 4) == -1
        assert g_chi_of_twist(pair, 11**3) == -1 and g_chi_of_twist(pair, 11**2) == 0

    def test_additivity_on_coprime_twists(self):
        pair = make_pair(1, -1)
        rng = random.Random(17)
        checked = 0
        while checked < 300:
            d1 = squarefree_part(rng.randint(2, 3000))
            d2 = squarefree_part(rng.randint(2, 3000))
            if math.gcd(d1, d2) != 1 or math.gcd(d1 * d2, 10) != 1:
                continue
            checked += 1
            assert g_chi_of_twist(pair, d1 * d2) == g_chi_of_twist(pair, d1) + g_chi_of_twist(pair, d2)

    @pytest.mark.parametrize("a, b", [(1, -1), (-1, 3)])
    def test_g_of_primes_matches_descent(self, a, b):
        # ek --f curve-g computes g once per |d| from the sieve's primes
        pair = make_pair(a, b)
        for d, primes in squarefree_factors(1, 2000):
            g = g_of_primes(pair, primes)
            assert g == g_chi_of_twist(pair, d) == g_chi_of_twist(pair, -d * 4) == descend(pair, -d).g_chi, d

    @pytest.mark.parametrize("a, b", [(1, -1), (-1, 3), (7, -11)])
    def test_prime_sums_are_g_of_primes(self, a, b):
        # ek --f curve-g reads g as an additive function: its value at p, summed over the primes of d
        from twistselmer.ekstats import prime_sum_values, prime_values

        pair = make_pair(a, b)
        values = prime_sum_values(prime_values("Q", 5000, lambda p: g_of_primes(pair, (p,))), 5000)
        want = [g_of_primes(pair, primes) for _, primes in squarefree_factors(1, 5000)]
        assert values.tolist() == want


class TestDescend:
    def test_trivial_twist(self):
        res = descend(make_pair(1, -1), 1)
        assert res.ord2T_product == res.ord2T_ratio
        assert res.g_chi == 0
        assert res.correction == res.ord2T_product

    def test_d_eleven(self):
        res = descend(make_pair(1, -1), 11)
        assert res.g_chi == -1
        assert res.ord2T_product == -1 + res.correction

    def test_failure_carries_the_dims(self, monkeypatch):
        import pickle

        import twistselmer.selmer as selmer

        monkeypatch.setattr(selmer, "_check_identities", _always_fail)
        with pytest.raises(DescentConsistencyError) as info:
            descend(make_pair(1, -1), 11)
        # a pool worker sends the error back pickled
        exc = pickle.loads(pickle.dumps(info.value))
        assert (exc.check, exc.d) == ("product-formula", 11)
        assert set(exc.dims) == {REAL_PLACE, 2, 5, 11}
        assert list(exc.dims) == [REAL_PLACE, 2, 5, 11]  # the places over 2*disc*oo, then the good primes
        assert exc.dims[11] == local_dim_good_ramified(make_pair(1, -1), 11) == 0

    @pytest.mark.parametrize("a, b", [(1, -1), (-1, 3), (7, -11)])
    def test_failure_dims_are_the_local_images(self, a, b, monkeypatch):
        # on a failed check the dims come from local_image at the places over
        # 2*disc*oo and from the symbol table at the good primes, and the
        # result's ord2T_product is the sum of (dim - 1) over them
        import twistselmer.selmer as selmer

        pair = make_pair(a, b)
        clean = [descend(pair, d) for ad, _ in squarefree_factors(1, 300) for d in (ad, -ad)]

        monkeypatch.setattr(selmer, "_check_identities", _always_fail)
        ctx = _CurveContext(pair)
        failed = [exc for ad, primes in squarefree_factors(1, 300) for exc in _descend_abs(ctx, ad, primes)[:2]]
        for res, exc in zip(clean, failed, strict=True):
            assert exc.d == res.d
            good = [p for p, _ in factorize(res.d) if p not in pair.bad_primes]
            want = {v: local_image(a, b, res.d, v)[0] for v in (REAL_PLACE, *pair.bad_primes)}
            want.update((p, local_dim_good_ramified(pair, p)) for p in good)
            assert list(exc.dims.items()) == list(want.items()), res.d
            assert sum(exc.dims.values()) - len(exc.dims) == res.ord2T_product, res.d

    @pytest.mark.parametrize("a, b", [(1, -1), (0, 4), (7, -11)])
    def test_kernel_returns_both_signs(self, a, b):
        # the kernel's rows of +|d| and -|d|, in that order, are what descend gives each sign
        pair = make_pair(a, b)
        ctx = _CurveContext(pair)
        for ad, primes in squarefree_factors(1, 500):
            plus, minus, plus_text, minus_text = _descend_abs(ctx, ad, primes)
            for d, row, text in ((ad, plus, plus_text), (-ad, minus, minus_text)):
                assert descend(pair, d) == (d, *row), d
                sel, sel_dual, product, _, g_chi, correction = row
                assert text == f",{g_chi},{correction},{product},{sel},{sel_dual},{product - 2}\n", d

    def test_twist_class_invariance(self):
        pair = make_pair(1, -1)
        for d in (7, -11, 30):
            base = descend(pair, d)
            for k in (2, 3, 5):
                assert descend(pair, d * k * k) == base

    def test_dual_symmetry(self):
        pair = make_pair(1, -1)
        dp = make_pair(pair.a_dual, pair.b_dual)
        for d in (1, -1, 7, 11, -13, 30, -105):
            assert descend(pair, d).ord2T_product == -descend(dp, d).ord2T_product

    def test_identity_class_always_in_selmer(self):
        for a, b in CURVES_20[:8]:
            pair = make_pair(a, b)
            for d in (1, -5, 6):
                res = descend(pair, d)
                assert res.dim_selphi >= 0 and res.dim_selphihat >= 0

    def test_product_route_equals_ratio_route_sample(self):
        rng = random.Random(23)
        for a, b in CURVES_20:
            pair = make_pair(a, b)
            for _ in range(20):
                d = rng.randint(2, 2000)
                res = descend(pair, d)  # identities asserted internally
                assert res.ord2T_product == res.dim_selphi - res.dim_selphihat

    def test_kernel_matches_parent_descend(self):
        # every field, on both signs of every squarefree |d| < 2000
        for a, b in CURVES_20:
            pair = make_pair(a, b)
            ctx = _CurveContext(pair)
            for ad, primes in squarefree_factors(1, 2000):
                for d, row in zip((ad, -ad), _descend_abs(ctx, ad, primes)):
                    res = SelmerDescentResult(d, *row)
                    ref = _parent_descend(pair, res.d, _ctx=ctx, _dprimes=primes)
                    assert res == ref, (a, b, res.d)
                    if ad % 97 == 1:
                        assert descend(pair, res.d * 9) == ref, (a, b, res.d)

    def test_selmer_dims_match_brute_force_torsor_count(self):
        # independent oracle: count the classes of <-1, primes of 2*disc*d>
        # whose twisted torsor is solvable at every place of S.  Two twists
        # per curve take one good prime of each kind (s, s') that occurs, so
        # both sides get single-column rows (s = s' = -1, and s != s' on the
        # trivial side), rows over their columns, and rows with s = s' = 1.
        for a, b in CURVES_20:
            pair = make_pair(a, b)
            kinds: dict = {}
            for p in (p for p in sieve_primes(400) if p not in pair.bad_primes):
                kinds.setdefault((kronecker(pair.b_dual, p), kronecker(pair.b, p)), []).append(p)
            mixed = [math.prod(ps[i] for ps in kinds.values()) for i in (0, 1)]
            for d in (1, -1, 2, -3, 6, -7, 11, -21, 30, -77, *mixed, *(-m for m in mixed)):
                res = descend(pair, d)
                assert _brute_selmer_dim(a, b, d) == res.dim_selphi, (a, b, d)
                assert _brute_selmer_dim(pair.a_dual, pair.b_dual, d) == res.dim_selphihat, (a, b, d)

    def test_wide_twists_match_brute_force_torsor_count(self):
        # the kernel test above stops at |d| < 2000, at most four odd primes;
        # here two seeded twists per curve are +-{1, 2} times 4 to 6 good primes
        rng = random.Random(2024)
        for a, b in CURVES_20:
            pair = make_pair(a, b)
            good = [p for p in sieve_primes(284) if p not in pair.bad_primes]
            for _ in range(2):
                d = rng.choice((1, -1, 2, -2)) * math.prod(rng.sample(good, rng.randint(4, 6)))
                res = descend(pair, d)
                assert _brute_selmer_dim(a, b, d) == res.dim_selphi, (a, b, d)
                assert _brute_selmer_dim(pair.a_dual, pair.b_dual, d) == res.dim_selphihat, (a, b, d)


def _scan(pair, X, workers=1):
    """The text and the ord2T of the chunks that scan_twists yields, each
    joined: the chunks depend on the workers, their concatenation does not."""
    texts, arrays = zip(*scan_twists(pair, X, workers))
    return "".join(texts), [v for ord2t in arrays for v in ord2t]


def _scan_rows(pair, X):
    """The twists.csv rows of the serial scan, as lists of ints, and their ord2T."""
    text, ord2t = _scan(pair, X)
    return [list(map(int, line.split(","))) for line in text.splitlines()], ord2t


class TestScanTwists:
    def test_small_scan(self):
        rows, ord2t = _scan_rows(make_pair(1, -1), 10)
        assert [r[0] for r in rows] == [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7]
        assert ord2t == [r[3] for r in rows]
        # each row is d, g, correction, ord2T, the two Selmer dims and ord2T - 2
        for d, g_chi, correction, product, sel, sel_dual, bound in rows:
            assert (d, sel, sel_dual, product, product, g_chi, correction) == descend(make_pair(1, -1), d)
            assert bound == product - 2

    def test_rejects_ineligible(self):
        with pytest.raises(ValueError):
            list(scan_twists(make_pair(6, 5), 10))

    def test_deterministic(self):
        assert _scan(make_pair(0, -2), 60) == _scan(make_pair(0, -2), 60)

    def test_parallel_matches_serial(self):
        serial = _scan(make_pair(1, -1), 3000)
        assert _scan(make_pair(1, -1), 3000, workers=2) == serial
        assert len(serial[1]) == 2 * squarefree_flags(1, 3000).count(1)

    def test_pool_size_is_capped_by_the_chunk_count(self, monkeypatch, inline_pool):
        import twistselmer.selmer as selmer

        monkeypatch.setattr(selmer, "_available_cpus", lambda: 64)
        pair = make_pair(1, -1)
        # X = 200 gives chunks of the minimum width 64: [1, 65), [65, 129), [129, 193), [193, 200)
        assert _scan(pair, 200, workers=64) == _scan(pair, 200)
        assert _scan(pair, 200, workers=3) == _scan(pair, 200)
        assert [processes for processes, _ in inline_pool] == [4, 3]

    def test_pool_and_chunks_are_capped_by_the_cpus(self, monkeypatch, inline_pool):
        import twistselmer.selmer as selmer

        monkeypatch.setattr(selmer, "_available_cpus", lambda: 2)
        pair = make_pair(1, -1)
        serial = _scan(pair, 3000)
        assert _scan(pair, 3000, workers=500) == serial
        assert _scan(pair, 3000, workers=2) == serial
        (many, many_chunks), (two, two_chunks) = inline_pool
        assert many == two == 2
        assert many_chunks == two_chunks == [(lo, min(lo + 187, 3000)) for lo in range(1, 3000, 187)]

    def test_available_cpus(self, monkeypatch):
        import os

        import twistselmer.selmer as selmer

        if hasattr(os, "sched_getaffinity"):
            assert selmer._available_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert selmer._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert selmer._available_cpus() == 1

    def test_rejects_no_workers(self):
        for workers in (0, -1):
            with pytest.raises(ValueError):
                list(scan_twists(make_pair(1, -1), 10, workers=workers))

    def test_histogram_totals(self):
        rows, ord2t = _scan_rows(make_pair(1, -1), 10**3)
        assert len(rows) == len(ord2t) == 2 * squarefree_flags(1, 10**3).count(1)
        assert [abs(r[0]) for r in rows[::2]] == [d for d in range(1, 10**3) if squarefree_part(d) == d]


class TestAudit:
    def test_clean_audit(self):
        report = audit_curve(make_pair(1, -1), 400)
        assert report["ok"], report["failures"][:2]
        assert report["n_cross_checks"] > 0
        assert report["n_corrections"] <= report["correction_bound"]

    def test_prime_b_past_trial_division(self):
        # b = 10^18 + 3 is prime: factorize reads it by is_prime past 10^6, and
        # make_pair factors b and a^2 - 4b apart, never b^2
        pair = make_pair(0, 10**18 + 3)
        assert pair.bad_primes == (2, 10**18 + 3)
        report = audit_curve(pair, 2000)
        assert report["ok"], report["failures"][:2]
        assert report["n_cross_checks"] > 0

    def test_fault_injection_detected(self):
        report = audit_curve(make_pair(1, -1), 60, inject_fault=True)
        assert not report["ok"]
        assert {f["check"] for f in report["failures"]} == {"product-formula"}

    def test_fault_injection_reports_dims(self):
        # the places over 2*disc*oo first, then the good primes of d; the corrupted dim at 2 shows
        report = audit_curve(make_pair(1, -1), 100, inject_fault=True)
        for f in report["failures"]:
            places = list(f["dims"])
            assert places[:3] == ["oo", "2", "5"], f
            assert sorted(int(p) for p in places[3:]) == [p for p, _ in factorize(f["d"]) if p not in (2, 5)], f
        assert report["failures"][0]["dims"] == {"oo": 0, "2": 2, "5": 2}

    def test_twist_class_invariance_sees_a_parity_fault(self, monkeypatch):
        # factorize gives the squarefree part of d*k^2, so this check fails
        # when factorize's exponent parities are wrong
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        monkeypatch.setattr(selmer, "factorize", lambda n: tuple((p, 1) for p, _ in factorize(n)))
        report = audit_curve(pair, 2000, seed=1)
        assert [f["check"] for f in report["failures"]] == ["twist-class-invariance"] * 9
        monkeypatch.undo()
        assert audit_curve(pair, 2000, seed=1)["ok"]

    def test_twist_class_invariance_sees_swapped_signs(self, monkeypatch):
        # a kernel that hands every |d| the rows of +d and -d in the wrong
        # order passes every per-twist identity; d*k^2's rows come from _rows,
        # past the memo and the kernel's entry, so the sample sees the swap
        import twistselmer.selmer as selmer

        kernel = selmer._descend_abs

        def swapped(ctx, ad, primes):
            plus, minus, plus_text, minus_text = kernel(ctx, ad, primes)
            return minus, plus, minus_text, plus_text

        pair = make_pair(1, -1)
        monkeypatch.setattr(selmer, "_descend_abs", swapped)
        report = audit_curve(pair, 2000)
        assert report["failures"] and {f["check"] for f in report["failures"]} == {"twist-class-invariance"}
        monkeypatch.undo()
        assert audit_curve(pair, 2000)["ok"]

    def test_wrong_local_image_is_named(self, monkeypatch):
        import twistselmer.selmer as selmer

        monkeypatch.setattr(selmer, "torsor_locally_solvable", lambda *args: True)
        report = audit_curve(make_pair(1, -1), 20)
        assert not report["ok"]
        assert {f["check"] for f in report["failures"]} == {"local-image"}
        assert all(f["dims"] is None for f in report["failures"])

    def test_local_image_failure_names_the_twist(self, monkeypatch):
        import twistselmer.selmer as selmer

        monkeypatch.setattr(selmer, "torsor_locally_solvable", lambda *args: True)
        _context.cache_clear()  # a fresh context, whose local images come from the patched solver
        try:
            with pytest.raises(selmer.DescentConsistencyError) as info:
                descend(make_pair(7, -11), -6)
        finally:
            _context.cache_clear()  # no later test reads what the patched solver computed
        assert (info.value.check, info.value.d) == ("local-image", -6)

    def test_error_survives_pickling(self):
        # pool workers send a failed check back to the parent pickled
        import pickle

        from twistselmer.selmer import DescentConsistencyError

        exc = pickle.loads(pickle.dumps(DescentConsistencyError("boom", "product-formula", -15)))
        assert (str(exc), exc.check, exc.d) == ("boom", "product-formula", -15)

    def test_failure_on_plus_d_keeps_minus_d(self, monkeypatch):
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        clean = audit_curve(pair, 60)

        def fail_at_7(row):
            if row[0] == 7:
                raise DescentConsistencyError("forced", "product-formula", 7)
            _check_identities(row)

        monkeypatch.setattr(selmer, "_check_identities", fail_at_7)
        plus, minus, plus_text, minus_text = _descend_abs(_CurveContext(pair), 7, (7,))
        assert isinstance(plus, DescentConsistencyError) and (plus.check, plus.d) == ("product-formula", 7)
        assert (-7, *minus) == descend(pair, -7)
        assert plus_text is minus_text is None
        report = audit_curve(pair, 60)
        dims = {"oo": 0, "2": 1, "5": 2, "7": 1}
        assert report["failures"] == [{"d": 7, "check": "product-formula", "detail": "forced", "dims": dims}]
        # -7 = 1 mod 8 is coprime to 10, so its parity check shows that -7 was audited
        assert report["n_twists"] == clean["n_twists"]
        assert report["n_parity_checks"] == clean["n_parity_checks"]
        assert report["corrections"] == clean["corrections"]

    def test_flipped_ord2t_fires_root_number_parity(self, monkeypatch):
        import twistselmer.selmer as selmer

        real = selmer._descend_abs

        def flip_17(ctx, ad, primes):
            plus, *rest = real(ctx, ad, primes)
            if ad == 17:
                sel, sel_dual, product, *tail = plus
                plus = (sel, sel_dual, product + 1, *tail)
            return (plus, *rest)

        monkeypatch.setattr(selmer, "_descend_abs", flip_17)
        report = audit_curve(make_pair(1, -1), 60)
        assert [(f["d"], f["check"]) for f in report["failures"]] == [(17, "root-number-parity")]

    def test_flipped_ord2t_fires_root_number_parity_at_5_mod_8(self, monkeypatch):
        import twistselmer.selmer as selmer

        real = selmer._descend_abs

        def flip_13(ctx, ad, primes):
            plus, *rest = real(ctx, ad, primes)
            if ad == 13:
                sel, sel_dual, product, *tail = plus
                plus = (sel, sel_dual, product + 1, *tail)
            return (plus, *rest)

        monkeypatch.setattr(selmer, "_descend_abs", flip_13)
        report = audit_curve(make_pair(1, -1), 60)
        # d = -3 is the first twist of its class mod 8, so 13 is measured against it
        assert [(f["d"], f["check"]) for f in report["failures"]] == [(13, "root-number-parity")]
        assert report["failures"][0]["detail"].endswith("at d=-3")

    @pytest.mark.parametrize("a, b", PARITY_CURVES)
    def test_root_number_parity_holds(self, a, b):
        report = audit_curve(make_pair(a, b), 1500)
        assert report["ok"], report["failures"][:2]
        assert report["n_parity_checks"] > 100 and report["n_parity_skipped"] == 0

    def test_root_number_parity_checks_additive_reduction_at_3(self):
        # e.g. y^2 = x^3 + 3x: 3 divides c4 = -144 and disc, but 3^4 does not divide c4;
        # f_3 = 2, so 3 stays out of N_odd and the parity check runs
        from twistselmer.selmer import _parity_modulus

        for a, b in ADDITIVE_AT_3:
            pair = make_pair(a, b)
            assert 3 in pair.bad_primes and 16 * (a * a - 3 * b) % 3 == 0
            assert _parity_modulus(pair) % 3 != 0
            report = audit_curve(pair, 200)
            assert report["ok"], (a, b, report["failures"][:2])
            assert report["n_parity_checks"] > 50 and report["n_parity_skipped"] == 0
        assert all(_parity_modulus(make_pair(a, b)) is not None for a, b in PARITY_CURVES)

    def test_three_in_n_odd_fires_root_number_parity(self, monkeypatch):
        # the mutant that counts an additive 3 as multiplicative, as if f_3 were 1
        import twistselmer.selmer as selmer

        real = selmer._parity_modulus
        monkeypatch.setattr(selmer, "_parity_modulus", lambda pair: 3 * real(pair))
        for a, b in ADDITIVE_AT_3:
            report = audit_curve(make_pair(a, b), 200)
            assert report["failures"] and {f["check"] for f in report["failures"]} == {"root-number-parity"}, (a, b)

    def test_root_number_parity_refuses_a_model_not_minimal_at_3(self):
        from twistselmer.selmer import _parity_modulus

        # y^2 = x^3 + 81x is y^2 = x^3 + x scaled by 3: p^4 | c4 and p^12 | disc at p = 3
        assert _parity_modulus(make_pair(0, 81)) is None
        assert _parity_modulus(make_pair(0, 1)) == -1
        assert _parity_modulus(make_pair(-1, 3)) == -33  # 3 and 11 are multiplicative
        report = audit_curve(make_pair(0, 81), 200)
        assert report["ok"] and report["n_parity_checks"] == 0 and report["n_parity_skipped"] > 0

    def test_wrong_additive_part_is_named(self, monkeypatch):
        import twistselmer.selmer as selmer

        real = selmer._check_identities

        def off_by_one_g(row):
            d, sel, sel_dual, product, ratio, g_chi, correction = row
            real((d, sel, sel_dual, product, ratio, g_chi + 1, correction))

        monkeypatch.setattr(selmer, "_check_identities", off_by_one_g)
        report = audit_curve(make_pair(1, -1), 20)
        assert not report["ok"]
        assert {f["check"] for f in report["failures"]} == {"ord2-decomposition"}


class TestCrossOracleKeys:
    """The audit's cross-checks: one per (good prime p, class of d/p at p)."""

    @staticmethod
    def _first_twists(pair, X):
        """{(p, (d/p | p)): the first d of the audit's order that has it}, brute force."""
        first = {}
        for ad, primes in squarefree_factors(1, X):
            for d in (ad, -ad):
                for p in primes:
                    if p not in pair.bad_primes:
                        first.setdefault((p, kronecker(d // p, p)), d)
        return first

    @pytest.mark.parametrize("a, b", CURVES_20[:6])
    def test_count_is_the_brute_count_of_keys(self, a, b):
        pair = make_pair(a, b)
        report = audit_curve(pair, 3000)
        assert report["ok"], report["failures"][:2]
        assert report["n_cross_checks"] == len(self._first_twists(pair, 3000))

    @pytest.mark.parametrize("a, b", [(1, -1), (-1, 3)])
    def test_disagreement_at_the_largest_prime_is_named(self, a, b, monkeypatch):
        # the largest good prime is met last, after most primes have both classes cached
        import twistselmer.selmer as selmer

        pair = make_pair(a, b)
        first = self._first_twists(pair, 3000)
        top = max(p for p, _ in first)
        real = selmer.local_image

        def off_at_top(a, b, rep, place):
            dim, masks = real(a, b, rep, place)
            return (dim + 1 if place == top else dim), masks

        monkeypatch.setattr(selmer, "local_image", off_at_top)
        report = audit_curve(pair, 3000)
        named = [(f["d"], f["check"]) for f in report["failures"]]
        want = [(d, "good-ramified-cross-oracle") for (p, _), d in first.items() if p == top]  # in audit order
        assert top == 2999 and len(want) == 2  # 2999 = 3 mod 4: d = 2999 and d = -2999 differ at it
        assert named == want
        assert all(f["detail"].startswith(f"p={top}: ") for f in report["failures"])

    def test_local_image_error_at_a_good_prime_is_a_failure(self, monkeypatch):
        # an error that the cross-check's local_image raises is one failure per
        # key, with its d; the places over 2*disc*oo still get the real images
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        clean = audit_curve(pair, 2000)
        real = selmer.local_image

        def broken_at_7(a, b, rep, place):
            if place == 7:
                raise DescentConsistencyError("local image at 7 has size 3", "local-image")
            return real(a, b, rep, place)

        monkeypatch.setattr(selmer, "local_image", broken_at_7)
        report = audit_curve(pair, 2000)
        want = [d for (p, _), d in self._first_twists(pair, 2000).items() if p == 7]  # in audit order
        assert want == [7, -7]
        assert report["failures"] == [
            {"d": d, "check": "local-image", "detail": "local image at 7 has size 3", "dims": None} for d in want
        ]
        assert not report["ok"]
        for key in ("n_twists", "n_cross_checks", "n_parity_checks", "corrections"):
            assert report[key] == clean[key], key


class TestContextCache:
    def test_nine_curves_leave_at_most_eight_contexts(self):
        twists = (1, -1, 6, -7, 11, -30, 105, -143)
        fresh = {}
        for a, b in CURVES_20[:9]:
            _context.cache_clear()  # each curve's rows from a context of its own
            fresh[a, b] = [descend(make_pair(a, b), d) for d in twists]
        _context.cache_clear()
        for _ in range(2):  # the second pass finds the first curve evicted
            for a, b in CURVES_20[:9]:
                assert [descend(make_pair(a, b), d) for d in twists] == fresh[a, b], (a, b)
                assert _context.cache_info().currsize <= 8
        assert _context.cache_info().currsize == 8


class TestResidueTable:
    def test_size_stays_bounded_as_the_scan_grows(self):
        pair = make_pair(1, -1)
        table = _context(pair).residue_bits
        for _ in scan_twists(pair, 2000):
            pass
        size = sum(map(len, table.values()))
        for _ in scan_twists(pair, 20000):
            pass
        assert sum(map(len, table.values())) == size <= 8 + sum(q for q in pair.bad_primes if q != 2)

    @pytest.mark.parametrize("a, b", [(1, -1), (-1, 3), (7, -11)])
    def test_scan_leaves_bounded_tables(self, a, b):
        # the memo holds at most _MEMO_CAP signatures, the residue table one
        # entry per unit class mod 8|b*b'|, and only the primes with
        # s = s' = 1 have an entry of their own
        import twistselmer.selmer as selmer

        pair = make_pair(a, b)
        _context.cache_clear()
        for _ in scan_twists(pair, 30000):
            pass
        ctx = _context(pair)
        assert 0 < len(ctx.memo) <= selmer._MEMO_CAP
        modulus = 8 * abs(pair.b * pair.b_dual)
        assert ctx.modulus == modulus
        assert len(ctx.residue_syms) <= sum(math.gcd(r, modulus) == 1 for r in range(modulus))

        def split(n):  # s = s' = 1 at the primes = n mod 8|b*b'|
            return kronecker(pair.b_dual, n) == kronecker(pair.b, n) == 1

        assert ctx.split_syms and all(split(p) for p in ctx.split_syms)
        assert all((sym is None) == split(r) for r, sym in ctx.residue_syms.items())

    def test_memo_stops_growing_at_its_cap(self, monkeypatch):
        # at the cap new signatures are computed directly and not stored; the bytes do not move
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        _context.cache_clear()
        want = _scan(pair, 5000)
        monkeypatch.setattr(selmer, "_MEMO_CAP", 50)
        _context.cache_clear()
        assert _scan(pair, 5000) == want
        assert len(_context(pair).memo) == 50

    def test_split_table_stops_growing_at_the_cap(self, monkeypatch):
        # past the cap a prime with s = s' = 1 has its symbols computed and
        # not stored; they are the same interned tuple, so the bytes do not move
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        _context.cache_clear()
        want = _scan(pair, 5000)
        rows = [descend(pair, d) for d in range(-300, 300) if d]
        full = len(_context(pair).split_syms)
        monkeypatch.setattr(selmer, "_MEMO_CAP", 40)
        _context.cache_clear()
        assert _scan(pair, 5000) == want
        assert full > 40 and len(_context(pair).split_syms) == 40
        assert [descend(pair, d) for d in range(-300, 300) if d] == rows
        assert len(_context(pair).split_syms) == 40

    @pytest.mark.parametrize("a, b", CURVES_20)
    def test_symbols_by_residue_are_those_of_the_prime(self, a, b):
        # s, s', the fixed-column mask and the unit bits, read by residue,
        # against each good prime's own Legendre symbols and local bits
        from twistselmer.arith import sqrt_mod_prime
        from twistselmer.selmer import _local_bits

        pair = make_pair(a, b)
        ctx = _CurveContext(pair)
        for p in (p for p in sieve_primes(3000) if p not in pair.bad_primes):
            s, sp = kronecker(pair.b_dual, p), kronecker(pair.b, p)
            kb_phi = kb_dual = 0
            if s == sp == 1:
                kb_phi = kronecker(a + 2 * sqrt_mod_prime(pair.b, p), p) == -1
                kb_dual = kronecker(-2 * a + 2 * sqrt_mod_prime(pair.b_dual, p), p) == -1
            fixed = sum((kronecker(g, p) == -1) << i for i, g in enumerate((-1, *pair.bad_primes)))
            units = tuple(i for (q, k), i in ctx.unit_bit.items() if _local_bits(p, q) >> k & 1)
            sym = ctx.residue_syms[p % ctx.modulus] or ctx.split_syms[p]
            assert sym[:6] == (s, sp, kb_phi, kb_dual, fixed, units), (a, b, p)


def _direct_text(pair, X):
    """The twists.csv rows of every squarefree 0 < |d| < X from the kernel's
    rows, _rows on the signature of each |d| in a fresh context, with no memo."""
    ctx = _CurveContext(pair)
    return "".join(
        f"{d},{g_chi},{correction},{product},{sel},{sel_dual},{product - 2}\n"
        for ad, primes in squarefree_factors(1, X)
        for d, (sel, sel_dual, product, _, g_chi, correction) in zip(
            (ad, -ad), _rows(ctx, ad, *_signature(ctx, ad, primes))
        )
    )


def _memo_text(pair, X):
    """The twists.csv text of the scan's chunk function over [1, X) from an
    empty memo, and the context it filled; unlike scan_twists it takes
    ineligible pairs too."""
    import twistselmer.selmer as selmer

    _context.cache_clear()
    text = selmer._scan_chunk(pair.a, pair.b, (1, X))[0]
    return text, _context(pair)


class TestMemo:
    @pytest.mark.parametrize("a, b", sorted(set(CURVES_20) | set(PARITY_CURVES)))
    def test_memo_rows_are_the_kernel_rows(self, a, b):
        pair = make_pair(a, b)
        text, ctx = _memo_text(pair, 10**4)
        assert text == _direct_text(pair, 10**4)
        assert len(ctx.memo) < squarefree_flags(1, 10**4).count(1) // 2  # most |d| were hits

    def test_memo_rows_are_the_kernel_rows_below_1e5(self):
        pair = make_pair(1, -1)
        text, ctx = _memo_text(pair, 10**5)
        assert text == _direct_text(pair, 10**5)
        assert len(ctx.memo) < squarefree_flags(1, 10**5).count(1) // 5

    @pytest.mark.parametrize("a, b", sorted(set(CURVES_20) | set(PARITY_CURVES)))
    def test_audit_report_does_not_depend_on_the_memo(self, a, b, monkeypatch):
        import twistselmer.selmer as selmer

        pair = make_pair(a, b)
        memoized = audit_curve(pair, 3000)
        monkeypatch.setattr(selmer, "_MEMO_CAP", 0)
        assert audit_curve(pair, 3000) == memoized

    def test_audit_runs_the_kernel_once_per_signature(self, monkeypatch):
        # every other |d| of the audit is a memo hit
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        fresh = _CurveContext(pair)
        signatures = {_signature(fresh, ad, primes)[0] for ad, primes in squarefree_factors(1, 10**4)}
        calls = []
        real = selmer._rows

        def record(ctx, ad, key, good, syms):
            calls.append((ctx, key))
            return real(ctx, ad, key, good, syms)

        monkeypatch.setattr(selmer, "_rows", record)
        _context.cache_clear()  # a sample on the cached context would run the kernel there
        assert audit_curve(pair, 10**4)["ok"]
        # the twist-class sample reads the audit's own context too; last, it
        # runs the kernel past the memo on its 4 * 3 values of d*k^2
        assert len({id(ctx) for ctx, _ in calls}) == 1
        audited = [key for _, key in calls[:-12]]
        assert len(audited) == len(set(audited)) == len(signatures) == 1167
        assert set(audited) == signatures
        assert len(calls) == 1167 + 12 and {key for _, key in calls[-12:]} <= signatures

    @pytest.mark.parametrize("a, b", PARITY_CURVES)
    def test_bad_prime_classes_are_a_function_of_the_key(self, a, b):
        # the key holds one valuation bit per bad prime; the unit bits of |d|
        # there come from its bad primes and its good primes' symbol tuples
        from twistselmer.selmer import _local_bits

        pair = make_pair(a, b)
        ctx = _CurveContext(pair)
        seen = {}
        for ad, primes in squarefree_factors(1, 2 * 10**4):
            classes = tuple(_local_bits(ad, q) for q in pair.bad_primes)
            assert seen.setdefault(_signature(ctx, ad, primes)[0], classes) == classes, ad
        assert len(seen) < squarefree_flags(1, 2 * 10**4).count(1) // 2

    def test_signature_fixes_the_rows(self):
        # twists with one signature have one pair of rows, up to d
        pair = make_pair(-1, 3)
        ctx = _CurveContext(pair)
        seen = {}
        for ad, primes in squarefree_factors(1, 5000):
            signature = _signature(ctx, ad, primes)
            rows = _rows(ctx, ad, *signature)  # the kernel itself: _descend_abs would read the memo
            assert seen.setdefault(signature[0], rows) == rows, ad
        assert len(seen) < squarefree_flags(1, 5000).count(1) // 2

    def test_every_hit_is_checked_with_its_own_d(self, monkeypatch):
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        text, ctx = _memo_text(pair, 2000)
        checked = []

        def record(row):
            checked.append(row[0])
            _check_identities(row)

        monkeypatch.setattr(selmer, "_check_identities", record)
        assert _scan(pair, 2000)[0] == text  # every |d| is a hit now
        assert checked == [int(line.split(",")[0]) for line in text.splitlines()]

    def test_failed_check_on_a_hit_names_its_d(self, monkeypatch):
        # the memo holds the rows of an earlier |d| with the same signature;
        # a check patched to fail on -|d| still fires there, and the kernel reruns
        import twistselmer.selmer as selmer

        pair = make_pair(1, -1)
        _context.cache_clear()
        ctx = _context(pair)
        first = {}  # signature -> the first |d| that has it
        for ad, primes in squarefree_factors(1, 2000):
            key = _signature(ctx, ad, primes)[0]
            if first.setdefault(key, ad) != ad and len(primes) == 3 and not set(primes) & {2, 5}:
                break
        assert (ad, primes, first[key]) == (1407, (3, 7, 67), 903)  # 1407 has the signature of 903 = 3 * 7 * 43

        def fail_at_minus_1407(row):
            if row[0] == -ad:
                raise DescentConsistencyError("forced", "ord2-decomposition", row[0])
            _check_identities(row)

        monkeypatch.setattr(selmer, "_check_identities", fail_at_minus_1407)
        with pytest.raises(DescentConsistencyError) as info:
            _scan(pair, 2000)
        assert (info.value.check, info.value.d) == ("ord2-decomposition", -ad)
        # the error comes from the kernel, so it carries the dims of -1407
        assert list(info.value.dims) == [REAL_PLACE, 2, 5, 3, 7, 67]
        assert len(ctx.memo) == len({key for key, n in first.items() if n < ad})  # nothing stored at or after it
