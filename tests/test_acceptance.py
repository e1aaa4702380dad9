"""Acceptance suite: one test per criterion, each printing a PASS/WARN line.

Hard criteria assert; criteria the project brief marks as soft (moment
ratio brackets, KS trend, tail-fraction trend, the normalized-gap
threshold) print WARN instead of failing when the measured value leaves
the stated band, and always report the measured value.
"""

import math
import warnings
from collections import Counter

from twistselmer import quadfield as qf
from twistselmer.arith import kronecker, sieve_primes, squarefree_flags
from twistselmer.ekstats import (
    distribution_report,
    empirical_moment,
    moment_constant,
    sigma_g_predicted,
    tail_fraction,
)
from twistselmer.selmer import audit_curve, descend, make_pair

# reference sums that no command computes, each tested in its own module
from test_ekstats import mainterm_G, mertens_char_sum, omega
from test_selmer import g_chi_of_twist

ACCEPTANCE_CURVES = [(1, -1), (0, 4), (-1, 3), (3, 2), (0, -2)]
AUDIT_X = 10**4

_audit_reports = {}


def _audit(a, b):
    if (a, b) not in _audit_reports:
        _audit_reports[(a, b)] = audit_curve(make_pair(a, b), AUDIT_X)
    return _audit_reports[(a, b)]


def _eligible_curves():
    return [(a, b) for a, b in ACCEPTANCE_CURVES if make_pair(a, b).eligible]


def _soft(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'WARN (soft)'} - {detail}"
    print(line)
    if not ok:
        warnings.warn(line, stacklevel=2)


class TestCriterion1ProductFormula:
    def test_product_formula_exact(self):
        curves = _eligible_curves()
        assert (3, 2) not in curves  # full rational two-torsion: excluded
        total = 0
        for a, b in curves:
            report = _audit(a, b)
            bad = [f for f in report["failures"] if f["check"] in ("product-formula", "local-image")]
            assert not bad, bad[:3]
            total += report["n_twists"]
        print(
            f"ACCEPTANCE 1: PASS - dim Sel_phi - dim Sel_phihat = sum_v(dim-1) exactly on "
            f"{total} twists across {len(curves)} eligible curves, |d| < {AUDIT_X}"
        )


class TestCriterion2Decomposition:
    def test_ord2_decomposition_and_correction_count(self):
        for a, b in _eligible_curves():
            report = _audit(a, b)
            bad = [f for f in report["failures"] if f["check"] == "ord2-decomposition"]
            assert not bad, bad[:3]
            assert report["n_corrections"] <= report["correction_bound"], (a, b)
        details = ", ".join(
            f"({a},{b}): {_audit(a, b)['n_corrections']} values <= {_audit(a, b)['correction_bound']}"
            for a, b in _eligible_curves()
        )
        print(f"ACCEPTANCE 2: PASS - ord2T = g + correction exact; distinct corrections {details}")


class TestCriterion3CrossOracle:
    def test_symbol_table_equals_torsor(self):
        total = 0
        for a, b in _eligible_curves():
            report = _audit(a, b)
            bad = [f for f in report["failures"] if f["check"] == "good-ramified-cross-oracle"]
            assert not bad, bad[:3]
            assert report["n_cross_checks"] > 0
            total += report["n_cross_checks"]
        print(
            f"ACCEPTANCE 3: PASS - Legendre table = torsor dimension at every good odd "
            f"ramified prime class encountered ({total} distinct checks)"
        )


class TestCriterion4SquarefreeIdealCounts:
    SPLIT_PRIMES = {-1: (5, 13), -5: (3, 7), 2: (7, 17)}

    def test_normalized_gaps(self):
        worst = 0.0
        worst_at = None
        for m, (p1, p2) in self.SPLIT_PRIMES.items():
            K = qf.make_field(m)
            P1 = qf.split_prime(K, p1)[0]
            P2 = qf.split_prime(K, p2)[0]
            q_options = [qf.ONE_IDEAL, qf.make_ideal([(P1, 1)]), qf.make_ideal([(P1, 1), (P2, 1)])]
            for q in q_options:
                divisors = [qf.ONE_IDEAL]
                qps = [P for P, _ in q.factorization]
                for i, P in enumerate(qps):
                    divisors += [qf.make_ideal(list(d.factorization) + [(P, 1)]) for d in list(divisors)]
                for d in divisors:
                    for X in (10**3, 10**4, 10**5):
                        main = qf.mainterm_sf(K, X, q, d)
                        for cnt in qf.count_sf(K, X, q, d):
                            gap = abs(cnt - main) / (math.sqrt(X) * 3 ** len(q.factorization))
                            if gap > worst:
                                worst, worst_at = gap, (m, q.norm, d.norm, X)
        ok = worst <= 5.0
        _soft("4", ok, f"max normalized squarefree-count gap {worst:.3f} at {worst_at} (threshold 5)")
        assert worst <= 5.0  # the brief labels 5 a soft threshold; it holds comfortably


class TestCriterion5Moments:
    def test_hard_moment_constants(self):
        assert moment_constant(2) == 1
        assert moment_constant(4) == 3
        assert moment_constant(6) == 15

    def test_moment_ratios_at_million(self):
        X = 10**6
        om = omega(X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = {k: empirical_moment(om, X, k, None) for k in (1, 2, 3, 4)}
        for k in (1, 3):
            rep = reports[k]
            assert abs(rep.empirical) <= 10 * rep.predicted, (k, rep)
        brackets = {2: (0.85, 1.15), 4: (0.7, 1.4)}
        for k, (lo, hi) in brackets.items():
            rep = reports[k]
            # diagnostic: same empirical moment against the exact finite main
            # term (the sum of G(p^2) over p < z) instead of sigma_f(z)^2
            exact_var = sum(
                mainterm_G(om, [(p, 2)]) for p in sieve_primes(max(3, int(rep.z) + 1)) if p < rep.z
            )
            alt = rep.empirical / (moment_constant(k) * exact_var ** (k / 2))
            ok = lo <= rep.ratio <= hi
            _soft(
                f"5(k={k})",
                ok,
                f"ratio {rep.ratio:.4f} vs [{lo}, {hi}] at z={rep.z:.1f} "
                f"(k inside uniform range: {rep.within_uniform_range}; "
                f"against the exact finite main term the ratio is {alt:.4f})",
            )
        print("ACCEPTANCE 5: PASS - moment constants exact; odd-k bounds hold; even-k brackets reported above")


class TestCriterion6KsTrend:
    def test_ks_nonincreasing(self, scan_million):
        ks = {}
        for X in (10**4, 10**5, 10**6):
            vals = scan_million.ord2t_values(X)
            rep = distribution_report(vals, (float(vals.mean()), sigma_g_predicted(X)), X=X)
            ks[X] = rep.ks
        trend_ok = ks[10**4] >= ks[10**5] >= ks[10**6]
        level_ok = ks[10**6] <= 0.25
        _soft(
            "6",
            trend_ok and level_ok,
            f"KS = {ks[10**4]:.5f} -> {ks[10**5]:.5f} -> {ks[10**6]:.5f} "
            f"(nonincreasing: {trend_ok}, <= 0.25 at 1e6: {level_ok})",
        )


class TestCriterion7TailTrend:
    def test_tail_fractions_increase(self, scan_million):
        hists = {X: Counter(scan_million.ord2t_values(X).tolist()) for X in (10**4, 10**6)}
        fr = {X: (tail_fraction(hist, 1), tail_fraction(hist, 2)) for X, hist in hists.items()}
        ok = fr[10**6][0] > fr[10**4][0] and fr[10**6][1] > fr[10**4][1]
        _soft(
            "7",
            ok,
            f"tail(r=1): {fr[10**4][0]:.5f} -> {fr[10**6][0]:.5f}; "
            f"tail(r=2): {fr[10**4][1]:.5f} -> {fr[10**6][1]:.5f}",
        )


class TestCriterion8MertensBoundedness:
    def test_deviation_bounded_by_initial(self):
        grid = [10**j for j in range(3, 8)]
        lines = []
        for c in (5, -1, -6):
            devs = [abs(mertens_char_sum("Q", c, X) - math.log(math.log(X))) for X in grid]
            threshold = devs[0] + 1.0
            assert max(devs) <= threshold, (c, devs)
            lines.append(f"c={c}: sup {max(devs):.3f} <= {threshold:.3f}")
        print(f"ACCEPTANCE 8: PASS - {'; '.join(lines)}")


class TestCriterion9AnalyticConstants:
    def test_zeta_residue_gaussian(self):
        assert abs(qf.zeta_residue(qf.make_field(-1)) - math.pi / 4) < 1e-6

    def test_class_number_m_minus5(self):
        assert qf.make_field(-5).class_number == 2

    def test_character_count_density(self):
        X = 10**6
        count = 2 * squarefree_flags(1, X).count(1)  # |C(Q, X)|: the signed squarefree 0 < |d| < X
        ratio = count / (2 * X * 6 / math.pi**2)
        assert 0.995 <= ratio <= 1.005
        print(
            f"ACCEPTANCE 9: PASS - res zeta_Q(i) = pi/4 (1e-6), h(Q(sqrt(-5))) = 2, "
            f"|C(Q,1e6)| / (2X * 6/pi^2) = {ratio:.6f}"
        )


class TestCriterion10InvariantSuites:
    def test_compact_invariant_rerun(self, tmp_path):
        # kronecker reciprocity
        odd_primes = [p for p in sieve_primes(200) if p > 2]
        import random

        rng = random.Random(47)
        for _ in range(500):
            p, q = rng.choice(odd_primes), rng.choice(odd_primes)
            if p != q:
                assert kronecker(p, q) * kronecker(q, p) == (-1) ** ((p - 1) * (q - 1) // 4)
        # subgroup closure of local images (checked inside every cached local
        # image; recheck via a fresh descent over all bad places)
        for a, b in _eligible_curves():
            descend(make_pair(a, b), -30)
        # g additivity
        pair = make_pair(1, -1)
        for d1, d2 in ((3, 7), (11, 13), (17, 19), (7, 11)):
            assert g_chi_of_twist(pair, d1 * d2) == g_chi_of_twist(pair, d1) + g_chi_of_twist(pair, d2)
        # twist-class invariance
        for d in (7, -15):
            assert descend(pair, d) == descend(pair, d * 9)
        # byte determinism of outputs
        from twistselmer.cli import main as cli_main

        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        cli_main(["scan", "--a", "1", "--b", "-1", "--X", "50", "--out", str(a_dir)])
        cli_main(["scan", "--a", "1", "--b", "-1", "--X", "50", "--out", str(b_dir)])
        assert (a_dir / "twists.csv").read_bytes() == (b_dir / "twists.csv").read_bytes()
        assert (a_dir / "summary.json").read_bytes() == (b_dir / "summary.json").read_bytes()
        print("ACCEPTANCE 10: PASS - reciprocity, closure, additivity, twist-class invariance, determinism")
