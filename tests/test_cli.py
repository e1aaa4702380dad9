import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import twistselmer
from twistselmer.cli import main

# the ideal of a walk entry's prime indices, as the quadfield tests rebuild it
from test_quadfield import ideal_of

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())


def run(argv):
    return main(argv)


class TestScan:
    def test_small_scan(self, tmp_path):
        out = tmp_path / "s"
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "10", "--out", str(out)]) == 0
        lines = (out / "twists.csv").read_text().splitlines()
        assert lines[0] == "d,g_chi,correction,ord2T,dim_selphi,dim_selphihat,d2_lower_bound"
        assert len(lines) == 13  # header + 12 twists
        # row for d = 1 has g_chi = 0
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"

    def test_rows_satisfy_decomposition(self, tmp_path):
        out = tmp_path / "s"
        run(["scan", "--a", "-1", "--b", "3", "--X", "50", "--out", str(out)])
        for line in (out / "twists.csv").read_text().splitlines()[1:]:
            d, g, corr, ord2t, dphi, dhat, bound = (int(t) for t in line.split(","))
            assert ord2t == g + corr
            assert ord2t == dphi - dhat
            assert bound == ord2t - 2

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "s"
        run(["scan", "--a", "1", "--b", "-1", "--X", "30", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["curve"] == {"a": 1, "b": -1}
        assert sum(summary["ord2T_counts"].values()) == summary["n_twists"]
        assert set(summary["tail_fractions"]) == {"1", "2"}

    def test_rejects_ineligible(self, tmp_path):
        assert run(["scan", "--a", "6", "--b", "5", "--X", "10", "--out", str(tmp_path)]) == 2

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["scan", "--a", "0", "--b", "-2", "--X", "40", "--out", str(a)])
        run(["scan", "--a", "0", "--b", "-2", "--X", "40", "--out", str(b)])
        assert (a / "twists.csv").read_bytes() == (b / "twists.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_uncreatable_out_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "10", "--out", str(blocker / "s")]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_workers_agree(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["scan", "--a", "1", "--b", "-1", "--X", "60", "--out", str(a)])
        run(["scan", "--a", "1", "--b", "-1", "--X", "60", "--workers", "2", "--out", str(b)])
        assert (a / "twists.csv").read_bytes() == (b / "twists.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_benchmark_scan_bytes(self, tmp_path, workers):
        # X = 5e4 is 9 chunks serially and 17 with two workers
        out = tmp_path / "s"
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "50000", "--workers", workers, "--out", str(out)]) == 0
        for name, digest in EXPECTED["scan"]["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_rejects_no_workers(self, tmp_path, capsys, workers):
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "10", "--workers", workers, "--out", str(tmp_path)]) == 2
        assert "workers" in capsys.readouterr().err

    def test_failed_check_exits_1_without_partial_output(self, tmp_path, capsys, monkeypatch):
        import twistselmer.selmer as selmer

        real = selmer._check_identities

        def fail_at_minus_15(row):
            if row[0] == -15:
                raise selmer.DescentConsistencyError("forced", "product-formula", -15)
            real(row)

        selmer._context.cache_clear()  # no memo from an earlier scan: -15 is computed by the kernel
        monkeypatch.setattr(selmer, "_check_identities", fail_at_minus_15)
        out = tmp_path / "s"
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "40", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "product-formula" in err[0] and "d=-15" in err[0]
        assert list(out.iterdir()) == []


    def test_failed_check_in_a_pool_worker_exits_1_without_partial_output(self, tmp_path, capsys, monkeypatch):
        import multiprocessing

        import twistselmer.selmer as selmer

        real = selmer._check_identities

        def fail_at_minus_201(row):
            if row[0] == -201:
                raise selmer.DescentConsistencyError("forced", "ord2-decomposition", -201)
            real(row)

        # forked workers inherit the patched check; -201 lies in the fourth of five chunks
        fork = multiprocessing.get_context("fork")
        pools = []

        def fork_pool(processes):
            pools.append(processes)
            return fork.Pool(processes)

        selmer._context.cache_clear()  # the workers fork with no memo from an earlier scan
        monkeypatch.setattr(selmer, "_check_identities", fail_at_minus_201)
        monkeypatch.setattr(selmer, "_available_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", fork_pool)
        out = tmp_path / "s"
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "300", "--workers", "2", "--out", str(out)]) == 1
        assert pools == [2]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "ord2-decomposition" in err[0] and "d=-201" in err[0]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("a, b", [(0, 4), (-1, 3), (7, -11)])
    def test_rows_are_the_library_results(self, tmp_path, monkeypatch, a, b):
        # the chunks' rows against descend on every squarefree 0 < |d| < 300, formatted
        # here; X = 300 is five chunks, serially and with two workers
        import twistselmer.selmer as selmer
        from twistselmer.arith import squarefree_part

        monkeypatch.setattr(selmer, "_available_cpus", lambda: 2)
        pair = selmer.make_pair(a, b)
        results = [selmer.descend(pair, d) for ad in range(1, 300) if squarefree_part(ad) == ad for d in (ad, -ad)]
        rows = [
            f"{r.d},{r.g_chi},{r.correction},{r.ord2T_product},{r.dim_selphi},{r.dim_selphihat},{r.ord2T_product - 2}"
            for r in results
        ]
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert run(["scan", "--a", str(a), "--b", str(b), "--X", "300", "--workers", workers, "--out", str(out)]) == 0
            assert (out / "twists.csv").read_text().splitlines()[1:] == rows, workers

    def test_workers_beyond_the_cpus_are_not_started(self, tmp_path, monkeypatch, inline_pool):
        import twistselmer.selmer as selmer

        monkeypatch.setattr(selmer, "_available_cpus", lambda: 2)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "3000", "--out", str(a)]) == 0
        assert run(["scan", "--a", "1", "--b", "-1", "--X", "3000", "--workers", "500", "--out", str(b)]) == 0
        assert [processes for processes, _ in inline_pool] == [2]
        for name in ("twists.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

class TestEk:
    def test_omega_outputs(self, tmp_path):
        out = tmp_path / "ek"
        assert run(["ek", "--f", "omega", "--X", "2000", "--k", "2", "--out", str(out)]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["schema_version"] == 1
        assert moments["moments"][0]["k"] == 2
        assert "ratio" in moments["moments"][0]
        lines = (out / "cdf.csv").read_text().splitlines()
        assert lines[0] == "grid,empirical,gaussian"
        assert len(lines) > 3

    @pytest.mark.parametrize("args", [["--field", "-5", "--X", "200"], ["--X", "3", "--k", "2"]])
    def test_zero_prediction_writes_null_ratio(self, tmp_path, args):
        # the cutoff z = X^(1/(2k)) lies below every prime norm for some k,
        # so the prediction is 0; strict JSON has no token for its ratio
        out = tmp_path / "ek"
        assert run(["ek", *args, "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        moments = json.loads((out / "moments.json").read_text(), parse_constant=reject)["moments"]
        assert any(m["ratio"] is None for m in moments)
        assert all((m["ratio"] is None) == (m["predicted"] == 0) for m in moments)

    def test_svg_schema(self, tmp_path):
        out = tmp_path / "ek"
        run(["ek", "--f", "omega", "--X", "1000", "--k", "2", "--out", str(out)])
        tree = ET.parse(out / "cdf.svg")
        polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2
        assert "script" not in (out / "cdf.svg").read_text()

    def test_curve_g_rejects_ineligible(self, tmp_path, capsys):
        # a^2 - 4b = 9: the same message and exit as scan, and no files
        out = tmp_path / "e"
        assert run(["ek", "--f", "curve-g", "--a", "5", "--b", "4", "--X", "1000", "--out", str(out)]) == 2
        assert run(["scan", "--a", "5", "--b", "4", "--X", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1] and "ineligible" in err[0]
        assert not out.exists() or not any(out.iterdir())

    def test_curve_g(self, tmp_path):
        out = tmp_path / "ekg"
        assert run(["ek", "--f", "curve-g", "--a", "1", "--b", "-1", "--X", "500", "--out", str(out)]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["moments"] == []
        assert (out / "cdf.svg").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_curve_g_rejects_a_field(self, tmp_path, capsys, source):
        # curve-g is a statistic over Q: a field other than Q exits 2 and writes nothing
        out = tmp_path / "ekg"
        argv = ["ek", "--f", "curve-g", "--a", "1", "--b", "-1", "--X", "1000", "--out", str(out)]
        if source == "flag":
            argv += ["--field", "-5"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("field_m = -5\n")
            argv = ["--config", str(cfg), *argv]
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--field" in err[0], err
        assert not out.exists()
        cfg = tmp_path / "q.cfg"
        cfg.write_text("field_m = Q\n")
        assert run(["--config", str(cfg), "ek", "--f", "curve-g", "--field", "Q", "--X", "1000", "--out", str(out)]) == 0

    def test_curve_g_bytes(self, tmp_path):
        # the files as written when g was computed from a factorization of each signed d
        digests = {
            "cdf.csv": "dd4b1f65801279bcb73a8175492e80a49fb8ef97b0bba5fab1cef9b5de79ae4d",
            "cdf.svg": "dc669035abf04d564589779f656467c51d3b02c0a6b0100cd51cb5650c43f8bb",
            "moments.json": "7a56167777f190259d1559424dcbb99b3401c280782c3c950c41468deb9e0271",
        }
        out = tmp_path / "ekg"
        assert run(["ek", "--f", "curve-g", "--a", "1", "--b", "-1", "--X", "2000", "--out", str(out)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_benchmark_field_bytes(self, tmp_path):
        out = tmp_path / "ekf"
        assert run(["ek", "--f", "omega", "--field", "-5", "--X", "50000", "--k", "2", "--out", str(out)]) == 0
        for name, digest in EXPECTED["ek-field"]["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize(
        "m, digests",
        [
            (
                "-23",
                {
                    "cdf.csv": "4e11bc0d9789b9935c82c43fbd600207214ac9aa2635a7d01528f015f6c57bfe",
                    "cdf.svg": "9516eb50c65425b08cdd2ad550d5e783242a859aba6e81534afa7bba09292072",
                    "moments.json": "bcf078c6e9d91a66d98a69d4d91081e70e133d883995d146d2cb169f9d7342fb",
                },
            ),
            (
                "10",
                {
                    "cdf.csv": "c94b06b7cff8da38a270e9394267da0320927817ed91b1e28e4b5be96364cb00",
                    "cdf.svg": "858c3623f2b0139ebb5517a9600deb8d3cc58a0dca875e23b04890592ccd2e66",
                    "moments.json": "a5fc9023f9266f64010762b6af5f34744e004bcce1a32b7951fa3b47a6805a7f",
                },
            ),
            # h = 2 with a fundamental unit of norm +1, written when classes came from the norm-form search
            (
                "34",
                {
                    "cdf.csv": "6a3ad7fb94073791b34f4469b228e4be6b6daedb12b373893ed7d9ef5539a588",
                    "cdf.svg": "beb434efeb5729a0a4562bbd6add7c7a98bad99b7bd762904fb9a976ed843c8a",
                    "moments.json": "666b994f761cb8714148f5f70827a87f31f4682b8a7403fcaf94bd0c62c7aac8",
                },
            ),
        ],
        ids=["-23", "10", "34"],
    )
    def test_field_bytes(self, tmp_path, m, digests):
        # the files as written when each field type had its own principality search
        out = tmp_path / "ekf"
        assert run(["ek", "--f", "omega", "--field", m, "--X", "20000", "--k", "2", "--out", str(out)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("flag, value", [("--k", "2,x"), ("--field", "x")])
    def test_bad_value_names_the_flag(self, tmp_path, capsys, flag, value):
        assert run(["ek", flag, value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected " in err and f"not '{value}'" in err
        assert "_parse" not in err

    @pytest.mark.parametrize(
        "args",
        [["--X", "2"], ["--field", "-1", "--X", "2"], ["--field", "5", "--X", "4"], ["--f", "curve-g", "--X", "2"]],
        ids=["Q", "-1", "5", "curve-g"],
    )
    def test_no_prime_below_x_names_the_flag(self, tmp_path, capsys, args):
        # no prime has norm below X (in Q(sqrt(5)), 2 and 3 are inert): exit 2, no files
        out = tmp_path / "ek"
        assert run(["ek", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--X" in err[0], err
        assert not out.exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["ek", "--f", "omega", "--X", "1500", "--k", "2,4", "--out", str(a)])
        run(["ek", "--f", "omega", "--X", "1500", "--k", "2,4", "--out", str(b)])
        for name in ("moments.json", "cdf.csv", "cdf.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestIdealCount:
    def test_partition_over_classes(self, tmp_path):
        out = tmp_path / "ic"
        assert run(["ideal-count", "--m", "-5", "--X", "500", "--q", "3:0", "--d", "3:0", "--out", str(out)]) == 0
        lines = (out / "sfcount.csv").read_text().splitlines()
        assert lines[0] == "X,class,q,d,brute_count,main_term,gap,normalized_gap"
        assert len(lines) == 3  # two classes for m = -5
        counts = [int(line.split(",")[4]) for line in lines[1:]]
        # partition: sum over classes = unconstrained count with the same gcd condition
        from twistselmer import quadfield as qf

        K = qf.make_field(-5)
        P3 = qf.split_prime(K, 3)[0]
        ideals = [ideal_of(K, 500, key) for _, key, _ in qf.squarefree_ideals_up_to(K, 500)]
        brute = sum(1 for a in ideals if {P for P, _ in a.factorization} & {P3} == {P3})
        assert sum(counts) == brute

    def test_normalized_gap_small(self, tmp_path):
        out = tmp_path / "ic"
        run(["ideal-count", "--m", "-1", "--X", "20000", "--out", str(out)])
        line = (out / "sfcount.csv").read_text().splitlines()[1]
        norm_gap = float(line.split(",")[-1])
        assert abs(norm_gap) <= 5.0

    def test_benchmark_bytes(self, tmp_path):
        out = tmp_path / "ic"
        args = ["ideal-count", "--m", "-5", "--X", "100000", "--q", "3:0,7:0", "--d", "3:0"]
        assert run(args + ["--out", str(out)]) == 0
        for name, digest in EXPECTED["ideal-count"]["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize(
        "args, digest",
        [
            # h = 3, real
            (
                ["--m", "79", "--X", "4000", "--q", "3:1", "--d", "3:1"],
                "c1e7e706189ee4121ef8a9fd418ceab8cd654b25a7c345d562ad2b5ec7573d98",
            ),
            # h = 4, imaginary with m = 2 mod 4
            (
                ["--m", "-14", "--X", "20000", "--q", "3:1"],
                "7854b35d962384f7ce9263e02919bb82811c5a00e71effeca55f79138a3053e4",
            ),
            # h = 2, real, with a fundamental unit of norm +1, written when classes came from the norm-form search
            (
                ["--m", "34", "--X", "20000", "--q", "3:0", "--d", "3:0"],
                "7d206575f9d1cd20fdf41cb561df0cb4f39e2f3abc298af701be78b57150aee0",
            ),
            # h = 1, real, with a fundamental unit of norm -1 whose coordinates pass 10^7
            (
                ["--m", "241", "--X", "3000"],
                "3557df8e6c6550d8464694e25d6303bdcf0ed4f5c9103c190c261fdeae806fd3",
            ),
            # h = 2, real, with a fundamental unit of norm +1 whose coordinates pass 10^7
            (
                ["--m", "319", "--X", "3000", "--q", "3:0", "--d", "3:0"],
                "c500d5f35399343f2d728876a280301d120f18653eb974c435063de355eafe0a",
            ),
        ],
        ids=["79", "-14", "34", "241", "319"],
    )
    def test_sfcount_bytes(self, tmp_path, args, digest):
        # the files as written when each field type had its own principality
        # search; 241 and 319 as written when their units were first admitted
        out = tmp_path / "ic"
        assert run(["ideal-count", *args, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "sfcount.csv").read_bytes()).hexdigest() == digest

    def test_missing_m_exits_2(self, tmp_path, capsys):
        # ek's default field 'Q' is not ideal-count's
        assert run(["ideal-count", "--X", "100", "--out", str(tmp_path / "ic")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--m" in err[0]
        assert not (tmp_path / "ic").exists()

    def test_field_cap_violation(self, tmp_path):
        assert run(["ideal-count", "--m", "-10007", "--X", "100", "--out", str(tmp_path)]) == 2

    def test_huge_field_exits_2_at_once(self, tmp_path, capsys):
        # the cap is checked before m is factored: a 19-digit m is refused, not factored
        t0 = time.perf_counter()
        assert run(["ideal-count", "--m", "1000000000000000003", "--out", str(tmp_path / "ic")]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert "exceeds the cap" in capsys.readouterr().err
        t0 = time.perf_counter()
        assert run(["ek", "--field", "1000000000000000003", "--out", str(tmp_path / "ek")]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert "exceeds the cap" in capsys.readouterr().err

    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 3317044064679887385961981 is past the range where Miller-Rabin to the bases up to 41 is proven
    @pytest.mark.parametrize("spec", ["4:0", "1:0", "9:0", "0:0", "3:-1", "3215031751:0", "3317044064679887385961981:0"])
    def test_rejects_bad_ideal_spec(self, tmp_path, capsys, spec):
        # p must be a rational prime and the conjugate index >= 0
        out = tmp_path / "ic"
        assert run(["ideal-count", "--m", "-5", "--X", "100", "--q", spec, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and spec in err[0]
        assert not out.exists()

    def test_large_spec_prime(self, tmp_path):
        # a 19-digit prime is tested by Miller-Rabin, not trial division
        out = tmp_path / "ic"
        t0 = time.perf_counter()
        assert run(["ideal-count", "--m", "-5", "--X", "100", "--q", "1000000000000000003:0", "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 2.0
        assert len((out / "sfcount.csv").read_text().splitlines()) == 3  # h + 1 lines

    def test_bad_token_is_named(self, tmp_path, capsys):
        out = tmp_path / "ic"
        assert run(["ideal-count", "--m", "-5", "--X", "100", "--q", "3:0,3:x", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("ideal spec '3:x': invalid literal for int() with base 10: 'x'")
        assert not out.exists()


class TestAudit:
    def test_pass(self):
        assert run(["audit", "--a", "1", "--b", "-1", "--X", "200"]) == 0

    def test_smallest_range(self, capsys):
        # X = 2 leaves d = +-1 and no twist for the twist-class sample
        assert run(["audit", "--a", "1", "--b", "-1", "--X", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["n_twists"] == 2

    def test_singular_configuration(self, capsys):
        # the one exit-2 path of every command: one error line on stderr, no report
        assert run(["audit", "--a", "0", "--b", "0", "--X", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: (a, b) = (0, 0) gives a singular curve\n"

    def test_b_without_small_prime_factor_exits_2(self, capsys):
        # (10^9 + 7)(10^9 + 9) has no prime factor up to 10^6 and is no prime:
        # factorize refuses it instead of trial-dividing to 10^9
        t0 = time.perf_counter()
        assert run(["audit", "--a", "0", "--b", str((10**9 + 7) * (10**9 + 9)), "--X", "100"]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == "" and "is not prime" in captured.err

    def test_fault_injection(self, capsys):
        assert run(["audit", "--a", "1", "--b", "-1", "--X", "60", "--inject-fault"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is False and record["failures"]
        # the dims at 2 read 2 where the corrupted table entry is used
        assert record["failures"][0]["dims"] == {"oo": 0, "2": 2, "5": 2}
        assert all({"oo", "2", "5"} <= set(f["dims"]) for f in record["failures"])


def test_scan_and_audit_never_import_numpy(tmp_path):
    # each command in a child interpreter of its own loads only the modules it runs
    loads = {
        "audit": ["twistselmer", "twistselmer.arith", "twistselmer.cli", "twistselmer.selmer"],
        "scan": ["twistselmer", "twistselmer.arith", "twistselmer.cli", "twistselmer.ekstats", "twistselmer.selmer"],
    }
    for command, modules in loads.items():
        argv = [command, "--a", "1", "--b", "-1", "--X", "200"] + (["--out", str(tmp_path)] if command == "scan" else [])
        code = f"""
import sys
from twistselmer import cli
assert cli.main({argv!r}) == 0
print("loaded:", [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules])
print("modules:", sorted(m for m in sys.modules if m.split(".")[0] == "twistselmer"))
"""
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["loaded: []", f"modules: {modules}"], command


def _src_env() -> dict:
    """The environment of a child interpreter that imports this twistselmer."""
    src = str(Path(twistselmer.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("field, loads_numpy", [("-5", False), ("Q", True)])
def test_ek_imports_numpy_only_over_q(tmp_path, field, loads_numpy):
    # the import log of the whole process, as the CI step reads it; over Q
    # the prime sums are numpy arrays, which shows the log names numpy
    argv = ["-X", "importtime", "-m", "twistselmer.cli", "ek", "--f", "omega", "--field", field, "--X", "2000"]
    proc = subprocess.run(
        [sys.executable, *argv, "--out", str(tmp_path)], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "twistselmer.ekstats" in proc.stderr
    assert ("numpy" in proc.stderr) == loads_numpy


def test_ek_outside_the_uniform_range_prints_one_plain_line_per_k(tmp_path):
    # a moment order above sigma^(2/3) is reported on stderr as one line of
    # its own, without Python's warning text and source line
    argv = [sys.executable, "-m", "twistselmer.cli", "ek", "--f", "omega", "--X", "2000", "--k", "2,4"]
    proc = subprocess.run([*argv, "--out", str(tmp_path)], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "UserWarning" not in proc.stderr and "cli.py:" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert [line.split(" exceeds ")[0] for line in lines] == ["warning: moment order k=2", "warning: moment order k=4"]
    moments = json.loads((tmp_path / "moments.json").read_text())["moments"]
    assert [m["within_uniform_range"] for m in moments] == [False, False]


class TestConfigFile:
    def test_config_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1\nb = -1\nX = 10\n# comment\nout = ignored\n")
        out = tmp_path / "o"
        assert run(["--config", str(cfg), "scan", "--out", str(out)]) == 0
        assert (out / "twists.csv").exists()

    def test_bad_numeric_is_fatal(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("X = twelve\n")
        assert run(["--config", str(cfg), "scan", "--a", "1", "--b", "-1"]) == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run(["--config", str(tmp_path / "absent.cfg"), "scan"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_unknown_key_is_fatal(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 3\n")
        assert run(["--config", str(cfg), "scan", "--a", "1", "--b", "-1", "--X", "10"]) == 2

    @pytest.mark.parametrize("value, code", [("false", 0), ("true", 1), ("yes", 2), ("False", 2)])
    def test_inject_fault_key(self, tmp_path, value, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"inject_fault = {value}\n")
        assert run(["--config", str(cfg), "audit", "--a", "1", "--b", "-1", "--X", "100"]) == code

    @pytest.mark.parametrize("key", ["command", "config"])
    def test_command_and_config_keys_are_fatal(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = audit\n")
        out = tmp_path / "o"
        assert run(["--config", str(cfg), "scan", "--a", "1", "--b", "-1", "--X", "100", "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_key_of_another_command_is_ignored(self, tmp_path):
        # seed and m belong to audit and ideal-count; q_spec = x would not parse as an ideal spec
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nfield_m = -5\nq_spec = x\nworkers = 1\n")
        out = tmp_path / "o"
        assert run(["--config", str(cfg), "ek", "--f", "omega", "--X", "1000", "--k", "2", "--out", str(out)]) == 0
        assert (out / "cdf.csv").exists()

    def test_defaults_then_file_then_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1\nb = -1\nX = 30\nr_list = 1\n")
        out = tmp_path / "o"
        assert run(["--config", str(cfg), "scan", "--X", "50", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["X"] == 50 and set(summary["tail_fractions"]) == {"1"}
        flags = tmp_path / "f"
        assert run(["scan", "--X", "50", "--r", "1", "--out", str(flags)]) == 0
        assert (flags / "twists.csv").read_bytes() == (out / "twists.csv").read_bytes()
        assert (flags / "summary.json").read_bytes() == (out / "summary.json").read_bytes()

    def test_ideal_count_field_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("field_m = -5\nX = 500\nq_spec = 3:0\nd_spec = 3:0\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["--config", str(cfg), "ideal-count", "--out", str(a)]) == 0
        assert run(["ideal-count", "--m", "-5", "--X", "500", "--q", "3:0", "--d", "3:0", "--out", str(b)]) == 0
        assert (a / "sfcount.csv").read_bytes() == (b / "sfcount.csv").read_bytes()

    def test_bad_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = two\n")
        assert run(["--config", str(cfg), "scan", "--a", "1", "--b", "-1", "--X", "10", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "workers" in err[0]

    @pytest.mark.parametrize("key, value", [("k_list", "2,x"), ("field_m", "x")])
    def test_bad_list_or_field_names_the_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run(["--config", str(cfg), "ek", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"config key {key!r}: expected" in err[0], err
