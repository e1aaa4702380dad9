"""Tests of the benchmark itself: the output gate can fail, and span
accounting gives the right self times.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

EK_SMALL = run.Command("ek-small", ("ek", "--f", "omega", "--X", "2000", "--k", "2"), "ek-small")


@pytest.fixture
def ek_expected(tmp_path):
    """The hashes of a small `ek` run, taken from a first run of it."""
    first = run.run_command(EK_SMALL, {"items": 0}, tmp_path)
    assert not first.failed
    out = tmp_path / EK_SMALL.id
    return {"items": 0, "files": {p.name: run.sha256(p) for p in out.iterdir()}}


def test_matching_hashes_pass(ek_expected, tmp_path):
    assert not run.run_command(EK_SMALL, ek_expected, tmp_path / "again").failed


def test_wrong_hash_is_a_failure(ek_expected, tmp_path):
    wrong = {"items": 0, "files": dict(ek_expected["files"], **{"cdf.csv": "0" * 64})}
    result = run.run_command(EK_SMALL, wrong, tmp_path / "again")
    assert result.failed
    assert any(f.startswith("cdf.csv: sha256") for f in result.failures)


def test_injected_audit_fault_is_a_failure(tmp_path):
    expected = {"items": 0, "report": {"ok": True}}
    cmd = run.Command("audit-fault", ("audit", "--a", "1", "--b", "-1", "--X", "200", "--inject-fault"), "")
    result = run.run_command(cmd, expected, tmp_path)
    assert result.exit_code == 1
    assert "audit ok: False != expected True" in result.failures


def test_committed_expectations_cover_every_command():
    expected = json.loads((run.BENCH / "expected.json").read_text())
    for workload in run.WORKLOADS:
        for cmd in run.workload_commands(workload, seed=7):
            assert "files" in expected[cmd.expect] or "report" in expected[cmd.expect]


def test_self_time_is_busy_minus_children():
    # outer(0..100) > inner(10..40) > inner(20..30), plus a generator span
    rows = [
        ["m.outer", 0, 100, -1, "c", 100, 45, None],
        ["m.inner", 10, 40, 0, "c", 30, 10, None],
        ["m.inner", 20, 30, 1, "c", 10, 0, None],
        ["m.gen", 50, 90, 0, "c", 15, 0, None],
    ]
    stats = run.layer_stats(rows)
    assert stats["m.outer"].self_ns == 55
    assert stats["m.inner"].calls == 2
    assert stats["m.inner"].busy_ns == 30  # the nested call is inside the outer one
    assert stats["m.inner"].self_ns == 30
    assert stats["m.gen"].self_ns == 15


def test_recorder_accounts_generator_resumes_and_nesting():
    rec = tracer.Recorder("t")

    def leaf(x):
        return x > 0

    leaf_w = rec.wrap("arith.torsor_locally_solvable", leaf)

    def gen(n):
        for i in range(n):
            yield leaf_w(i)

    gen_w = rec.wrap("m.gen", gen)
    consumer = rec.wrap("m.consumer", lambda: sum(gen_w(3)))
    assert consumer() == 2
    names = [r[0] for r in rec.rows]
    assert names == ["m.consumer", "m.gen"] + ["arith.torsor_locally_solvable"] * 3
    consumer_row, gen_row = rec.rows[0], rec.rows[1]
    assert gen_row[3] == 0 and all(r[3] == 1 for r in rec.rows[2:])
    assert consumer_row[6] == gen_row[5]  # the consumer's covered time is the generator's resumes
    assert [r[7] for r in rec.rows[2:]] == [False, True, True]
    assert rec.stack == []


def test_install_patches_every_namespace_and_uninstalls():
    import twistselmer.arith as arith
    import twistselmer.selmer as selmer

    original = arith.factorize
    rec = tracer.Recorder("t")
    rec.install()
    try:
        assert getattr(arith.factorize, tracer.MARK) == "arith.factorize"
        assert selmer.factorize is arith.factorize
        assert not hasattr(arith.kronecker, tracer.MARK)
        selmer.make_pair(1, -1)
        assert "arith.factorize" in [r[0] for r in rec.rows]
    finally:
        rec.uninstall()
    assert arith.factorize is original and selmer.factorize is original
