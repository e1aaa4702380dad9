"""twistselmer benchmark: drive the CLI as a user does and report end-to-end
and per-layer metrics for one workload.

    python3 bench/run.py --workload {descent,fields} --seed N --seconds S --trace {0,1}

Closed loop with one client: every command is a fresh ``python -m
twistselmer.cli`` process started after the previous one ended; the only
concurrency is ``scan --workers 2``.  With ``--trace 0`` the workload's
commands run in turn, cycling, until the next one would end after
``--seconds`` (each runs at least once); every command is timed by the
median of its runs, and the metrics are those of one pass of medians,
scaled to a nominal host speed (see "host speed" below).  With
``--trace 1`` one pass runs under ``bench/tracer.py`` and one without it;
the traced pass gives the per-layer metrics and the pair gives the tracing
overhead.  Every output is checked against ``bench/expected.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  The full record of the run, with the machine
record, goes to ``bench/_out/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import math
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
TRACER = BENCH / "tracer.py"

sys.path.insert(0, str(BENCH))
from tracer import MARK  # noqa: E402

SETUP_PROBES = 2  # at the start; one more precedes every command
COMMAND_TIMEOUT_S = 170
AUDIT_CURVES = ((1, -1), (0, 4), (-1, 3), (0, -2))

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}
# Reported on `descent` only, so not in BENCHMARK.json, whose metrics every workload prints.
SCAN_UNITS = {"twists_per_s_w2": "1/s", "w2_speedup": "x"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload; `expect` names its entry in expected.json."""

    id: str
    args: tuple[str, ...]
    expect: str


def workload_commands(workload: str, seed: int) -> list[Command]:
    # `scan` and `audit` share one workload so that each run measures a full
    # minute: the host's speed drifts over tens of seconds, and a workload
    # split in two gets two shorter, noisier runs within the same time limit.
    if workload == "descent":
        base = ("scan", "--a", "1", "--b", "-1", "--X", "50000")
        return [
            Command("scan", base, "scan"),
            Command("scan-w2", base + ("--workers", "2"), "scan"),
        ] + [
            Command(
                f"audit_{a}_{b}",
                ("audit", "--a", str(a), "--b", str(b), "--X", "10000", "--seed", str(seed)),
                f"audit_{a}_{b}",
            )
            for a, b in AUDIT_CURVES
        ]
    if workload == "fields":
        return [
            Command("ideal-count", ("ideal-count", "--m", "-5", "--X", "100000", "--q", "3:0,7:0", "--d", "3:0"), "ideal-count"),
            Command("ek-field", ("ek", "--f", "omega", "--field", "-5", "--X", "50000", "--k", "2"), "ek-field"),
            Command("ek-q", ("ek", "--f", "omega", "--X", "1000000", "--k", "2,4"), "ek-q"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("descent", "fields")


@dataclass
class CommandResult:
    id: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    items: int
    bytes_written: int
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(expected: dict, out_dir: Path, stdout: bytes, exit_code: int) -> list[str]:
    """Every way the command's outputs differ from `expected`; empty when correct."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    for name, digest in expected.get("files", {}).items():
        path = out_dir / name
        if not path.is_file():
            failures.append(f"{name}: missing")
        elif sha256(path) != digest:
            failures.append(f"{name}: sha256 {sha256(path)[:12]} != expected {digest[:12]}")
    if "report" in expected:
        try:
            report = json.loads(stdout)
        except ValueError:
            return failures + ["audit report is not JSON"]
        for key, want in expected["report"].items():
            if report.get(key) != want:
                failures.append(f"audit {key}: {report.get(key)!r} != expected {want!r}")
    return failures


def run_command(cmd: Command, expected: dict, work: Path, spans: Path | None = None) -> CommandResult:
    """Run one command to completion, from a fresh output directory, and gate it."""
    out_dir = work / cmd.id
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    args = list(cmd.args)
    if args[0] != "audit":  # audit prints its report and takes no --out
        args += ["--out", str(out_dir)]
    if spans is None:
        argv = [sys.executable, "-m", "twistselmer.cli", *args]
    else:
        argv = [sys.executable, str(TRACER), "--spans", str(spans), "--cmd-id", cmd.id, "--", *args]
    stdout_path, stderr_path = work / f"{cmd.id}.stdout", work / f"{cmd.id}.stderr"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=so, stderr=se, start_new_session=True)
        usage = wait_with_timeout(proc, COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - t0
    exit_code = proc.returncode
    stdout = stdout_path.read_bytes()
    failures = check_outputs(expected, out_dir, stdout, exit_code)
    if failures and stderr_path.stat().st_size:
        failures.append("stderr: " + stderr_path.read_text(errors="replace").strip().splitlines()[-1])
    written = len(stdout) + sum(p.stat().st_size for p in out_dir.iterdir())
    return CommandResult(
        cmd.id,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        exit_code,
        expected["items"],
        written,
        failures,
    )


def wait_with_timeout(proc: subprocess.Popen, timeout: float):
    """os.wait4 on `proc`, which reports the rusage of the child and of every
    descendant it reaped (pool workers included); kill its process group at
    the timeout."""
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


# ----------------------------------------------------------------------
# set-up time and the measured tree
# ----------------------------------------------------------------------

PROBE = f"""
import json, sys, time
t0 = time.perf_counter()
import numpy
numpy_import_s = time.perf_counter() - t0
import twistselmer.cli
wrapped = [f"{{n}}.{{a}}" for n, m in list(sys.modules.items())
           if m is not None and n.startswith("twistselmer")
           for a, o in vars(m).items() if hasattr(o, {MARK!r})]
print(json.dumps({{"file": twistselmer.__file__, "numpy": numpy.__version__,
                  "numpy_import_s": numpy_import_s, "wrapped": wrapped}}))
"""


def probe_setup() -> tuple[float, dict]:
    """Wall time of one fresh interpreter importing twistselmer.cli, and what
    it reports about the tree it imported and its own numpy import time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: cannot import twistselmer.cli from {SRC}:\n{proc.stderr.decode()}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: twistselmer resolves to {info['file']}, not under {SRC}")
    if info["wrapped"]:
        raise SystemExit(f"bench: tracer wrappers installed in an untraced interpreter: {info['wrapped']}")
    return elapsed, info


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#
# The host is shared, and its speed drifts by up to half within minutes:
# ten back-to-back runs of one workload straddled such a shift and their raw
# wall times spread 0.30 of the median.  Each run therefore also times two
# references that involve no twistselmer code, a memory-bound loop in this
# process and the numpy import inside every set-up probe, and reports its
# times at a nominal host speed: raw time * NOMINAL_REF_S / reference time,
# the reference time being the geometric mean of the two medians.  The raw
# values stay in the report and the run record.

NOMINAL_REF_S = 0.065  # about the reference time on the machine bench/README.md describes
MEM_LOOP_SLOTS = 1 << 17
MEM_LOOP_STEPS = 150_000


@functools.cache
def _cycle() -> list[int]:
    """A single random cycle through MEM_LOOP_SLOTS list slots."""
    order = list(range(MEM_LOOP_SLOTS))
    random.Random(0).shuffle(order)
    nxt = [0] * MEM_LOOP_SLOTS
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


def memory_loop() -> float:
    """Wall time of MEM_LOOP_STEPS dependent loads around _cycle()."""
    nxt, j = _cycle(), 0
    t0 = time.perf_counter()
    for _ in range(MEM_LOOP_STEPS):
        j = nxt[j]
    return time.perf_counter() - t0


@dataclass
class HostSamples:
    """Set-up times and host-speed references, one of each per probe."""

    setup: list[float] = field(default_factory=list)
    numpy_import: list[float] = field(default_factory=list)
    mem_loop: list[float] = field(default_factory=list)

    def take(self):
        elapsed, info = probe_setup()
        self.setup.append(elapsed)
        self.numpy_import.append(info["numpy_import_s"])
        self.mem_loop.append(memory_loop())

    def ref_s(self) -> float:
        return math.sqrt(statistics.median(self.mem_loop) * statistics.median(self.numpy_import))


def at_nominal_speed(values: dict[str, float], scale: float) -> dict[str, float]:
    """Times multiplied by `scale`, rates divided by it, the rest unchanged."""
    units = {**END_TO_END_UNITS, **SCAN_UNITS}
    return {k: v * scale if units[k] == "s" else v / scale if units[k] == "1/s" else v for k, v in values.items()}


def git_record() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    status = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
    )
    return {"commit": head.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------

NS = 1e-9

# name -> unit; bench/README.md says which end-to-end metric each should move.
PER_LAYER = {
    "selmer.descend.calls": "count",
    "selmer.descend.busy_s": "s",
    "selmer.descend.self_s": "s",
    "selmer.scan_twists.self_s": "s",
    "selmer.audit_curve.self_s": "s",
    "selmer.local_dim.calls": "count",
    "selmer.local_dim.busy_s": "s",
    "arith.torsor_locally_solvable.calls": "count",
    "arith.torsor_locally_solvable.busy_s": "s",
    "arith.torsor_locally_solvable.true_frac": "frac",
    "arith.factorize.calls": "count",
    "arith.factorize.busy_s": "s",
    "arith.sieve_primes.busy_s": "s",
    "quadfield.generator_if_principal.calls": "count",
    "quadfield.generator_if_principal.busy_s": "s",
    "quadfield.generator_if_principal.found_frac": "frac",
    "quadfield.count_sf.busy_s": "s",
    "quadfield.squarefree_ideals_up_to.busy_s": "s",
    "quadfield.zeta_at_2.busy_s": "s",
    "characters.enumerate_characters.calls": "count",
    "characters.enumerate_characters.busy_s": "s",
    "characters.enumerate_characters.items": "count",
    "ekstats.empirical_moment.busy_s": "s",
    "ekstats.distribution_report.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
}


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: int = 0  # outermost spans of the name only, so recursion is not counted twice
    self_ns: int = 0
    outcome_sum: int = 0


def layer_stats(rows: list[list]) -> dict[str, LayerStats]:
    """Aggregate span rows (see tracer.py) by function name."""
    stats: dict[str, LayerStats] = {}
    for row in rows:
        name, _, _, parent, _, busy, child, outcome = row
        st = stats.setdefault(name, LayerStats())
        st.calls += 1
        st.self_ns += busy - child
        if outcome is not None:
            st.outcome_sum += int(outcome)
        p = parent
        while p >= 0 and rows[p][0] != name:
            p = rows[p][3]
        if p < 0:
            st.busy_ns += busy
    return stats


def per_layer_metrics(stats: dict[str, LayerStats], bytes_written: int, overhead: float) -> dict[str, float]:
    def get(name):
        return stats.get(name, LayerStats())

    def frac(name):
        st = get(name)
        return st.outcome_sum / st.calls if st.calls else 0.0

    values: dict[str, float] = {
        "cli.self_s": sum(st.self_ns for n, st in stats.items() if n.startswith("cli.cmd_")) * NS,
        "cli.bytes_written": bytes_written,
        "trace.overhead_frac": overhead,
        "arith.torsor_locally_solvable.true_frac": frac("arith.torsor_locally_solvable"),
        "quadfield.generator_if_principal.found_frac": frac("quadfield.generator_if_principal"),
        "characters.enumerate_characters.items": get("characters.enumerate_characters").outcome_sum,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        name, _, kind = metric.rpartition(".")
        st = get(name)
        values[metric] = {"calls": st.calls, "busy_s": st.busy_ns * NS, "self_s": st.self_ns * NS}[kind]
    return {metric: values[metric] for metric in PER_LAYER}


def purpose_checks(workload: str, per_cmd: dict[str, dict[str, LayerStats]], walls: dict[str, float]) -> list[str]:
    """The layer shares each workload exists for; reported, not gated."""
    lines = []
    if workload == "descent":
        share = per_cmd["scan"].get("selmer.descend", LayerStats()).busy_ns * NS / walls["scan"]
        lines.append(f"{'PASS' if share >= 0.5 else 'NOTE'} scan: selmer.descend.busy_s is {share:.1%} of the serial command")
        merged: dict[str, int] = {}
        for stats in (stats for cid, stats in per_cmd.items() if cid.startswith("audit_")):
            for name, st in stats.items():
                merged[name] = merged.get(name, 0) + st.self_ns
        top = max(merged, key=merged.get)
        ok = top == "arith.torsor_locally_solvable"
        lines.append(f"{'PASS' if ok else 'NOTE'} audit: largest self time is {top} ({merged[top] * NS:.2f} s)")
    elif workload == "fields":
        selmer = sorted({n for stats in per_cmd.values() for n in stats if n.startswith("selmer.")})
        lines.append(f"{'PASS' if not selmer else 'NOTE'} fields: selmer spans {selmer or 'none'}")
    return lines


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def describe(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples above it; below 21 samples no such percentile lies above the
    median, and the maximum is given instead."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 20:
        q = int(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    else:
        out["max"] = max(values)
    return out


def run_pass(
    cmds: list[Command], expected: dict, work: Path, host: HostSamples, spans_dir: Path | None = None
) -> list[CommandResult]:
    """Run every command once, each after a set-up probe."""
    results = []
    for cmd in cmds:
        host.take()
        spans = None if spans_dir is None else spans_dir / f"{cmd.id}.json"
        results.append(run_command(cmd, expected[cmd.expect], work, spans))
    return results


def run_timed(cmds: list[Command], expected: dict, work: Path, seconds: float, host: HostSamples) -> list[CommandResult]:
    """Run the commands in turn, cycling, until the next one would end after
    `seconds` by its median so far; every command runs at least once.  A
    set-up probe precedes each command, so the set-up and host-speed
    samples are spread over the run.  Stopping at a command rather than at
    a whole cycle keeps the measured share of the run the same for long and
    short workloads."""
    results: list[CommandResult] = []
    walls: dict[str, list[float]] = {c.id: [] for c in cmds}
    t_start = time.perf_counter()
    for i in itertools.count():
        cmd = cmds[i % len(cmds)]
        if i >= len(cmds) and time.perf_counter() - t_start + statistics.median(walls[cmd.id]) > seconds:
            break
        host.take()
        results.append(run_command(cmd, expected[cmd.expect], work))
        walls[cmd.id].append(results[-1].wall_s)
    return results


def command_medians(results: list[CommandResult]) -> dict[str, dict[str, float]]:
    """Per command id, in order of first run: median wall, CPU and RSS."""
    by_id: dict[str, list[CommandResult]] = {}
    for r in results:
        by_id.setdefault(r.id, []).append(r)
    return {
        cid: {k: statistics.median(getattr(r, k) for r in rs) for k in ("wall_s", "cpu_s", "maxrss_mb")} | {"items": rs[0].items}
        for cid, rs in by_id.items()
    }


def workload_metrics(results: list[CommandResult]) -> dict[str, float]:
    """End-to-end metrics, less setup_s and ok_frac, of one pass of every
    command, each command timed by the median of its runs."""
    med = command_medians(results)
    serial = [m for cid, m in med.items() if cid != "scan-w2"]
    values = {
        "wall_s": sum(m["wall_s"] for m in med.values()),
        "cpu_s": sum(m["cpu_s"] for m in med.values()),
        "items_per_s": sum(m["items"] for m in serial) / sum(m["wall_s"] for m in serial),
        "peak_rss_mb": max(m["maxrss_mb"] for m in med.values()),
    }
    if "scan-w2" in med:
        values["twists_per_s_w2"] = med["scan-w2"]["items"] / med["scan-w2"]["wall_s"]
        values["w2_speedup"] = med["scan"]["wall_s"] / med["scan-w2"]["wall_s"]
    return values


def print_report(record: dict, results: list[CommandResult], units: dict[str, str]):
    m = record["machine"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"runs={len(results)} nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} load={m['loadavg_start'][0]:.2f}->{m['loadavg_end'][0]:.2f} "
          f"commit={record['source']['commit']} dirty={record['source']['dirty']}")
    for r in results:
        status = "ok" if not r.failed else "FAIL " + "; ".join(r.failures)
        print(f"  {r.id:14s} wall {r.wall_s:8.3f} s  cpu {r.cpu_s:8.3f} s  rss {r.maxrss_mb:7.1f} MB  {status}")
    described = {f"{cid} wall_s": d for cid, d in record.get("commands_timed", {}).items()}
    described["setup_s"] = record["setup_s"]
    described["host mem_loop_s"] = record["host"]["mem_loop_s"]
    described["host numpy_import_s"] = record["host"]["numpy_import_s"]
    for name, desc in described.items():
        extra = "  ".join(f"{k} {v:.4g}" for k, v in desc.items() if k not in ("median", "n"))
        print(f"  {name:40s} {desc['median']:12.4f} s     median of n={desc['n']}  {extra}  (raw)")
    print(f"  {'host ref_s':40s} {record['host']['ref_s']:12.4f} s     scale to nominal speed {record['host']['scale']:.4f}")
    for name, value in record.get("end_to_end", {}).items():
        unit = {**END_TO_END_UNITS, **SCAN_UNITS}[name]
        print(f"  {name:40s} {value:12.4f} {unit:5s} at nominal speed; raw {record['raw'][name]:.4f}")
    print(f"  {'fail_frac':40s} {record['fail_frac']:12.4f} frac  {record['failed']} of {record['attempted']} commands")
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"  {name:40s} {value:12.4f} {units[name]}")
    for line in record.get("purpose_checks", []):
        print("  " + line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "twistselmer" / "cli.py").is_file():
        print(f"bench: no twistselmer source tree at {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    cmds = workload_commands(args.workload, args.seed)
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    load_start = os.getloadavg()
    probe = probe_setup()[1]  # untimed: writes the bytecode caches
    host = HostSamples()
    for _ in range(SETUP_PROBES):
        host.take()

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [" ".join(c.args) for c in cmds],
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": probe["numpy"],
            "loadavg_start": load_start,
        },
        "source": {"twistselmer_file": probe["file"], **git_record()},
    }

    if args.trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced = run_pass(cmds, expected, work, host, spans_dir)
        untraced = run_pass(cmds, expected, work, host)
        results = traced + untraced
        rows = {c.id: json.loads((spans_dir / f"{c.id}.json").read_text())["spans"] for c in cmds}
        per_cmd = {cid: layer_stats(r) for cid, r in rows.items()}
        all_rows: list[list] = []
        for cmd_rows in rows.values():
            offset = len(all_rows)
            all_rows += [[*r[:3], r[3] + offset if r[3] >= 0 else -1, *r[4:]] for r in cmd_rows]
        overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1
        metrics = per_layer_metrics(layer_stats(all_rows), sum(r.bytes_written for r in traced), overhead)
        units = PER_LAYER
        record["purpose_checks"] = purpose_checks(args.workload, per_cmd, {r.id: r.wall_s for r in traced})
        record["untraced_pass"] = workload_metrics(untraced)
    else:
        results = run_timed(cmds, expected, work, args.seconds, host)
        record["commands_timed"] = {
            cid: describe([r.wall_s for r in results if r.id == cid]) for cid in command_medians(results)
        }
        record["raw"] = dict(workload_metrics(results), setup_s=statistics.median(host.setup))
        record["end_to_end"] = at_nominal_speed(record["raw"], NOMINAL_REF_S / host.ref_s())
        metrics = dict(record["end_to_end"])
        units = END_TO_END_UNITS

    attempted = len(results)
    failed = sum(r.failed for r in results)
    if not args.trace:
        metrics["ok_frac"] = 1 - failed / attempted
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["setup_s"] = describe(host.setup)
    record["host"] = {
        "ref_s": host.ref_s(),
        "scale": NOMINAL_REF_S / host.ref_s(),
        "mem_loop_s": describe(host.mem_loop),
        "numpy_import_s": describe(host.numpy_import),
    }
    record["runs"] = [vars(r) for r in results]
    record["attempted"], record["failed"], record["fail_frac"] = attempted, failed, failed / attempted
    record["metrics"] = metrics
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print_report(record, results, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
