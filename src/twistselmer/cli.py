"""Command-line orchestration: twist scans, Gaussian-law verification,
squarefree-ideal counting, and the exact-invariant audit.

All output is file-based and byte-deterministic: CSV with fixed column
order, LF line endings and '.' decimals; JSON with sorted keys and a
schema_version field; standalone SVG with exactly two data polylines.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from . import ekstats, quadfield as qf, selmer
from .arith import factorize, squarefree_factors
from .characters import enumerate_characters

SCHEMA_VERSION = 1


# A bad flag value raises ArgumentTypeError, whose message argparse prints
# after the flag; config_from_args prints it after the --config key.
def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, not {text!r}") from None


def _parse_field(text: str):
    """'Q' or a squarefree integer m."""
    try:
        return "Q" if text == "Q" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected Q or an integer m, not {text!r}") from None


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, not {text!r}")
    return text == "true"


# Each option once: (commands, flag, dest, type, default, help).  The dest is
# also its --config key, read with the same type; an option whose default is
# None must be given.  A _parse_bool option is a flag without a value.
OPTIONS = (
    (("scan", "ek", "audit"), "--a", "a", int, 1, "curve coefficient a"),
    (("scan", "ek", "audit"), "--b", "b", int, -1, "curve coefficient b"),
    (("scan", "ek", "ideal-count", "audit"), "--X", "X", int, 10**4, "bound on |d| or on the norm, >= 2"),
    (("scan",), "--r", "r_list", _parse_int_list, (1, 2), "tail thresholds, comma separated"),
    (("scan",), "--workers", "workers", int, 1, "worker processes, >= 1"),
    (("ek",), "--f", "f_name", str, "omega", "additive function: omega or curve-g"),
    (("ek",), "--k", "k_list", _parse_int_list, (2, 4), "moment orders, comma separated"),
    (("ek",), "--field", "field_m", _parse_field, "Q", "'Q' or a squarefree integer m"),
    (("ideal-count",), "--m", "field_m", int, None, "the squarefree integer m of Q(sqrt(m))"),
    (("ideal-count",), "--q", "q_spec", str, "", "ideal spec: comma-separated p:idx tokens"),
    (("ideal-count",), "--d", "d_spec", str, "", "ideal spec: comma-separated p:idx tokens"),
    (("scan", "ek", "ideal-count"), "--out", "out", str, "out", "output directory"),
    (("audit",), "--seed", "seed", int, 0, "seed of the twist-class sample"),
    (("audit",), "--inject-fault", "inject_fault", _parse_bool, False, "test hook: corrupt one local table entry"),
)


def _load_config_file(path: str) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        values[key] = val
    return values


def _parse_ideal_spec(fieldK, spec: str) -> qf.IdealK:
    """Ideal spec: comma-separated p:idx tokens; repeats raise the exponent."""
    if not spec:
        return qf.ONE_IDEAL
    factors = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        p_str, _, idx_str = token.partition(":")
        try:
            p, idx = int(p_str), int(idx_str or 0)
        except ValueError as exc:
            raise ValueError(f"ideal spec {token!r}: {exc}") from None
        if p < 2 or factorize(p) != ((p, 1),):
            raise ValueError(f"ideal spec {token!r}: {p} is not a prime")
        if idx < 0:
            raise ValueError(f"ideal spec {token!r}: the conjugate index must be >= 0")
        primes = qf.split_prime(fieldK, p)
        if idx >= len(primes):
            raise ValueError(f"no prime with conjugate index {idx} above {p}")
        factors.append((primes[idx], 1))
    return qf.make_ideal(factors)


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _eligible_pair(cfg: argparse.Namespace) -> selmer.IsogenyPair:
    """The curve of cfg; a ValueError (exit 2) unless it is eligible."""
    pair = selmer.make_pair(cfg.a, cfg.b)
    if not pair.eligible:
        raise ValueError(f"curve ({cfg.a}, {cfg.b}) is ineligible: needs a^2-4b and b*(a^2-4b) both nonsquare")
    return pair


def cmd_scan(cfg: argparse.Namespace) -> int:
    pair = _eligible_pair(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    # rows go to a side file that replaces twists.csv only once the scan is complete
    part = out / "twists.csv.part"
    hist: Counter[int] = Counter()  # ord2T -> number of twists
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("d,g_chi,correction,ord2T,dim_selphi,dim_selphihat,d2_lower_bound\n")
            for text, ord2t in selmer._scan_chunks(pair, cfg.X, cfg.workers):
                fh.write(text)
                hist.update(ord2t)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    part.replace(out / "twists.csv")

    # exact integer sums, so the fractions and the mean are those of the full list of values
    n_twists = sum(hist.values())
    summary = {
        "schema_version": SCHEMA_VERSION,
        "curve": {"a": cfg.a, "b": cfg.b},
        "X": cfg.X,
        "n_twists": n_twists,
        "ord2T_counts": {str(v): n for v, n in hist.items()},
        "tail_fractions": {str(r): sum(n for v, n in hist.items() if v >= r) / n_twists for r in cfg.r_list},
        "normalization": {
            "center": sum(v * n for v, n in hist.items()) / n_twists,
            "scale": ekstats.sigma_g_predicted(cfg.X) if cfg.X >= 3 else None,
        },
    }
    _write_text(out / "summary.json", _json_dumps(summary))
    return 0


def _cdf_svg(report: ekstats.DistributionReport) -> str:
    """Standalone SVG: two polylines (empirical and Gaussian CDF), labeled axes."""
    width, height, margin = 640, 480, 50
    zs = report.grid
    z_lo, z_hi = min(zs), max(zs)
    span = (z_hi - z_lo) or 1.0

    def sx(z):
        return margin + (z - z_lo) / span * (width - 2 * margin)

    def sy(p):
        return height - margin - p * (height - 2 * margin)

    def polyline(points, color):
        pts = " ".join(f"{sx(z):.2f},{sy(p):.2f}" for z, p in points)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    emp = polyline(list(zip(zs, report.empirical_cdf)), "#d62728")
    gau = polyline(list(zip(zs, report.gaussian_cdf)), "#1f77b4")
    axes = (
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>'
    )
    labels = (
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" font-size="14">z</text>'
        f'<text x="15" y="{height // 2}" text-anchor="middle" font-size="14" transform="rotate(-90 15 {height // 2})">CDF</text>'
        f'<text x="{width - margin}" y="{margin - 10}" text-anchor="end" font-size="12">'
        f"empirical (red) vs Gaussian (blue), KS = {report.ks:.4f}</text>"
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">{axes}{emp}{gau}{labels}</svg>\n'
    )


def _cdf_csv(report: ekstats.DistributionReport) -> str:
    rows = ["grid,empirical,gaussian"]
    for z, e, gau in zip(report.grid, report.empirical_cdf, report.gaussian_cdf):
        rows.append(f"{z!r},{e!r},{gau!r}")
    return "\n".join(rows) + "\n"


def cmd_ek(cfg: argparse.Namespace) -> int:
    out = Path(cfg.out)
    if cfg.f_name == "omega":
        base = "Q" if cfg.field_m == "Q" else qf.make_field(cfg.field_m)
        f = ekstats.omega_spec(base)
        table = ekstats.prime_values(f, cfg.X)  # f at each prime of norm < X, read by every sum below
        conductors = None if base == "Q" else enumerate_characters(base, cfg.X)
        moments = [asdict(ekstats.empirical_moment(f, cfg.X, k, table, conductors)) for k in cfg.k_list]
        # the distribution of f over C(base, X) against the Gaussian
        if base == "Q":
            values = ekstats.prime_sum_values(f, cfg.X, table)
        else:
            values = ekstats.conductor_sums(table, conductors)
        center, scale = ekstats.mu_f(f, cfg.X, table), ekstats.sigma_f(f, cfg.X, table)
        report = ekstats.distribution_report(values, (center, scale), X=cfg.X)
    elif cfg.f_name == "curve-g":
        pair = _eligible_pair(cfg)
        moments = []  # the twist statistic is not [0,1]-bounded; no moment reports
        g_at = selmer.g_table(pair, cfg.X).__getitem__
        hist: Counter[int] = Counter()  # g -> number of twists
        for _, primes in squarefree_factors(1, cfg.X):
            hist[sum(map(g_at, primes))] += 2  # +d and -d: g does not see the sign
        center = sum(g * n for g, n in hist.items()) / sum(hist.values())
        scale = ekstats.sigma_g_predicted(cfg.X)
        report = ekstats.distribution_report(hist, (center, scale), X=cfg.X)
    else:
        raise ValueError(f"unknown additive function {cfg.f_name!r}")

    _write_text(out / "moments.json", _json_dumps({"schema_version": SCHEMA_VERSION, "moments": moments}))
    _write_text(out / "cdf.csv", _cdf_csv(report))
    _write_text(out / "cdf.svg", _cdf_svg(report))
    return 0


def cmd_ideal_count(cfg: argparse.Namespace) -> int:
    fieldK = qf.make_field(cfg.field_m)
    q = _parse_ideal_spec(fieldK, cfg.q_spec)
    d = _parse_ideal_spec(fieldK, cfg.d_spec)
    rows = ["X,class,q,d,brute_count,main_term,gap,normalized_gap"]
    omega_q = len(q.factorization)
    for c_idx, c in enumerate(fieldK.class_representatives):
        brute = qf.count_sf(fieldK, cfg.X, c, q, d)
        main = qf.mainterm_sf(fieldK, cfg.X, c, q, d)
        gap = brute - main
        norm_gap = gap / (math.sqrt(cfg.X) * 3**omega_q)
        rows.append(
            f"{cfg.X},{c_idx},{cfg.q_spec or '(1)'},{cfg.d_spec or '(1)'},"
            f"{brute},{main!r},{gap!r},{norm_gap!r}"
        )
    _write_text(Path(cfg.out) / "sfcount.csv", "\n".join(rows) + "\n")
    return 0


def cmd_audit(cfg: argparse.Namespace) -> int:
    try:
        pair = selmer.make_pair(cfg.a, cfg.b)
    except ValueError as exc:
        print(_json_dumps({"ok": False, "error": f"configuration: {exc}"}), end="")
        return 2
    report = selmer.audit_curve(pair, cfg.X, seed=cfg.seed, inject_fault=cfg.inject_fault)
    keys = ("ok", "n_twists", "n_cross_checks", "n_parity_checks", "n_parity_skipped", "n_corrections", "failures")
    print(_json_dumps({k: report[k] for k in keys}), end="")
    return 0 if report["ok"] else 1


COMMANDS = {
    "scan": "descent data for every squarefree twist |d| < X",
    "ek": "moment and CDF reports for an additive function",
    "ideal-count": "squarefree-ideal counts against the main term",
    "audit": "exact invariant suite; exit 1 on violation",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twistselmer", description=__doc__)
    ap.add_argument("--config", help="key = value file, keyed by option dest; command-line flags override")
    sub = ap.add_subparsers(dest="command", required=True)
    # an option not given on the command line is left out of the namespace
    parsers = {
        name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for name, text in COMMANDS.items()
    }
    for commands, flag, dest, typ, _, text in OPTIONS:
        kind = {"action": "store_true"} if typ is _parse_bool else {"type": typ}
        for name in commands:
            parsers[name].add_argument(flag, dest=dest, help=text, **kind)
    return ap


def config_from_args(argv) -> argparse.Namespace:
    """The options of the command in argv: the defaults, overridden by the
    --config file, overridden by the flags.  A config key of another command
    is ignored; a key of no command is an error."""
    ns = build_parser().parse_args(argv)
    own = {dest: (flag, typ, default) for cmds, flag, dest, typ, default, _ in OPTIONS if ns.command in cmds}
    values = {dest: default for dest, (_, _, default) in own.items()}
    if ns.config:
        known = {dest for _, _, dest, *_ in OPTIONS}
        for key, raw in _load_config_file(ns.config).items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if key in own:
                try:
                    values[key] = own[key][1](raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
    values.update(vars(ns))
    for dest, (flag, _, _) in own.items():
        if values[dest] is None:
            raise ValueError(f"{ns.command} needs {flag}")
    for dest, least in (("X", 2), ("workers", 1)):
        if values.get(dest, least) < least:
            raise ValueError(f"{dest} must be >= {least}")
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # looked up when called, so that a wrapper bound over a cmd_* later
    # (bench/tracer.py does so) is the one that runs
    handlers = {"scan": cmd_scan, "ek": cmd_ek, "ideal-count": cmd_ideal_count, "audit": cmd_audit}
    try:
        return handlers[cfg.command](cfg)
    except selmer.DescentConsistencyError as exc:
        print(f"error: {exc.check} check failed for d={exc.d}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
