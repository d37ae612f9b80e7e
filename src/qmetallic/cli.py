"""Command-line front end.

Subcommands: series (Taylor coefficients), hfrac (the periodic fraction),
hankel (determinant tables with dual-route cross check), verify (theorem
suites), modp (prime-field cycle analysis), scan (exploratory windows
beyond the proved shift range).

Output is deterministic: the same invocation produces byte-identical
text, JSON (sorted keys, no timestamps), or CSV. Exit codes: 0 success
or inconclusive report, 1 failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

# the library modules are lazy (see the package docstring): each runs on
# its first attribute read, so a subcommand runs only the ones it calls
from . import SUITES, __version__, algebra, hfrac, qseries, reports, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_PRECISION = 24


class UsageError(Exception):
    pass


def _csv_cell(v) -> str:
    # a missing value is an empty cell; negative numbers are quoted so
    # spreadsheet importers keep them as text, and so is a cell holding a
    # comma or a quote, with its quotes doubled (RFC 4180)
    if v is None:
        return ""
    s = str(v)
    if "," in s or '"' in s or isinstance(v, int) and v < 0:
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_table(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _parse_n_range(text: str) -> list:
    """n values from '3', '1..6', or a comma list of both forms; repeats
    are dropped and the first-seen order kept."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise UsageError(f"bad range {chunk!r}: expected like 1..6")
            if lo > hi:
                raise UsageError(f"empty range {chunk!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(chunk))
            except ValueError:
                raise UsageError(f"bad value {chunk!r} in --n")
    if not out or any(n < 1 for n in out):
        raise UsageError("--n values must be >= 1")
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# Subcommands: each checks its arguments, computes, and returns
# (exit_code, json_payload, csv_header, csv_rows, text_lines); `main`
# renders the one that --format names.


def _cmd_series(args) -> tuple:
    prec = args.prec
    if args.n < 1 or prec < 1:
        raise UsageError("series needs --n >= 1 and --prec >= 1")
    f = qseries.metallic_series(args.n, prec)
    payload = {"n": args.n, "prec": prec, "coefficients": list(f.coeffs)}
    rows = [(args.n, j, c) for j, c in enumerate(f.coeffs)]
    return EXIT_OK, payload, ("n", "j", "coefficient"), rows, [str(f)]


def _cmd_hfrac(args) -> tuple:
    n, ell = args.n, args.ell
    if n < 1:
        raise UsageError("hfrac needs --n >= 1")
    if not 0 <= ell <= n + 1:
        raise UsageError(
            f"the fraction is available for --ell 0..{n + 1} (got {ell}); "
            "larger shifts have no known periodic form"
        )
    hf = hfrac.hfraction_of_shift(n, ell)
    offset = 1 + len(hf.preamble)
    payload = hf.to_json_dict()
    payload.update(n=n, ell=ell, period=len(hf.cycle), offset=offset)
    rows = []
    for i, t in enumerate(hf.stream(hf.n_stored_terms())):
        part = "head" if i == 0 else ("preamble" if i < offset else "cycle")
        rows.append((n, ell, i, part, t.k, t.v, str(t.d)))
    level = lambda j: "({})/({})".format(*hf.rendered(j))
    lines = [f"n={n} ell={ell} period={len(hf.cycle)} offset={offset}"]
    lines.append(f"head: {level(0)}")
    for j in range(1, offset):
        lines.append(f"  [{j}] {level(j)}")
    if hf.cycle:
        ncyc = len(hf.cycle)
        lines.append(f"cycle of {ncyc} terms, repeating from index {offset}:")
        # printed from the second pass, where cycle[0] follows cycle[-1]
        for j in range(offset, offset + ncyc):
            lines.append(f"  [{j}] {level(j + ncyc)}")
    if hf.terminated:
        lines.append("terminating fraction (rational series)")
    header = ("n", "ell", "index", "part", "k", "v", "den")
    return EXIT_OK, payload, header, rows, lines


def _cmd_hankel(args) -> tuple:
    n, ell = args.n, args.ell
    if n < 1 or ell < 0:
        raise UsageError("hankel needs --n >= 1 and --ell >= 0")
    horizon = args.horizon if args.horizon is not None else 4 * n * (n + 1)
    if horizon < 0:
        raise UsageError("--horizon must be >= 0")
    source = {"brute": "brute_force"}.get(args.source, args.source)
    if source != "brute_force" and ell > n + 1:
        raise UsageError(
            f"--source {args.source} needs --ell <= {n + 1}; "
            "only brute force reaches larger shifts"
        )
    report = reports.hankel_sequence(n, ell, horizon, source)
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    rows = [(n, ell, j, v, source) for j, v in enumerate(report.values)]
    lines = [f"n={n} ell={ell} horizon={horizon} source={source}"]
    lines += [f"{j:4d} {v}" for j, v in enumerate(report.values)]
    rows += _failed_check_rows(report.checks)
    lines += [_check_line(c) for c in report.checks]
    header = ("n", "ell", "j", "delta", "source")
    return code, report.to_json_dict(), header, rows, lines


def _failed_check_rows(checks) -> list:
    # a CSV table has no column for check results, so it ends with the
    # text line of each failed check, as a row of one cell; a passing
    # table is unchanged
    return [(_check_line(c),) for c in checks if not c.passed]


def _check_line(c) -> str:
    status = "PASS" if c.passed else "FAIL"
    line = f"{status} {c.name}"
    if c.detail:
        line += f" ({c.detail})"
    if c.counterexample is not None:
        j, expected, got = c.counterexample
        line += f" at j={j}: expected {expected}, got {got}"
    return line


def _cmd_verify(args) -> tuple:
    n_values = _parse_n_range(args.n)
    checks = verify.run_suite(args.suite, n_values)
    if not checks:
        # thm51 and symmetries skip every n < 3
        raise UsageError(f"suite {args.suite} needs n >= 3, got --n {args.n}")
    passed = all(c.passed for c in checks)
    code = EXIT_OK if passed else EXIT_CHECK_FAILED
    payload = {
        "suite": args.suite,
        "n_values": n_values,
        "pass": passed,
        "checks": [c.to_json_dict() for c in checks],
    }
    rows = [(c.name, "pass" if c.passed else "fail", c.detail) for c in checks]
    lines = [_check_line(c) for c in checks]
    lines.append(f"{'PASS' if passed else 'FAIL'} suite={args.suite} "
                 f"({sum(c.passed for c in checks)}/{len(checks)} checks)")
    return code, payload, ("check", "status", "detail"), rows, lines


def _cmd_modp(args) -> tuple:
    try:
        prime = algebra.is_prime(args.p)
    except ValueError as e:
        raise UsageError(f"--p: {e}")
    if not prime:
        raise UsageError(f"--p must be prime, got {args.p}")
    if args.n < 1 or args.ell < 0 or args.max_steps < 1:
        raise UsageError("modp needs --n >= 1, --ell >= 0, --max-steps >= 1")
    r = verify.modp_analysis(args.n, args.ell, args.p, max_steps=args.max_steps)
    # inconclusive is exit 0; a failed comparison check is a real failure
    code = EXIT_OK if r.passed else EXIT_CHECK_FAILED
    header = ("n", "ell", "p", "conclusive",
              "hfraction_preperiod", "hfraction_period",
              "hankel_preperiod", "hankel_period")
    rows = [(
        r.n, r.ell, r.p, "yes" if r.conclusive else "no",
        r.hfraction_preperiod, r.hfraction_period,
        r.hankel_preperiod, r.hankel_period,
    )] + _failed_check_rows(r.checks)
    lines = [f"n={r.n} ell={r.ell} p={r.p}"]
    if not r.conclusive:
        lines.append(f"inconclusive: no cycle within {r.max_steps} steps")
    else:
        lines.append(
            f"fraction stream: preperiod={r.hfraction_preperiod} "
            f"period={r.hfraction_period}"
        )
        lines.append(
            f"determinant stream: no period within {r.hankel_window} values"
            if r.hankel_period is None
            else f"determinant stream: preperiod={r.hankel_preperiod} "
            f"period={r.hankel_period} (window {r.hankel_window})"
        )
    lines += [_check_line(c) for c in r.checks]
    return code, r.to_json_dict(), header, rows, lines


def _cmd_scan(args) -> tuple:
    n = args.n
    if n < 1:
        raise UsageError("scan needs --n >= 1")
    ell = args.ell if args.ell is not None else n + 2
    if ell < n + 2:
        raise UsageError(
            f"scan explores beyond the proved range: --ell >= {n + 2} "
            f"(shifts up to {n + 1} are covered by `verify`)"
        )
    horizon = args.horizon if args.horizon is not None else 4 * n * (n + 1)
    if horizon < 1:
        raise UsageError("--horizon must be >= 1")
    r = reports.conjecture_scan(n, ell, horizon)
    rows = [(n, ell, j, v, "brute_force") for j, v in enumerate(r.values)]
    lines = [
        f"n={n} ell={ell} horizon={horizon} (exploratory)",
        f"values in [{r.value_min}, {r.value_max}], max |delta| = {r.max_abs}",
        f"periodicity: {r.periodicity_verdict}",
    ]
    header = ("n", "ell", "j", "delta", "source")
    return EXIT_OK, r.to_json_dict(), header, rows, lines


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetallic",
        description="Exact q-metallic series, periodic Hankel fractions, "
        "and Hankel determinant verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("series", help="Taylor coefficients of the q-metallic series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prec", type=int, default=DEFAULT_PRECISION,
                   help="number of coefficients (default 24)")
    add_common(p)
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("hfrac", help="periodic Hankel fraction of the series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=0,
                   help="coefficient shift, 0..n+1 (default 0)")
    add_common(p)
    p.set_defaults(run=_cmd_hfrac)

    p = sub.add_parser("hankel", help="Hankel determinant table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--horizon", type=int, default=None,
                   help="number of determinants (default: two periods)")
    p.add_argument("--source", choices=("formula", "brute", "both"), default="both")
    add_common(p)
    p.set_defaults(run=_cmd_hankel)

    p = sub.add_parser("verify", help="run a theorem-check suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--n", default="1..6",
                   help="values like '5', '1..6', or '1,3,5' (default 1..6)")
    add_common(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("modp", help="prime-field fraction and determinant cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=4000)
    add_common(p)
    p.set_defaults(run=_cmd_modp)

    p = sub.add_parser("scan", help="explore determinants beyond the proved shifts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=None,
                   help="shift to scan, at least n+2 (default n+2)")
    p.add_argument("--horizon", type=int, default=None,
                   help="window length (default: two periods)")
    add_common(p)
    p.set_defaults(run=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, header, rows, lines = args.run(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        import json  # only JSON output needs it

        payload["command"] = args.command
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_table(header, rows)
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
