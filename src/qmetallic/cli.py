"""Command-line front end.

Subcommands: series (Taylor coefficients), hfrac (the periodic fraction),
hankel (determinant tables with dual-route cross check), verify (theorem
suites), modp (prime-field cycle analysis), scan (exploratory windows
beyond the proved shift range).

Output is deterministic: the same invocation produces byte-identical
text, JSON (sorted keys, no timestamps), or CSV. Exit codes: 0 success
or inconclusive report, 1 failed check, 2 usage error.

This module holds the parser and `main`, which renders the output; the
subcommands themselves are in `commands`.
"""

from __future__ import annotations

import argparse
import sys

# `commands` is a lazy module (see the package docstring): it runs on its
# first attribute read, so `--version` and a malformed command line run
# only this module
from . import SUITES, __version__, commands

DEFAULT_PRECISION = 24


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

    p = sub.add_parser("hfrac", help="periodic Hankel fraction of the series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=0,
                   help="coefficient shift, 0..n+1 (default 0)")
    add_common(p)

    p = sub.add_parser("hankel", help="Hankel determinant table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--horizon", type=int, default=None,
                   help="number of determinants (default: two periods)")
    p.add_argument("--source", choices=("formula", "brute", "both"), default="both")
    add_common(p)

    p = sub.add_parser("verify", help="run a theorem-check suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--n", default="1..6",
                   help="values like '5', '1..6', or '1,3,5' (default 1..6)")
    add_common(p)

    p = sub.add_parser("modp", help="prime-field fraction and determinant cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=4000)
    add_common(p)

    p = sub.add_parser("scan", help="explore determinants beyond the proved shifts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=None,
                   help="shift to scan, at least n+2 (default n+2)")
    p.add_argument("--horizon", type=int, default=None,
                   help="window length (default: two periods)")
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, header, rows, lines = commands.run(args)
    except commands.UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return commands.EXIT_USAGE
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
            return commands.EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
