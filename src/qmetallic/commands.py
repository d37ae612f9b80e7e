"""The subcommands of the command line.

Each `_cmd_*` checks its arguments, computes, and returns (exit_code,
json_payload, csv_header, csv_rows, text_lines); `run` calls the one
that the parsed arguments name, and `cli.main` renders the output that
--format names. Every library module is bound as the package's lazy
module and called through it, so a request compiles only the modules
its subcommand calls into.

`cli` imports this module lazily and this module never imports `cli`:
under `python -m qmetallic.cli`, `cli` runs as `__main__`, and an import
of `qmetallic.cli` would compile it a second time.
"""

from __future__ import annotations

# the library modules are lazy (see the package docstring): each runs on
# its first attribute read, so a subcommand runs only the ones it calls
from . import fields, modp, qseries, reports, template, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


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
# (exit_code, json_payload, csv_header, csv_rows, text_lines); `cli.main`
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
    hf = template.hfraction_of_shift(n, ell)
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
        prime = fields.is_prime(args.p)
    except ValueError as e:
        raise UsageError(f"--p: {e}")
    if not prime:
        raise UsageError(f"--p must be prime, got {args.p}")
    if args.n < 1 or args.ell < 0 or args.max_steps < 1:
        raise UsageError("modp needs --n >= 1, --ell >= 0, --max-steps >= 1")
    r = modp.modp_analysis(args.n, args.ell, args.p, max_steps=args.max_steps)
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


_COMMANDS = {
    "series": _cmd_series,
    "hfrac": _cmd_hfrac,
    "hankel": _cmd_hankel,
    "verify": _cmd_verify,
    "modp": _cmd_modp,
    "scan": _cmd_scan,
}


def run(args) -> tuple:
    """The data of the subcommand that args.command names: (exit_code,
    json_payload, csv_header, csv_rows, text_lines). Raises UsageError."""
    return _COMMANDS[args.command](args)
