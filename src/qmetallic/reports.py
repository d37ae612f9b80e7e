"""Report records and the determinant windows of each route.

`CheckResult` is the outcome of one check; `HankelReport`, `ModpReport`
and `ScanReport` are the payloads of `hankel`, `modp` and `scan`. The
windows come by either route: `hankel_formula_values` reads the product
formula off the periodic fraction (`template`), and `hankel_sequence`
and `conjecture_scan` also take the brute-force values of `oracle`.
Both are bound as lazy modules and run on first use, so `hankel --source
formula` never runs `oracle`, `scan` never runs `template`, and neither
runs `verify` or the expansion of `hfrac`.
"""

from __future__ import annotations

from . import oracle, template
from .algebra import Record

HANKEL_SOURCES = ("formula", "brute_force", "both")


# ---------------------------------------------------------------------------
# Report containers


def _jsonable(v):
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)


class CheckResult(Record):
    """Outcome of one named property check.

    counterexample, when present, is (j, expected, got) at the first
    failing index; detail carries the parameters the check ran with.
    """

    name: str
    passed: bool
    counterexample: tuple = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.counterexample is not None:
            j, expected, got = self.counterexample
            out["counterexample"] = {
                "j": j,
                "expected": _jsonable(expected),
                "got": _jsonable(got),
            }
        if self.detail:
            out["detail"] = self.detail
        return out


def _report_json(report) -> dict:
    """A report's JSON payload: every field under its own name, tuples as
    lists, and each of `checks` by CheckResult.to_json_dict."""
    out = {}
    for f in report._fields:
        v = getattr(report, f)
        if f == "checks":
            v = [c.to_json_dict() for c in v]
        elif isinstance(v, tuple):
            v = list(v)
        out[f] = v
    return out


class HankelReport(Record):
    """A window of Hankel determinant values with provenance.

    values[j] is the j-th determinant of the ell-fold coefficient shift;
    len(values) == horizon. source records which route produced them;
    with source "both" the cross-check lives in `checks`.
    """

    n: int
    ell: int
    values: tuple
    horizon: int
    source: str
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    to_json_dict = _report_json


class ModpReport(Record):
    """Cycle data of a prime-field fraction run and its determinant
    stream. Periods are None, with no checks, when no cycle closed within
    max_steps (inconclusive, not a refutation); the determinant ones
    alone are None when no period covers half of `hankel_window`."""

    n: int
    ell: int
    p: int
    max_steps: int
    conclusive: bool
    hfraction_preperiod: int = None
    hfraction_period: int = None
    hfraction_terminated: bool = False
    hankel_preperiod: int = None
    hankel_period: int = None
    hankel_window: int = 0
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    to_json_dict = _report_json


class ScanReport(Record):
    """Exploratory observation window for shifts beyond the proved
    range. Never a theorem claim; the label says so in every payload."""

    n: int
    ell: int
    horizon: int
    value_min: int
    value_max: int
    max_abs: int
    periodicity_verdict: str  # consistent | violated | window_too_small
    values: tuple = ()
    label: str = "exploratory"

    to_json_dict = _report_json


# ---------------------------------------------------------------------------
# Determinant windows by route


def hankel_formula_values(n: int, ell: int, count: int) -> list:
    """First count Hankel determinants via the periodic-fraction product
    formula. Available for ell <= n+1 (where the fraction is known)."""
    return template.hankel_values_from_hfraction(template.hfraction_of_shift(n, ell), count)


def hankel_sequence(n: int, ell: int, horizon: int, source: str = "both") -> HankelReport:
    """Window of determinant values with the requested provenance.

    source "both" computes the two routes independently and records the
    entry-wise comparison as a check; its values are the brute-force
    ones (identical whenever the check passes).
    """
    if source not in HANKEL_SOURCES:
        raise ValueError(f"source must be one of {HANKEL_SOURCES}, got {source!r}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    checks = []
    if source == "formula":
        values = hankel_formula_values(n, ell, horizon)
    elif source == "brute_force":
        values = oracle.hankel_bruteforce_values(n, ell, horizon)
    else:
        formula = hankel_formula_values(n, ell, horizon)
        brute = oracle.hankel_bruteforce_values(n, ell, horizon)
        checks.append(
            _compare_lists(
                "formula_vs_brute_force",
                brute,
                formula,
                detail=f"n={n} ell={ell} horizon={horizon}",
            )
        )
        values = brute
    return HankelReport(
        n=n,
        ell=ell,
        values=tuple(values),
        horizon=horizon,
        source=source,
        checks=tuple(checks),
    )


def _compare_lists(name: str, expected, got, detail: str = "") -> CheckResult:
    if expected == got:
        return CheckResult(name, True, None, detail)
    for j, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return CheckResult(name, False, (j, e, g), detail)
    if len(expected) != len(got):
        return CheckResult(
            name, False, (min(len(expected), len(got)), len(expected), len(got)),
            detail + " (length mismatch)",
        )
    return CheckResult(name, True, None, detail)


# ---------------------------------------------------------------------------
# Exploration beyond the proved shifts


def conjecture_scan(n: int, ell: int, horizon: int) -> ScanReport:
    """Observe the determinant window at a shift beyond the fraction
    range: value bounds and whether the (anti)periodicity pattern is
    consistent with what the proved shifts satisfy. Output is a report
    of observations, never a claim."""
    if ell < n + 2:
        raise ValueError(
            f"shifts up to {n + 1} are settled; the scanner starts at {n + 2}"
        )
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = oracle.hankel_bruteforce_values(n, ell, horizon)
    P = 2 * n * (n + 1)
    sign = -1 if n % 2 else 1
    if horizon <= P:
        verdict = "window_too_small"
    else:
        verdict = "consistent"
        for j in range(horizon - P):
            if values[j + P] != sign * values[j]:
                verdict = "violated"
                break
    return ScanReport(
        n=n,
        ell=ell,
        horizon=horizon,
        value_min=min(values),
        value_max=max(values),
        max_abs=max(abs(v) for v in values),
        periodicity_verdict=verdict,
        values=tuple(values),
    )
