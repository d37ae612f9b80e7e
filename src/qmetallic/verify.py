"""Mechanical checkers of the Hankel determinants: the theorem suites.

The determinants come by two independent routes: brute force (the
leading minors of the coefficient matrix, from `oracle`, which never
reads the fraction) and the product formula read off the periodic Hankel
fraction (`reports.hankel_formula_values`). Everything else is
cross-examination. Here: the fraction's expansion against its template
(thmA), value-set and antiperiodicity checks (thmB), the three-term
Gale-Robinson recurrence (thmC), the contiguity identity linking
consecutive coefficient shifts (thmD), and `run_suite`, which runs the
named suites.

The checkers of the other suites are in `crosschecks` (the Theorem 5.1
closed forms of `explicit` with their symmetry and support-set
membership, the fraction's stream symmetries, and the Catalan/Motzkin
baselines that pin the brute-force oracle to classical values), and the
prime-field runs with cycle detection are in `modp`. This module binds
every other module as the package's lazy module and calls through it,
so thmB..thmD run neither the expansion nor `oracle`, `explicit` or
`modp`. Nine names that it used to hold are still served here, from
their modules, because the benchmark's tracer wraps them here: the six
checkers of `crosschecks`, `modp_analysis`, `is_prime` and
`hankel_bruteforce_values`.

Checks return data, not exceptions: a `reports.CheckResult` carries
pass/fail plus the first counterexample, so a failing run is directly
diagnosable.
"""

from __future__ import annotations

from . import SUITES, crosschecks, hfrac, qseries, reports, template
from .reports import CheckResult, _compare_lists


# ---------------------------------------------------------------------------
# Theorem checkers


def check_value_set_and_periodicity(n: int, ell: int, periods: int = 2) -> CheckResult:
    """Values lie in {-1, 0, 1} and repeat with sign (-1)^n after
    2n(n+1) steps, verified over `periods` full (anti)periods."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    if not 0 <= ell <= n + 1:
        raise ValueError(f"proved for shifts 0..{n + 1} only, got {ell}")
    P = 2 * n * (n + 1)
    count = (periods + 1) * P
    values = reports.hankel_formula_values(n, ell, count)
    detail = f"n={n} ell={ell} periods={periods}"
    name = "value_set_and_periodicity"
    if not set(values) <= {-1, 0, 1}:
        for j, v in enumerate(values):
            if v not in (-1, 0, 1):
                return CheckResult(name, False, (j, "value in {-1,0,1}", v), detail)
    want = values[:periods * P]
    if n % 2:
        want = [-v for v in want]
    got = values[P:]
    if got != want:
        for j, (w, g) in enumerate(zip(want, got)):
            if w != g:
                return CheckResult(name, False, (j, w, g), detail + f" (index {j}+{P})")
    return CheckResult(name, True, None, detail)


def gale_robinson_check(n: int, ell: int, horizon: int) -> CheckResult:
    """The residuals
        Gamma_j = D_j D_{j+2n+2} - D_{j+1} D_{j+2n+1} + D_{j+n+1}^2
    vanish for j < horizon; the counterexample is (j, 0, Gamma_j) at the
    first that does not. Shift range 0..n+1 (formula-backed values)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    values = reports.hankel_formula_values(n, ell, horizon + 2 * n + 2)
    detail = f"n={n} ell={ell} horizon={horizon}"
    m = 2 * n + 2
    gammas = [
        a * d - b * c + e * e
        for a, b, c, d, e in zip(
            values[:horizon],
            values[1:horizon + 1],
            values[m - 1:horizon + m - 1],
            values[m:horizon + m],
            values[n + 1:horizon + n + 1],
        )
    ]
    return _compare_lists("gale_robinson", [0] * horizon, gammas, detail)


def check_contiguity(n: int, ell: int, horizon: int) -> CheckResult:
    """Shift ell+1 values against shift ell values n+1 indices later,
    with the alternating sign (-1)^(j + n(n+2l-1)/2)."""
    if not 0 <= ell <= n:
        raise ValueError(f"contiguity links shifts ell..ell+1 for ell in 0..{n}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    lhs = reports.hankel_formula_values(n, ell + 1, horizon + 1)
    rhs = reports.hankel_formula_values(n, ell, horizon + n + 2)
    return _contiguity(n, ell, horizon, lhs, rhs)


def _contiguity(n: int, ell: int, horizon: int, lhs: list, rhs: list) -> CheckResult:
    """check_contiguity on given windows: lhs holds at least horizon+1
    values of shift ell+1, rhs at least horizon+n+2 values of shift ell."""
    lhs = lhs[:horizon + 1]
    base = n * (n + 2 * ell - 1)  # always even
    detail = f"n={n} ell={ell} horizon={horizon}"
    want = rhs[n + 1:horizon + n + 2]
    # the sign is -1 where j + base/2 is odd
    odd = 1 - base // 2 % 2
    want[odd::2] = [-v for v in want[odd::2]]
    return _compare_lists("contiguity", want, lhs, detail)


def check_hfraction_shape(n: int) -> CheckResult:
    """The discovered fraction of the metallic model equals the
    closed-form template, term for term."""
    model = qseries.metallic_model(n)
    got = hfrac.hfraction_of_quadratic(model, hfrac.metallic_step_cap(n))
    want = template.expected_hfraction(n)
    detail = f"n={n}"
    if got == want:
        return CheckResult("hfraction_shape", True, None, detail)
    count = max(got.n_stored_terms(), want.n_stored_terms()) + 1
    padded = lambda hf: (hf.stream(count) + [None] * count)[:count]
    result = _compare_lists("hfraction_shape", padded(want), padded(got), detail)
    if not result.passed:
        return result
    return CheckResult(
        "hfraction_shape", False, (0, want, got), detail + " (structure mismatch)"
    )


# ---------------------------------------------------------------------------
# Suites


def run_suite(suite: str, n_values) -> list:
    """All checks of one named suite over the given n values. Suites
    whose statements need n >= 3 silently skip smaller n."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    n_values = list(n_values)
    out = []
    if suite in ("thmA", "all"):
        for n in n_values:
            out.append(check_hfraction_shape(n))
    if suite in ("thmB", "all"):
        for n in n_values:
            for ell in range(n + 2):
                out.append(check_value_set_and_periodicity(n, ell))
    if suite in ("thmC", "all"):
        for n in n_values:
            for ell in range(n + 2):
                out.append(gale_robinson_check(n, ell, 2 * n * (n + 1)))
    if suite in ("thmD", "all"):
        for n in n_values:
            # one window per shift, read as lhs for ell-1 and as rhs for ell
            horizon = 4 * n * (n + 1)
            rhs = reports.hankel_formula_values(n, 0, horizon + n + 2)
            for ell in range(n + 1):
                lhs = reports.hankel_formula_values(n, ell + 1, horizon + n + 2)
                out.append(_contiguity(n, ell, horizon, lhs, rhs))
                rhs = lhs
    if suite in ("thm51", "all"):
        for n in n_values:
            if n < 3:
                continue
            out.append(crosschecks.check_explicit_reconstruction(n))
            out.append(crosschecks.check_delta_symmetry(n))
            out.extend(crosschecks.check_profile_identities(n))
            out.append(crosschecks.check_support_membership(n))
    if suite in ("symmetries", "all"):
        for n in n_values:
            if n < 3:
                continue
            out.extend(crosschecks.check_stream_symmetries(n))
    if suite in ("baselines", "all"):
        out.extend(crosschecks.baseline_catalan_motzkin())
    return out


# ---------------------------------------------------------------------------
# Names defined elsewhere that `bench/tracer.py` wraps on this module,
# served here on first read (PEP 562), so that a request compiles their
# modules only when it calls into them

_CROSSCHECKS = (
    "check_explicit_reconstruction", "check_delta_symmetry",
    "check_support_membership", "check_profile_identities",
    "check_stream_symmetries", "baseline_catalan_motzkin",
)


def __getattr__(name: str):
    from . import fields, modp, oracle

    if name in _CROSSCHECKS:
        return getattr(crosschecks, name)
    if name == "modp_analysis":
        return modp.modp_analysis
    if name == "is_prime":
        return fields.is_prime
    if name == "hankel_bruteforce_values":
        return oracle.hankel_bruteforce_values
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
