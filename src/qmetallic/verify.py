"""Mechanical checkers of the Hankel determinants.

The determinants come by two independent routes: brute force (the
leading minors of the coefficient matrix, from `oracle`, which never
reads the fraction) and the product formula read off the periodic Hankel
fraction. Everything else is cross-examination: value-set and
antiperiodicity checks, the three-term Gale-Robinson recurrence, the
contiguity identity linking consecutive coefficient shifts, closed-form
sign reconstruction with its symmetry, support-set membership by residue
conditions, prime-field runs with cycle detection, an exploratory
scanner for the shift just beyond the proved range, and Catalan/Motzkin
baselines that pin the brute-force oracle to classical values.

Checks return data, not exceptions: a CheckResult carries pass/fail plus
the first counterexample, so a failing run is directly diagnosable.
"""

from __future__ import annotations

from . import SUITES
from .algebra import Poly, Record, ZZ, is_prime, prime_field
from .hfrac import (
    expected_hfraction,
    hankel_values_from_hfraction,
    hfraction_of_quadratic,
    hfraction_of_shift,
    metallic_step_cap,
    shifted_model_chain,
    support_profile,
)
from .oracle import hankel_bruteforce_values, hankel_window
from .qseries import catalan_series, metallic_model, motzkin_series

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
    stream. preperiod/period fields are None when the run was
    inconclusive (no cycle within max_steps); inconclusive is not a
    refutation, so `checks` only contains what could be compared."""

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
    return hankel_values_from_hfraction(hfraction_of_shift(n, ell), count)


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
        values = hankel_bruteforce_values(n, ell, horizon)
    else:
        formula = hankel_formula_values(n, ell, horizon)
        brute = hankel_bruteforce_values(n, ell, horizon)
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
    values = hankel_formula_values(n, ell, count)
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
    values = hankel_formula_values(n, ell, horizon + 2 * n + 2)
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
    lhs = hankel_formula_values(n, ell + 1, horizon + 1)
    rhs = hankel_formula_values(n, ell, horizon + n + 2)
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
    got = hfraction_of_quadratic(metallic_model(n), metallic_step_cap(n))
    want = expected_hfraction(n)
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
# Closed-form signs, support indices, and their symmetries


def _sign_pow(e: int) -> int:
    return -1 if e % 2 else 1


def explicit_delta(n: int, p: int, cls: int) -> int:
    """Closed-form value of the determinant at the support index of
    fraction term 3p + cls (cls in {0, 1, 2}), for n >= 3.

    Raises ValueError when p falls outside the displayed range of the
    requested class.
    """
    if n < 3:
        raise ValueError("closed forms assume n >= 3 (smaller n are tabulated)")
    half = n * (n - 1) // 2
    if cls == 0:
        if 0 <= p <= n - 1:
            return _sign_pow(p * half + p * (p - 1) // 2)
        if p == n:
            return _sign_pow(n * (n + 1) * (n + 2) // 2)
        if n + 1 <= p <= 2 * n - 2:
            return _sign_pow((p + 1) * half + n)
    elif cls == 1:
        if 0 <= p <= 2 * n - 2:
            return _sign_pow(p * half + p * (p + 1) // 2)
    elif cls == 2:
        if 0 <= p <= n - 2:
            return _sign_pow((p + 1) * half)
        if p == n - 1:
            return _sign_pow(n * (n - 1) ** 2 // 2)
        if n <= p <= 2 * n - 3:
            return _sign_pow(p * half + (p + 1) * (p + 2) // 2)
    else:
        raise ValueError(f"cls must be 0, 1 or 2, got {cls}")
    raise ValueError(f"p={p} is outside the displayed range of class {cls} for n={n}")


def explicit_support_index(n: int, p: int, cls: int) -> int:
    """Closed-form support index s of fraction term 3p + cls, n >= 3."""
    if n < 3:
        raise ValueError("closed forms assume n >= 3")
    if cls == 0:
        if 0 <= p <= n - 1:
            return p * (n + 1)
        if p == n:
            return (n + 1) ** 2
        if n + 1 <= p <= 2 * n - 2:
            return 1 + (p + 3) * n
    elif cls == 1:
        if 0 <= p <= n - 1:
            return 1 + p * (n + 1)
        if n <= p <= 2 * n - 2:
            return n + (p + 1) * (n + 1)
    elif cls == 2:
        if 0 <= p <= n - 2:
            return (p + 1) * n
        if p == n - 1:
            return n * (n + 1)
        if n <= p <= 2 * n - 3:
            return (p + 2) * (n + 1)
    else:
        raise ValueError(f"cls must be 0, 1 or 2, got {cls}")
    raise ValueError(f"p={p} is outside the displayed range of class {cls} for n={n}")


def _class_ranges(n: int):
    # (cls, max p) triples tiling the fraction terms 0..6n-6, 1..6n-5, 2..6n-7
    return ((0, 2 * n - 2), (1, 2 * n - 2), (2, 2 * n - 3))


def explicit_delta_sequence(n: int) -> list:
    """One full (anti)period of determinant values, reconstructed purely
    from the closed-form support indices and signs (zero off-support)."""
    P = 2 * n * (n + 1)
    out = [0] * P
    for cls, pmax in _class_ranges(n):
        for p in range(pmax + 1):
            out[explicit_support_index(n, p, cls)] = explicit_delta(n, p, cls)
    return out


def check_explicit_reconstruction(n: int) -> CheckResult:
    """Closed-form reconstruction equals the brute-force determinants
    over a full (anti)period."""
    P = 2 * n * (n + 1)
    return _compare_lists(
        "explicit_delta_reconstruction",
        hankel_bruteforce_values(n, 0, P),
        explicit_delta_sequence(n),
        detail=f"n={n} window={P}",
    )


def check_delta_symmetry(n: int) -> CheckResult:
    """Palindromic symmetry of the base determinant sequence:
    delta_j = (-1)^(n(n+1)/2) delta_{(2n+1)(n+1)-j}."""
    M = (2 * n + 1) * (n + 1)
    values = hankel_formula_values(n, 0, M + 1)
    sign = _sign_pow(n * (n + 1) // 2)
    want = [sign * v for v in reversed(values)]
    return _compare_lists("delta_symmetry", want, values, f"n={n} span={M}")


def support_membership(n: int, j: int):
    """(membership, witness) of index j in the nonzero-determinant set.

    Membership is decided by residue conditions (i)-(v) inside one
    period window, after reducing j by multiples of 2n(n+1) (the window
    keeps its right endpoint). n >= 3.
    """
    if n < 3:
        raise ValueError("the residue characterization assumes n >= 3")
    if j < 0:
        raise ValueError("index must be >= 0")
    P = 2 * n * (n + 1)
    if j > P:
        j = (j - 1) % P + 1
    if j % (n + 1) == 0:
        return True, "i"
    if j % (n + 1) == 1 and 1 <= j <= n * n:
        return True, "ii"
    if j % (n + 1) == n and n + (n + 1) ** 2 <= j <= n + (2 * n - 1) * (n + 1):
        return True, "iii"
    if j % n == 0 and n <= j <= (n - 1) * n:
        return True, "iv"
    if j % n == 1 and 1 + (n + 4) * n <= j <= 1 + (2 * n + 1) * n:
        return True, "v"
    return False, None


def check_support_membership(n: int) -> CheckResult:
    """Residue-condition membership agrees with vanishing of the actual
    determinants out to beyond one full period."""
    top = 2 * n * (n + 2) + 1
    values = hankel_formula_values(n, 0, top + 1)
    actual = [v != 0 for v in values]
    claimed = [support_membership(n, j)[0] for j in range(top + 1)]
    return _compare_lists(
        "support_membership", actual, claimed, f"n={n} max_index={top}"
    )


def support_sets(n: int):
    """The three support classes within one period window, as sets:
    support indices of fraction terms congruent to 0, 1, 2 mod 3."""
    prof = support_profile(expected_hfraction(n), 6 * n - 4)
    out = ([], [], [])
    for i, s in enumerate(prof.s_seq):
        out[i % 3].append(s)
    return tuple(frozenset(c) for c in out)


def check_profile_identities(n: int) -> list:
    """Index bookkeeping identities of the fraction's k/s/eps sequences:
    palindromes, half-period bijection, translation laws, and the
    closed-form endpoint values."""
    if n < 3:
        raise ValueError("profile identities assume n >= 3")
    prof = support_profile(expected_hfraction(n), 6 * n - 1)
    k, s, eps = prof.k_seq, prof.s_seq, prof.eps_seq
    detail = f"n={n}"
    out = []

    def pairwise(name, pairs):
        wants = [want for want, _ in pairs]
        gots = [got for _, got in pairs]
        out.append(_compare_lists(name, wants, gots, detail))

    pairwise("k_palindrome", [(k[i], k[6 * n - 2 - i]) for i in range(6 * n - 1)])
    pairwise("k_half_period_shift", [(k[i], k[i + 3 * n + 1]) for i in range(3 * n - 2)])
    pairwise("k_half_palindrome", [(k[i], k[3 * n - 3 - i]) for i in range(3 * n - 2)])
    pairwise(
        "s_translation",
        [(s[i] + n + (n + 1) ** 2, s[i + 3 * n + 1]) for i in range(3 * n - 1)],
    )
    pairwise(
        "s_reflection",
        [((2 * n + 1) * (n + 1), s[i] + s[6 * n - 1 - i]) for i in range(6 * n)],
    )
    e_per = n * (n + 1) * (2 * n + 1) // 6
    pairwise(
        "eps_translation",
        [(eps[i] + e_per, eps[i + 3 * n + 1]) for i in range(3 * n - 1)],
    )
    e_ref = e_per + n * (n - 1) * (n - 2) // 3
    pairwise(
        "eps_reflection",
        [(e_ref, eps[i] + eps[6 * n - 1 - i]) for i in range(6 * n)],
    )
    pairwise("s_period_endpoint", [(2 * n * (n + 1), s[6 * n - 4])])
    pairwise(
        "eps_period_endpoint",
        [((2 * n - 1) * (n * n - n + 3) // 3, eps[6 * n - 4])],
    )
    closed_s = []
    for cls, pmax in _class_ranges(n):
        for p in range(pmax + 1):
            closed_s.append((explicit_support_index(n, p, cls), s[3 * p + cls]))
    pairwise("s_closed_form", closed_s)
    return out


def check_stream_symmetries(n: int) -> list:
    """Numerator/denominator symmetries of the rendered fraction stream:
    a full-period palindrome, a half-period palindrome with a linear
    correction on denominators, and a half-period translation."""
    if n < 3:
        raise ValueError("stream symmetries assume n >= 3")
    hf = expected_hfraction(n)
    levels = tuple(hf.rendered(j) for j in range(6 * n - 1))
    alpha = lambda i: levels[i][0]
    beta = lambda i: levels[i][1]
    q = Poly.q(ZZ)
    detail = f"n={n}"
    out = []

    def scan(name, pairs):
        for i, (want, got) in pairs:
            if want != got:
                out.append(CheckResult(name, False, (i, want, got), detail))
                return
        out.append(CheckResult(name, True, None, detail))

    scan(
        "stream_full_palindrome",
        [(i, (alpha(6 * n - 1 - i), alpha(i))) for i in range(1, 6 * n - 1)]
        + [(i, (beta(6 * n - 2 - i), beta(i))) for i in range(1, 6 * n - 2)],
    )
    chi = {0: 0, 1: 1, 2: -1}
    half_pairs = [(i, (alpha(3 * n - 2 - i), alpha(i))) for i in range(1, 3 * n - 2)]
    half_pairs.append((0, (beta(3 * n - 3) - q, beta(0))))
    for i in range(1, 3 * n - 3):
        corr = q.scale(chi[i % 3])
        half_pairs.append((i, (beta(3 * n - 3 - i) + corr, beta(i))))
    scan("stream_half_palindrome", half_pairs)
    scan(
        "stream_half_translation",
        [(i, (alpha(i + 3 * n + 1), alpha(i))) for i in range(1, 3 * n - 2)],
    )
    return out


# ---------------------------------------------------------------------------
# Prime fields


def _ultimate_period(vals):
    """Empirical (preperiod, period) of a sequence window, or None when
    no period shows at least twice within the window.

    Among all candidates the one with the shortest preperiod wins (then
    the shortest period): streams here are mostly zeros, so a trailing
    run would otherwise always report period 1 with a huge preperiod.
    """
    L = len(vals)
    best = None
    for d in range(1, L // 2 + 1):
        i = L - d - 1
        while i >= 0 and vals[i] == vals[i + d]:
            i -= 1
        e = i + 1
        if e + 2 * d <= L and (best is None or (e, d) < best):
            best = (e, d)
            if e == 0:
                break
    return best


def modp_analysis(
    n: int, ell: int, p: int, max_steps: int = 4000, hankel_window: int = 61
) -> ModpReport:
    """Run the expansion over GF(p) on the ell-fold shifted model and
    report cycle data for the fraction term stream and the determinant
    stream, plus the reduction cross-check.

    The model is built exactly over the integers and then reduced, so
    its defining constraints survive verbatim. If no cycle (and no
    termination) appears within max_steps, the report is inconclusive;
    periods are None and only the conclusively computable checks run.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if ell < 0:
        raise ValueError("shift must be >= 0")
    dom = prime_field(p)
    exact = shifted_model_chain(n, ell)
    checks = []

    exact_window = (
        hankel_formula_values(n, ell, hankel_window)
        if ell <= n + 1
        else hankel_bruteforce_values(n, ell, hankel_window)
    )
    reduced_exact = [v % p for v in exact_window]

    if all(c % p == 0 for c in exact.a.coeffs):
        # the shifted series vanishes mod p: fraction degenerates, all
        # determinants past index 0 are zero
        fp_vals = [1] + [0] * (hankel_window - 1)
        checks.append(
            _compare_lists(
                "hankel_mod_p_two_routes",
                reduced_exact,
                fp_vals,
                detail=f"n={n} ell={ell} p={p} (series vanishes mod p)",
            )
        )
        return ModpReport(
            n=n, ell=ell, p=p, max_steps=max_steps, conclusive=True,
            hfraction_preperiod=0, hfraction_period=0, hfraction_terminated=True,
            hankel_preperiod=1, hankel_period=1, hankel_window=hankel_window,
            checks=tuple(checks),
        )

    model_p = exact.map_domain(dom).validate()
    hf = hfraction_of_quadratic(model_p, max_steps)
    conclusive = bool(hf.cycle) or hf.terminated
    if not conclusive:
        return ModpReport(
            n=n, ell=ell, p=p, max_steps=max_steps, conclusive=False,
            hankel_window=0, checks=(),
        )

    if hf.terminated:
        pre, per = hf.n_stored_terms(), 0
    else:
        pre, per = 1 + len(hf.preamble), len(hf.cycle)

    fp_vals = hankel_values_from_hfraction(hf, hankel_window)
    checks.append(
        _compare_lists(
            "hankel_mod_p_two_routes",
            reduced_exact,
            fp_vals,
            detail=f"n={n} ell={ell} p={p} window={hankel_window}",
        )
    )

    if hf.terminated:
        span = sum(1 + t.k for t in hf.stream(hf.n_stored_terms()))
        window = span + 4
    else:
        span = sum(1 + t.k for t in hf.cycle)
        window = min(4000, max(150, 3 * span * max(p - 1, 1)))
    stream = hankel_values_from_hfraction(hf, window)
    found = _ultimate_period(stream)
    h_pre, h_per = found if found else (None, None)
    return ModpReport(
        n=n, ell=ell, p=p, max_steps=max_steps, conclusive=True,
        hfraction_preperiod=pre, hfraction_period=per,
        hfraction_terminated=hf.terminated,
        hankel_preperiod=h_pre, hankel_period=h_per, hankel_window=window,
        checks=tuple(checks),
    )


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
    values = hankel_bruteforce_values(n, ell, horizon)
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


# ---------------------------------------------------------------------------
# Classical baselines


def baseline_catalan_motzkin() -> list:
    """Pin the brute-force oracle to classical Hankel evaluations of the
    Catalan and Motzkin series."""
    cat, mot = catalan_series(30), motzkin_series(30)
    mot1 = hankel_window(mot, 1, 13)
    pattern = [1, 1, 0, -1, -1, 0]
    table = (  # name, expected, got, shift
        ("catalan_shift0_all_ones", [1] * 11, hankel_window(cat, 0, 11), 0),
        ("catalan_shift1_all_ones", [1] * 11, hankel_window(cat, 1, 11), 1),
        ("catalan_shift2_linear", [j + 1 for j in range(11)], hankel_window(cat, 2, 11), 2),
        # the product over 1 <= a <= b < 3 of (2j + a + b) / (a + b)
        (
            "catalan_shift3_product_formula",
            [(2 * j + 2) * (2 * j + 3) * (2 * j + 4) // 24 for j in range(9)],
            hankel_window(cat, 3, 9),
            3,
        ),
        ("motzkin_shift0_all_ones", [1] * 11, hankel_window(mot, 0, 11), 0),
        ("motzkin_shift1_six_periodic", [pattern[j % 6] for j in range(13)], mot1, 1),
        # the one derived check: the shift-1 window obeys D_{j+2} D_j = D_{j+1}^2 - 1
        (
            "motzkin_shift1_somos_residual",
            [0] * 11,
            [mot1[j + 2] * mot1[j] - (mot1[j + 1] ** 2 - 1) for j in range(11)],
            1,
        ),
        (
            "motzkin_shift2_prefix",
            [1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8],
            hankel_window(mot, 2, 12),
            2,
        ),
        (
            "motzkin_shift3_prefix",
            [1, 4, 3, -6, -16, -10, 15, 36, 21, -28, -64, -36, 45],
            hankel_window(mot, 3, 13),
            3,
        ),
    )
    return [
        _compare_lists(name, want, got, detail=f"shift {ell}")
        for name, want, got, ell in table
    ]


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
            rhs = hankel_formula_values(n, 0, horizon + n + 2)
            for ell in range(n + 1):
                lhs = hankel_formula_values(n, ell + 1, horizon + n + 2)
                out.append(_contiguity(n, ell, horizon, lhs, rhs))
                rhs = lhs
    if suite in ("thm51", "all"):
        for n in n_values:
            if n < 3:
                continue
            out.append(check_explicit_reconstruction(n))
            out.append(check_delta_symmetry(n))
            out.extend(check_profile_identities(n))
            out.append(check_support_membership(n))
    if suite in ("symmetries", "all"):
        for n in n_values:
            if n < 3:
                continue
            out.extend(check_stream_symmetries(n))
    if suite in ("baselines", "all"):
        out.extend(baseline_catalan_motzkin())
    return out
