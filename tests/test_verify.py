"""Dual-route determinant checks, closed-form reconstructions, mod-p runs."""

import hashlib
import math
import random
import time

import pytest

from qmetallic import (
    CheckResult,
    HFTerm,
    PeriodicHFraction,
    Poly,
    PrecisionError,
    QQ,
    Series,
    SupportProfile,
    ZZ,
    baseline_catalan_motzkin,
    catalan_series,
    check_contiguity,
    check_delta_symmetry,
    check_explicit_reconstruction,
    check_hfraction_shape,
    check_profile_identities,
    check_stream_symmetries,
    check_support_membership,
    check_value_set_and_periodicity,
    conjecture_scan,
    explicit_delta,
    explicit_delta_sequence,
    explicit_support_index,
    expected_hfraction,
    gale_robinson_check,
    hankel_bruteforce_values,
    hankel_formula_values,
    hankel_sequence,
    hankel_window,
    hfraction_of_quadratic,
    is_prime,
    metallic_model,
    metallic_series,
    metallic_step_cap,
    modp_analysis,
    motzkin_series,
    prime_field,
    run_suite,
    shifted_model_chain,
    support_membership,
    support_profile,
    support_sets,
)
from qmetallic import verify
from qmetallic.algebra import PRIMALITY_BOUND
from qmetallic.verify import _ultimate_period

import goldens


# --- brute-force oracle ---------------------------------------------------


def test_bruteforce_size_zero_is_one():
    assert hankel_window(catalan_series(4), 0, 1) == [1]


def test_bruteforce_catalan_shift_two_counts_up():
    f = catalan_series(12)
    assert hankel_window(f, 2, 4) == [1, 2, 3, 4]


def test_bruteforce_motzkin_shift_one_window():
    f = motzkin_series(16)
    assert hankel_window(f, 1, 8) == [1, 1, 0, -1, -1, 0, 1, 1]


def test_bruteforce_golden_shift_three_row():
    f = metallic_series(1, 24)
    assert hankel_window(f, 3, 8) == goldens.SHIFTED_ROWS_N1[3]


def test_bruteforce_reports_needed_precision():
    f = catalan_series(5)
    with pytest.raises(PrecisionError, match=">= 7"):
        hankel_window(f, 2, 4)


def test_bruteforce_rejects_negative_arguments():
    # unrefused, a negative shift or count wraps the coefficient slices
    # around: (-10, 4) would read the window at shift +10, (1, -2) give []
    for F, ell, count in (
        (catalan_series(6), -1, 2),
        (catalan_series(6), 1, -2),
        (catalan_series(20), -10, 4),
    ):
        with pytest.raises(ValueError, match="must be >= 0"):
            hankel_window(F, ell, count)


def test_window_refuses_a_series_off_the_integers():
    # the one-pass kernel divides with //: over QQ it would floor, silently
    f = Series(QQ, [QQ.coerce(c) / 2 for c in (1, 3, 2, 5, 7)], 5)
    with pytest.raises(ValueError, match="over ZZ"):
        hankel_window(f, 0, 3)


P61 = 2**61 - 1


def leading_minors_mod_p(rows, p=P61) -> list:
    """[1, d_1, ..., d_n] mod p, d_k the top-left k x k minor of a square
    integer matrix, by Gaussian elimination over GF(p); an independent
    reference for the oracle, sharing no code with `algebra`.

    Each row is reduced by the normalised pivot rows above it and pivots
    on its leftmost nonzero column, as in `leading_minors`. Reduced row t
    vanishes left of its pivot column c_t and at c_s for s < t, so d_k is
    the signed product of the first k pivots when c_0..c_{k-1} are
    0..k-1, and 0 otherwise; a row that vanishes ends every larger minor.
    """
    n = len(rows)
    minors, units, cols = [1], [], []
    det, inversions = 1, 0
    for i, h in enumerate(rows):
        r = [x % p for x in h]
        for c, u in units:
            f = r[c]
            if f:
                r = [(x - f * y) % p for x, y in zip(r, u)]
        c = next((j for j, x in enumerate(r) if x), None)
        if c is None:
            return minors + [0] * (n - i)
        inv = pow(r[c], -1, p)
        units.append((c, [x * inv % p for x in r]))
        det = det * r[c] % p
        inversions += sum(c < d for d in cols)
        cols.append(c)
        whole = max(cols) == i  # the first i+1 pivot columns are 0..i
        minors.append((-det if inversions & 1 else det) % p if whole else 0)
    return minors


def test_one_pass_window_matches_per_size_determinants():
    # every determinant of each window, mod 2^61-1, against the reference
    # above applied to the Hankel matrix built here from the coefficients
    for n in range(1, 5):
        count = 4 * n * (n + 1)
        for ell in range(n + 4):
            f = metallic_series(n, ell + 2 * count).coeffs
            size = count - 1
            rows = [[f[ell + a + b] for b in range(size)] for a in range(size)]
            got = [v % P61 for v in hankel_bruteforce_values(n, ell, count)]
            assert got == leading_minors_mod_p(rows), (n, ell)


# --- the two value routes -------------------------------------------------


def test_routes_agree_on_a_sample_grid():
    for n, ell in ((1, 0), (2, 1), (3, 3), (4, 5)):
        count = 2 * n * (n + 1) + 4
        assert hankel_formula_values(n, ell, count) == hankel_bruteforce_values(
            n, ell, count
        )


def test_formula_route_is_bounded_by_the_proved_shifts():
    with pytest.raises(ValueError):
        hankel_formula_values(3, 5, 10)


def test_base_rows_match_published_windows():
    for n in (1, 2, 3):
        period = goldens.DELTA0_PERIOD[n]
        got = hankel_formula_values(n, 0, 2 * len(period))
        assert got[: len(period)] == period
        sign = goldens.DELTA0_NEXT_PERIOD_SIGN[n]
        assert got[len(period) :] == [sign * v for v in period]


def test_golden_shifted_rows():
    for ell, row in goldens.SHIFTED_ROWS_N1.items():
        assert hankel_bruteforce_values(1, ell, len(row)) == row
    assert (
        hankel_bruteforce_values(1, 4, len(goldens.SHIFT4_ROW_N1))
        == goldens.SHIFT4_ROW_N1
    )


def test_sequence_report_runs_both_routes():
    rep = hankel_sequence(2, 1, 20)
    assert rep.source == "both"
    assert len(rep.values) == rep.horizon == 20
    assert [c.name for c in rep.checks] == ["formula_vs_brute_force"]
    assert rep.passed


def test_sequence_report_shapes():
    rep = hankel_sequence(2, 0, 6, source="formula")
    payload = rep.to_json_dict()
    assert set(payload) == {"n", "ell", "horizon", "source", "values", "checks"}
    assert payload["values"] == list(rep.values)


def test_sequence_rejects_unknown_source_and_negative_horizon():
    with pytest.raises(ValueError):
        hankel_sequence(2, 0, 5, source="guess")
    with pytest.raises(ValueError):
        hankel_sequence(2, 0, -1)


def test_empty_horizon_is_fine():
    rep = hankel_sequence(3, 0, 0)
    assert rep.values == () and rep.passed


def test_check_result_json_includes_the_counterexample():
    payload = CheckResult("probe", False, (3, 1, -1), "spot").to_json_dict()
    assert payload == {
        "name": "probe",
        "pass": False,
        "counterexample": {"j": 3, "expected": 1, "got": -1},
        "detail": "spot",
    }


# --- theorem checkers on small instances ------------------------------------


def test_value_set_and_periodicity_small():
    for n in (1, 2, 3):
        for ell in range(n + 2):
            assert check_value_set_and_periodicity(n, ell).passed


def test_value_set_checker_rejects_unproved_shifts():
    with pytest.raises(ValueError):
        check_value_set_and_periodicity(2, 4)
    with pytest.raises(ValueError):
        check_value_set_and_periodicity(2, 0, periods=0)


def test_gale_robinson_residuals_vanish():
    for ell in range(3):
        assert gale_robinson_check(1, ell, 12) == CheckResult(
            "gale_robinson", True, None, f"n=1 ell={ell} horizon=12"
        )


def test_gale_robinson_reports_the_first_nonzero_residual(monkeypatch):
    # n=2, ell=1 values: 1 1 0 -1 0 0 -1 0 1 1 -1 ...; D_9 first enters
    # Gamma_j at j = 9 - (2n+2) = 3, where Gamma_3 = D_3 D_9 - D_4 D_8 + D_6^2
    values = hankel_formula_values(2, 1, 18)
    values[9] += 2
    monkeypatch.setattr(verify, "hankel_formula_values", lambda *args: list(values))
    result = gale_robinson_check(2, 1, 12)
    assert not result.passed
    assert result.counterexample == (3, 0, -1 * 3 - 0 * 1 + (-1) ** 2)


def test_contiguity_small():
    for n in (1, 2, 3):
        for ell in range(n + 1):
            assert check_contiguity(n, ell, 3 * n * (n + 1)).passed
    with pytest.raises(ValueError):
        check_contiguity(2, 3, 10)


# Per-index reference loops for the whole-window checkers: each scans its
# window one index at a time and stops at the first failure.


def reference_value_set_and_periodicity(n, ell, periods=2):
    P = 2 * n * (n + 1)
    values = verify.hankel_formula_values(n, ell, (periods + 1) * P)
    detail = f"n={n} ell={ell} periods={periods}"
    name = "value_set_and_periodicity"
    for j, v in enumerate(values):
        if v not in (-1, 0, 1):
            return CheckResult(name, False, (j, "value in {-1,0,1}", v), detail)
    sign = -1 if n % 2 else 1
    for j in range(periods * P):
        if values[j + P] != sign * values[j]:
            return CheckResult(
                name, False, (j, sign * values[j], values[j + P]),
                detail + f" (index {j}+{P})",
            )
    return CheckResult(name, True, None, detail)


def reference_gale_robinson(n, ell, horizon):
    values = verify.hankel_formula_values(n, ell, horizon + 2 * n + 2)
    detail = f"n={n} ell={ell} horizon={horizon}"
    for j in range(horizon):
        gamma = (
            values[j] * values[j + 2 * n + 2]
            - values[j + 1] * values[j + 2 * n + 1]
            + values[j + n + 1] ** 2
        )
        if gamma:
            return CheckResult("gale_robinson", False, (j, 0, gamma), detail)
    return CheckResult("gale_robinson", True, None, detail)


def reference_contiguity(n, ell, horizon):
    lhs = verify.hankel_formula_values(n, ell + 1, horizon + 1)
    rhs = verify.hankel_formula_values(n, ell, horizon + n + 2)
    base = n * (n + 2 * ell - 1)
    detail = f"n={n} ell={ell} horizon={horizon}"
    for j in range(horizon + 1):
        sign = -1 if (j + base // 2) % 2 else 1
        if lhs[j] != sign * rhs[j + n + 1]:
            return CheckResult(
                "contiguity", False, (j, sign * rhs[j + n + 1], lhs[j]), detail
            )
    return CheckResult("contiguity", True, None, detail)


def corrupt_formula_values(monkeypatch, trial, corrupted_ells):
    """Patch verify.hankel_formula_values so that the windows of the shifts
    in corrupted_ells get 1-3 entries overwritten. The corruption depends
    only on (trial, ell, count), so the fast checker and its reference
    read the same windows."""
    true_values = hankel_formula_values

    def fake(n, ell, count):
        values = true_values(n, ell, count)
        if ell in corrupted_ells:
            rng = random.Random(f"{trial}:{ell}:{count}")
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(count)
                values[pos] = rng.choice([-values[pos], -2, -1, 0, 1, 2, 3])
        return values

    monkeypatch.setattr(verify, "hankel_formula_values", fake)


def as_tuple(result):
    return (result.name, result.passed, result.counterexample, result.detail)


def test_whole_window_checkers_match_the_per_index_loops(monkeypatch):
    rng = random.Random(20261018)
    failed = {"thmB": 0, "thmC": 0, "lhs": 0, "rhs": 0, "both": 0, "range": 0}
    for trial in range(60):
        for n in range(1, 6):  # odd and even n; n = 1, 3 give both parities of base/2
            for ell in range(n + 2):
                corrupted = {ell} if rng.random() < 0.8 else set()
                corrupt_formula_values(monkeypatch, trial, corrupted)
                periods = rng.choice([1, 2, 3])
                fast = check_value_set_and_periodicity(n, ell, periods)
                assert as_tuple(fast) == as_tuple(
                    reference_value_set_and_periodicity(n, ell, periods)
                )
                failed["thmB"] += not fast.passed
                failed["range"] += fast.counterexample is not None and isinstance(
                    fast.counterexample[1], str
                )
                horizon = 2 * n * (n + 1)
                fast = gale_robinson_check(n, ell, horizon)
                assert as_tuple(fast) == as_tuple(reference_gale_robinson(n, ell, horizon))
                failed["thmC"] += not fast.passed
            for ell in range(n + 1):
                side = rng.choice(["none", "lhs", "rhs", "both"])
                corrupted = {"none": set(), "lhs": {ell + 1}, "rhs": {ell},
                             "both": {ell, ell + 1}}[side]
                corrupt_formula_values(monkeypatch, trial, corrupted)
                horizon = 4 * n * (n + 1)
                fast = check_contiguity(n, ell, horizon)
                assert as_tuple(fast) == as_tuple(reference_contiguity(n, ell, horizon))
                if side != "none":
                    failed[side] += not fast.passed
    # every kind of failure was reached, not only passing windows
    assert min(failed.values()) >= 20, failed


def test_thmD_suite_reads_each_window_once_and_matches_check_contiguity(monkeypatch):
    # the suite slices one long window per shift, so the corruption here
    # depends on (trial, ell) only and every shorter window is a prefix
    true_values = hankel_formula_values
    calls = []

    def fake(n, ell, count):
        calls.append((n, ell))
        values = true_values(n, ell, count)
        if ell in corrupted:
            rng = random.Random(f"{trial}:{ell}")
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(4 * n * (n + 1) + n + 2)
                value = rng.choice([None, -2, -1, 0, 1, 2, 3])
                if pos < count:
                    values[pos] = -values[pos] if value is None else value
        return values

    monkeypatch.setattr(verify, "hankel_formula_values", fake)
    rng = random.Random(7)
    failures = 0
    for trial in range(40):
        n = 1 + trial % 5
        corrupted = {ell for ell in range(n + 2) if rng.random() < 0.3}
        calls.clear()
        suite = run_suite("thmD", [n])
        assert sorted(calls) == [(n, ell) for ell in range(n + 2)]
        horizon = 4 * n * (n + 1)
        assert [as_tuple(r) for r in suite] == [
            as_tuple(check_contiguity(n, ell, horizon)) for ell in range(n + 1)
        ]
        failures += sum(not r.passed for r in suite)
    assert failures >= 20


def test_discovered_fraction_matches_template():
    assert check_hfraction_shape(4).passed


# --- closed-form reconstruction -----------------------------------------------


def test_explicit_sequence_equals_brute_force():
    for n in (3, 4):
        seq = explicit_delta_sequence(n)
        assert len(seq) == 2 * n * (n + 1)
        assert seq == hankel_bruteforce_values(n, 0, len(seq))
        assert check_explicit_reconstruction(n).passed


def test_explicit_values_are_signs_on_support():
    n = 5
    for cls, pmax in ((0, 2 * n - 2), (1, 2 * n - 2), (2, 2 * n - 3)):
        for p in range(pmax + 1):
            assert explicit_delta(n, p, cls) in (-1, 1)
            assert 0 <= explicit_support_index(n, p, cls) <= 2 * n * (n + 1) - 1


def test_explicit_forms_reject_out_of_range_input():
    with pytest.raises(ValueError):
        explicit_delta(5, 9, 2)  # class 2 stops at p = 2n-3
    with pytest.raises(ValueError):
        explicit_delta(5, 0, 3)
    with pytest.raises(ValueError):
        explicit_delta(2, 0, 0)
    with pytest.raises(ValueError):
        explicit_support_index(5, 2 * 5 - 1, 1)


def test_delta_symmetry_small():
    for n in (3, 4, 5):
        assert check_delta_symmetry(n).passed


# --- support characterization --------------------------------------------------


def test_support_sets_for_n_5():
    assert support_sets(5) == goldens.SUPPORT_SETS_N5


def test_support_membership_against_actual_values():
    for n in (3, 5):
        assert check_support_membership(n).passed


def test_membership_witnesses():
    assert support_membership(5, 0) == (True, "i")
    assert support_membership(5, 1) == (True, "ii")
    assert support_membership(5, 2) == (False, None)
    assert support_membership(5, 5) == (True, "iv")
    # reduction by whole periods keeps the window's right endpoint
    P = 2 * 5 * 6
    assert support_membership(5, P) == (True, "i")
    assert support_membership(5, P + 2)[0] == support_membership(5, 2)[0]
    with pytest.raises(ValueError):
        support_membership(2, 4)
    with pytest.raises(ValueError):
        support_membership(5, -1)


def looped_membership(n, j):
    """support_membership after moving j into the window one period at a
    time, the reduction's first form."""
    P = 2 * n * (n + 1)
    while j > P:
        j -= P
    return support_membership(n, j)


def test_membership_reduces_an_index_of_any_size_at_once():
    for n in range(3, 7):
        P = 2 * n * (n + 1)
        for j in range(5 * P):
            assert support_membership(n, j) == looped_membership(n, j), (n, j)
        # the loop would take about 10^30 / P steps here
        whole = 10**30 // P * P
        for j in range(1, P + 1):
            assert support_membership(n, whole + j) == support_membership(n, j)


# --- sequence bookkeeping and stream symmetry ------------------------------------


def test_profile_identities_all_pass():
    for n in (3, 7):
        results = check_profile_identities(n)
        assert all(r.passed for r in results)
        assert {r.name for r in results} == {
            "k_palindrome",
            "k_half_period_shift",
            "k_half_palindrome",
            "s_translation",
            "s_reflection",
            "eps_translation",
            "eps_reflection",
            "s_period_endpoint",
            "eps_period_endpoint",
            "s_closed_form",
        }


def test_stream_symmetries_all_pass():
    results = check_stream_symmetries(5)
    assert all(r.passed for r in results)
    assert {r.name for r in results} == {
        "stream_full_palindrome",
        "stream_half_palindrome",
        "stream_half_translation",
    }


# --- first-mismatch reporting under corruption -------------------------------------
#
# Per-index reference loops for the checkers that report through
# verify._compare_lists: each is the loop the checker ran before, and reads
# the same (possibly corrupted) data through the verify module.


def reference_delta_symmetry(n):
    M = (2 * n + 1) * (n + 1)
    values = verify.hankel_formula_values(n, 0, M + 1)
    sign = -1 if n * (n + 1) // 2 % 2 else 1
    detail = f"n={n} span={M}"
    for j in range(M + 1):
        if values[j] != sign * values[M - j]:
            return CheckResult(
                "delta_symmetry", False, (j, sign * values[M - j], values[j]), detail
            )
    return CheckResult("delta_symmetry", True, None, detail)


def reference_support_membership(n):
    top = 2 * n * (n + 2) + 1
    values = verify.hankel_formula_values(n, 0, top + 1)
    detail = f"n={n} max_index={top}"
    for j in range(top + 1):
        claimed = support_membership(n, j)[0]
        actual = values[j] != 0
        if claimed != actual:
            return CheckResult(
                "support_membership", False, (j, actual, claimed), detail
            )
    return CheckResult("support_membership", True, None, detail)


def reference_profile_identities(n):
    prof = verify.support_profile(verify.expected_hfraction(n), 6 * n - 1)
    k, s, eps = prof.k_seq, prof.s_seq, prof.eps_seq
    detail = f"n={n}"
    out = []

    def pairwise(name, pairs):
        for i, (want, got) in enumerate(pairs):
            if want != got:
                out.append(CheckResult(name, False, (i, want, got), detail))
                return
        out.append(CheckResult(name, True, None, detail))

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
    for cls, pmax in ((0, 2 * n - 2), (1, 2 * n - 2), (2, 2 * n - 3)):
        for p in range(pmax + 1):
            closed_s.append((explicit_support_index(n, p, cls), s[3 * p + cls]))
    pairwise("s_closed_form", closed_s)
    return out


def reference_hfraction_shape(n):
    got = verify.hfraction_of_quadratic(metallic_model(n), metallic_step_cap(n))
    want = expected_hfraction(n)
    detail = f"n={n}"
    if got == want:
        return CheckResult("hfraction_shape", True, None, detail)
    count = max(got.n_stored_terms(), want.n_stored_terms()) + 1
    for i in range(count):
        try:
            g = got.term(i)
        except IndexError:
            g = None
        try:
            w = want.term(i)
        except IndexError:
            w = None
        if g != w:
            return CheckResult("hfraction_shape", False, (i, w, g), detail)
    return CheckResult(
        "hfraction_shape", False, (0, want, got), detail + " (structure mismatch)"
    )


def corrupt_support_profile(monkeypatch, trial):
    """Patch verify.support_profile so that 1-3 entries of its k, s and eps
    sequences move by a small amount, seeded by (trial, horizon)."""
    true_profile = support_profile

    def fake(H, horizon):
        prof = true_profile(H, horizon)
        seqs = [list(prof.k_seq), list(prof.s_seq), list(prof.eps_seq)]
        rng = random.Random(f"{trial}:{horizon}")
        for _ in range(rng.randint(1, 3)):
            seq = rng.choice(seqs)
            seq[rng.randrange(len(seq))] += rng.choice([-2, -1, 1, 2])
        return SupportProfile(*map(tuple, seqs))

    monkeypatch.setattr(verify, "support_profile", fake)


HFRACTION_CORRUPTIONS = ("v", "k", "d", "doubled", "prefix", "extra")


def corrupt_hfraction(monkeypatch, trial, kind):
    """Patch verify.hfraction_of_quadratic so that the discovered fraction
    differs from the template in one seeded way: a term's v, k or D, a
    cycle stored twice (same stream), a terminated prefix (a shorter
    stream), or an extra preamble term (a shifted stream)."""
    true_expand = hfraction_of_quadratic

    def fake(model, max_steps):
        hf = true_expand(model, max_steps)
        rng = random.Random(f"{trial}:{kind}")
        terms = [hf.head, *hf.cycle]
        if kind == "doubled":
            return PeriodicHFraction(hf.head, (), hf.cycle * 2)
        if kind == "prefix":
            cut = rng.randrange(len(terms))
            return PeriodicHFraction(hf.head, tuple(terms[1:cut + 1]), terminated=True)
        if kind == "extra":
            return PeriodicHFraction(hf.head, (rng.choice(terms),), hf.cycle)
        i = rng.randrange(len(terms))
        t = terms[i]
        if kind == "v":
            terms[i] = HFTerm(t.k, -t.v, t.d)
        elif kind == "k":
            terms[i] = HFTerm(t.k + 1, t.v, t.d)
        else:
            terms[i] = HFTerm(t.k, t.v, t.d + Poly.monomial(ZZ, t.k + 1))
        return PeriodicHFraction(terms[0], (), tuple(terms[1:]))

    monkeypatch.setattr(verify, "hfraction_of_quadratic", fake)


def test_compare_lists_checkers_match_the_per_index_loops(monkeypatch):
    rng = random.Random(20261019)
    failed = {
        "thmC": 0, "delta_symmetry": 0, "support_membership": 0,
        "profile": 0, "hfraction": 0, "none_padding": 0, "structure": 0,
    }
    for trial in range(30):
        for n in range(3, 7):
            corrupted = {0} if rng.random() < 0.8 else set()
            corrupt_formula_values(monkeypatch, trial, corrupted)
            fast = check_delta_symmetry(n)
            assert as_tuple(fast) == as_tuple(reference_delta_symmetry(n))
            failed["delta_symmetry"] += not fast.passed
            fast = check_support_membership(n)
            assert as_tuple(fast) == as_tuple(reference_support_membership(n))
            failed["support_membership"] += not fast.passed

            ell = rng.randrange(n + 2)
            corrupt_formula_values(monkeypatch, trial, {ell} if corrupted else set())
            horizon = 2 * n * (n + 1)
            fast = gale_robinson_check(n, ell, horizon)
            assert as_tuple(fast) == as_tuple(reference_gale_robinson(n, ell, horizon))
            failed["thmC"] += not fast.passed

            corrupt_support_profile(monkeypatch, trial)
            fast = check_profile_identities(n)
            assert [as_tuple(r) for r in fast] == [
                as_tuple(r) for r in reference_profile_identities(n)
            ]
            failed["profile"] += sum(not r.passed for r in fast)

            kind = HFRACTION_CORRUPTIONS[(trial + n) % len(HFRACTION_CORRUPTIONS)]
            corrupt_hfraction(monkeypatch, trial, kind)
            fast = check_hfraction_shape(n)
            assert as_tuple(fast) == as_tuple(reference_hfraction_shape(n))
            failed["hfraction"] += not fast.passed
            failed["none_padding"] += (
                fast.counterexample is not None and fast.counterexample[2] is None
            )
            failed["structure"] += fast.detail.endswith("(structure mismatch)")
            monkeypatch.undo()
    # every kind of failure was reached, not only passing windows
    assert min(failed.values()) >= 10, failed


# --- classical baselines -----------------------------------------------------------


def test_baselines_pass_with_expected_names():
    results = baseline_catalan_motzkin()
    assert all(r.passed for r in results)
    assert [r.name for r in results] == [
        "catalan_shift0_all_ones",
        "catalan_shift1_all_ones",
        "catalan_shift2_linear",
        "catalan_shift3_product_formula",
        "motzkin_shift0_all_ones",
        "motzkin_shift1_six_periodic",
        "motzkin_shift1_somos_residual",
        "motzkin_shift2_prefix",
        "motzkin_shift3_prefix",
    ]


# --- prime-field runs ---------------------------------------------------------------


def test_primality_helper():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_primality_agrees_with_trial_division_below_1e5():
    assert all(is_prime(p) == trial_division_is_prime(p) for p in range(10**5))


def test_primality_is_prompt_for_a_mersenne_prime():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - start < 1


def test_primality_rejects_pseudoprimes():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(318665857834031151167461)  # ... to bases 2 through 37


def test_primality_refuses_moduli_past_its_proved_bound():
    with pytest.raises(ValueError):
        is_prime(PRIMALITY_BOUND)
    with pytest.raises(ValueError):
        modp_analysis(3, 0, PRIMALITY_BOUND + 2)


def test_modp_run_is_conclusive_and_consistent():
    rep = modp_analysis(3, 0, 2)
    assert rep.conclusive
    assert rep.hfraction_period and rep.hfraction_period > 0
    assert rep.hankel_period and rep.hankel_period > 0
    assert rep.passed and [c.name for c in rep.checks] == ["hankel_mod_p_two_routes"]


def test_modp_beyond_the_formula_range():
    rep = modp_analysis(3, 5, 3)
    assert rep.conclusive and rep.passed


def test_modp_leaves_a_period_inside_a_support_gap_unresolved():
    # the 4000-value window ends in a run of zeros, not a period of 1
    rep = modp_analysis(5, 17, 5)
    assert rep.conclusive and rep.passed
    assert (rep.hfraction_preperiod, rep.hfraction_period) == (1, 1134)
    assert rep.hankel_window == 4000
    assert rep.hankel_preperiod is None and rep.hankel_period is None


def test_shifted_metallic_series_stay_irrational_mod_small_primes():
    # modp_analysis has no rational-root branch: its docstring proves that
    # no shifted model reduces to A = 0 and no expansion terminates mod p
    cycles = 0
    for n in range(1, 6):
        for ell in range(2 * n + 4):
            model = shifted_model_chain(n, ell)
            for p in (2, 3, 5, 7):
                assert any(c % p for c in model.a.coeffs), (n, ell, p)
                hf = hfraction_of_quadratic(model.map_domain(prime_field(p)), 400)
                assert not hf.terminated, (n, ell, p)
                cycles += bool(hf.cycle)
    # 3 of the 200 expansions close no cycle within 400 steps
    assert cycles == 197


def test_modp_rejects_composite_moduli():
    with pytest.raises(ValueError):
        modp_analysis(3, 0, 4)


def test_modp_inconclusive_run_carries_no_checks():
    rep = modp_analysis(3, 0, 2, max_steps=1)
    assert not rep.conclusive
    assert rep.hfraction_period is None and rep.hankel_period is None
    assert rep.checks == ()


def test_modp_report_json_shape():
    payload = modp_analysis(3, 1, 2).to_json_dict()
    assert set(payload) == {
        "n",
        "ell",
        "p",
        "max_steps",
        "conclusive",
        "hfraction_preperiod",
        "hfraction_period",
        "hfraction_terminated",
        "hankel_preperiod",
        "hankel_period",
        "hankel_window",
        "checks",
    }


def test_ultimate_period_detector():
    assert _ultimate_period([0, 1, 2, 2, 2, 2, 2]) == (2, 1)
    assert _ultimate_period([1, 2, 3, 1, 2, 3, 1, 2, 3]) == (0, 3)
    assert _ultimate_period([1, 2, 4, 8, 16]) is None
    # a period must be visible at least twice past the preperiod
    assert _ultimate_period([5, 1, 2, 1, 2]) == (1, 2)
    assert _ultimate_period([5, 1, 2, 1]) is None
    # the shortest preperiod wins: a trailing run of equal values must
    # not masquerade as period 1
    assert _ultimate_period([1, 0, 0, 9, 0, 0, 9, 0, 0]) == (1, 3)
    # a periodic tail shorter than half the window is no period
    assert _ultimate_period([1, 2, 3, 4, 5, 6, 0, 0]) is None


# --- exploratory scans -----------------------------------------------------------------


def test_scan_sees_the_conjectured_window():
    rep = conjecture_scan(3, 5, 2 * 3 * 4 + 2)
    assert rep.periodicity_verdict == "consistent"
    assert -2 <= rep.value_min <= rep.value_max <= 2
    assert rep.label == "exploratory"


def test_scan_with_short_window_says_so():
    assert conjecture_scan(3, 5, 10).periodicity_verdict == "window_too_small"


def test_scan_refuses_settled_shifts():
    with pytest.raises(ValueError):
        conjecture_scan(3, 4, 10)


def test_scan_json_shape():
    payload = conjecture_scan(3, 5, 8).to_json_dict()
    assert set(payload) == {
        "n",
        "ell",
        "horizon",
        "label",
        "value_min",
        "value_max",
        "max_abs",
        "periodicity_verdict",
        "values",
    }
    assert len(payload["values"]) == 8


# --- suite driver ------------------------------------------------------------------------


def test_run_suite_all_small():
    results = run_suite("all", [1, 3])
    assert results and all(r.passed for r in results)


def test_suite_verdicts_match_the_pinned_digest():
    results = run_suite("all", range(1, 11))
    tuples = [(r.name, r.passed, r.counterexample, r.detail) for r in results]
    assert len(tuples) == goldens.SUITE_ALL_1_10_COUNT
    digest = hashlib.sha256(repr(tuples).encode()).hexdigest()
    assert digest == goldens.SUITE_ALL_1_10_SHA256


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("everything", [3])
