"""Acceptance gate: the binding criteria, one test per line item.

Every comparison is exact; nothing here is statistical or tolerance-based.
The grids are the smallest ones the criteria name, so this module doubles
as the anti-regression gate for the whole package.
"""

import json
import pathlib
import random

import jsonschema

from qmetallic import (
    QQ,
    alg_step,
    artin_expand,
    artin_to_hf,
    baseline_catalan_motzkin,
    check_contiguity,
    check_delta_symmetry,
    check_explicit_reconstruction,
    check_profile_identities,
    check_stream_symmetries,
    check_support_membership,
    check_value_set_and_periodicity,
    cli,
    conjecture_scan,
    expected_hfraction,
    gale_robinson_check,
    greedy_hfraction,
    hankel_bruteforce_values,
    hankel_formula_values,
    hf_to_artin,
    hfraction_of_quadratic,
    hfraction_of_shift,
    metallic_model,
    metallic_series,
    modp_analysis,
    support_sets,
    Poly,
    Series,
)

import goldens
from helpers import fraction

SCAN_SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "schemas" / "scan.json").read_text()
)


def test_01_taylor_coefficients_match_the_published_expansions():
    for n, coeffs in goldens.TAYLOR.items():
        got = metallic_series(n, len(coeffs)).coeffs
        assert list(got) == coeffs, f"n={n}"


def test_02_discovered_fractions_match_published_and_template_forms():
    # published cycles for n = 1, 2, 5
    for n in (1, 2, 5):
        published = fraction(goldens.FRACTION_HEAD[n], goldens.FRACTION_CYCLE[n])
        assert hfraction_of_quadratic(metallic_model(n)) == published, f"n={n}"
    # closed-form template for the rest, term for term
    for n in range(3, 11):
        got = hfraction_of_quadratic(metallic_model(n))
        assert got == expected_hfraction(n), f"n={n}"
        assert got.preamble == ()  # cycle starts at term 1
        assert len(got.cycle) == 6 * n - 4


def test_03_step_trace_for_n5_reproduces_the_published_table():
    states = []
    cur = metallic_model(5)
    rows = []
    for _ in range(28):
        states.append(cur)
        res = alg_step(cur)
        rows.append((res.k, int(res.a), [int(c) for c in res.d.coeffs]))
        cur = res.next_model
    assert rows == goldens.STEP_ROWS_N5
    assert states[27] == states[1]  # the state stream re-enters its cycle


def test_04_bruteforce_determinants_match_published_windows():
    for n, period in goldens.DELTA0_PERIOD.items():
        assert hankel_bruteforce_values(n, 0, len(period)) == period, f"n={n}"
    for ell, row in goldens.SHIFTED_ROWS_N1.items():
        assert hankel_bruteforce_values(1, ell, len(row)) == row, f"ell={ell}"
    row4 = goldens.SHIFT4_ROW_N1
    assert hankel_bruteforce_values(1, 4, len(row4)) == row4


def test_05_formula_and_bruteforce_routes_agree_on_the_full_grid():
    for n in range(1, 7):
        count = 2 * n * (n + 1) + 2 * n + 3
        for ell in range(n + 2):
            formula = hankel_formula_values(n, ell, count)
            brute = hankel_bruteforce_values(n, ell, count)
            assert formula == brute, f"n={n} ell={ell}"


def test_06_determinant_values_and_antiperiodicity_hold():
    for n in range(1, 9):
        for ell in range(n + 2):
            res = check_value_set_and_periodicity(n, ell, periods=2)
            assert res.passed, f"n={n} ell={ell}: {res.counterexample}"


def test_07_gale_robinson_recurrence_annihilates_the_rows():
    for n in range(1, 9):
        P = 2 * n * (n + 1)
        for ell in range(n + 2):
            res = gale_robinson_check(n, ell, P)
            assert res.passed, f"n={n} ell={ell}: {res.counterexample}"
    # n = 1 is the classical form d_{j+4} d_j = d_{j+3} d_{j+1} - d_{j+2}^2
    for ell in range(3):
        d = hankel_formula_values(1, ell, 20)
        for j in range(16):
            assert d[j + 4] * d[j] == d[j + 3] * d[j + 1] - d[j + 2] ** 2


def test_08_contiguity_links_consecutive_shifts():
    for n in range(1, 9):
        for ell in range(n + 1):
            res = check_contiguity(n, ell, 4 * n * (n + 1))
            assert res.passed, f"n={n} ell={ell}: {res.counterexample}"
    # composed instances at n = 5 back to the base row
    signs = {
        "alt": lambda j: 1 if j % 2 == 0 else -1,
        "alt1": lambda j: -1 if j % 2 == 0 else 1,
        "+": lambda j: 1,
        "-": lambda j: -1,
    }
    base = hankel_formula_values(5, 0, 100)
    for ell, shift, kind in goldens.CONTIGUITY_INSTANCES_N5:
        row = hankel_formula_values(5, ell, 60)
        sign = signs[kind]
        for j in range(60):
            assert row[j] == sign(j) * base[j + shift], f"ell={ell} j={j}"


def test_09_closed_form_reconstruction_and_index_identities_hold():
    for n in range(3, 9):
        res = check_explicit_reconstruction(n)
        assert res.passed, f"n={n}: {res.counterexample}"
        res = check_delta_symmetry(n)
        assert res.passed, f"n={n}: {res.counterexample}"
        res = check_support_membership(n)
        assert res.passed, f"n={n}: {res.counterexample}"
    for n in range(3, 11):
        for res in check_profile_identities(n):
            assert res.passed, f"n={n} {res.name}: {res.counterexample}"
    assert support_sets(5) == goldens.SUPPORT_SETS_N5


def test_10_term_stream_symmetries_hold():
    for n in range(3, 11):
        for res in check_stream_symmetries(n):
            assert res.passed, f"n={n} {res.name}: {res.counterexample}"


def test_11_classical_baselines_pin_the_oracle():
    results = baseline_catalan_motzkin()
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
    for res in results:
        assert res.passed, f"{res.name}: {res.counterexample}"


def test_12_prime_field_runs_cycle_and_match_reduced_determinants():
    cap = 4000
    for n in range(3, 7):
        for ell in range(n + 4):
            for p in (2, 3, 5, 7):
                rep = modp_analysis(n, ell, p, max_steps=cap, hankel_window=61)
                if not rep.conclusive:
                    # an inconclusive window only counts against us when it
                    # survives a four-fold budget
                    rep = modp_analysis(n, ell, p, max_steps=4 * cap, hankel_window=61)
                assert rep.conclusive, f"n={n} ell={ell} p={p} (4x budget)"
                assert rep.passed, (
                    f"n={n} ell={ell} p={p}: "
                    f"{[c.counterexample for c in rep.checks if not c.passed]}"
                )


def test_13_exploratory_scans_stay_bounded_and_serialize(capsys):
    observed_unproved_maxima = {}
    for n in range(3, 7):
        bounded = conjecture_scan(n, n + 2, 4 * n * (n + 1))
        assert bounded.periodicity_verdict == "consistent", f"n={n}"
        assert -2 <= bounded.value_min <= bounded.value_max <= 2, f"n={n}"

        # one shift further carries no bound claim; record what shows up
        open_window = conjecture_scan(n, n + 3, 2 * n * (n + 1) + 1)
        observed_unproved_maxima[n] = open_window.max_abs

        for ell, horizon in ((n + 2, bounded.horizon), (n + 3, open_window.horizon)):
            code = cli.main(
                ["scan", "--n", str(n), "--ell", str(ell),
                 "--horizon", str(horizon), "--format", "json"]
            )
            payload = json.loads(capsys.readouterr().out)
            jsonschema.validate(payload, SCAN_SCHEMA)
            assert code == 0 and payload["label"] == "exploratory"
    assert set(observed_unproved_maxima) == {3, 4, 5, 6}


def test_14_artin_dictionary_round_trips_and_matches_greedy():
    fractions = [expected_hfraction(n) for n in range(1, 11)]
    fractions += [
        hfraction_of_shift(n, ell)
        for n in range(1, 6)
        for ell in range(1, n + 2)
    ]
    for hf in fractions:
        terms = hf.stream(30)
        cf = hf_to_artin(hf, 30)
        assert artin_to_hf(cf).stream(30) == terms

    rng = random.Random(20260816)
    done = 0
    while done < 50:
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        if not any(num):
            continue
        den = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
        prec = 36
        f = Series.from_poly(Poly(QQ, num), prec) * Series.from_poly(
            Poly(QQ, den), prec
        ).invert()
        if f.valuation() is None:
            continue
        via_artin = artin_to_hf(artin_expand(f.shift_up(1).truncate(prec), 14))
        direct = greedy_hfraction(f, max_terms=14)
        overlap = min(via_artin.n_stored_terms(), direct.n_stored_terms())
        assert overlap >= 1
        assert via_artin.stream(overlap) == direct.stream(overlap)
        done += 1
    assert done == 50
