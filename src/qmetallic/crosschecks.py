"""The checkers of the thm51, symmetries and baselines suites.

The Theorem 5.1 closed forms of `explicit` against the brute-force
route (`oracle`) and the product formula (`reports.hankel_formula_values`),
with their symmetry, support-set membership and the index bookkeeping
of the fraction; the numerator/denominator symmetries of the rendered
fraction stream; and the Catalan and Motzkin baselines that pin the
brute-force oracle to classical values. `verify.run_suite` calls them.
Every other module is bound as the package's lazy module and called
through it, so each suite runs only the modules its checks read.
"""

from __future__ import annotations

from . import explicit, oracle, qrational, reports, template
from .algebra import ZZ
from .poly import Poly
from .reports import CheckResult, _compare_lists


# ---------------------------------------------------------------------------
# Closed forms against the routes, and their symmetries


def check_explicit_reconstruction(n: int) -> CheckResult:
    """Closed-form reconstruction equals the brute-force determinants
    over a full (anti)period."""
    P = 2 * n * (n + 1)
    return _compare_lists(
        "explicit_delta_reconstruction",
        oracle.hankel_bruteforce_values(n, 0, P),
        explicit.explicit_delta_sequence(n),
        detail=f"n={n} window={P}",
    )


def check_delta_symmetry(n: int) -> CheckResult:
    """Palindromic symmetry of the base determinant sequence:
    delta_j = (-1)^(n(n+1)/2) delta_{(2n+1)(n+1)-j}."""
    M = (2 * n + 1) * (n + 1)
    values = reports.hankel_formula_values(n, 0, M + 1)
    sign = explicit._sign_pow(n * (n + 1) // 2)
    want = [sign * v for v in reversed(values)]
    return _compare_lists("delta_symmetry", want, values, f"n={n} span={M}")


def check_support_membership(n: int) -> CheckResult:
    """Residue-condition membership agrees with vanishing of the actual
    determinants out to beyond one full period."""
    top = 2 * n * (n + 2) + 1
    values = reports.hankel_formula_values(n, 0, top + 1)
    actual = [v != 0 for v in values]
    claimed = [explicit.support_membership(n, j)[0] for j in range(top + 1)]
    return _compare_lists(
        "support_membership", actual, claimed, f"n={n} max_index={top}"
    )


def check_profile_identities(n: int) -> list:
    """Index bookkeeping identities of the fraction's k/s/eps sequences:
    palindromes, half-period bijection, translation laws, and the
    closed-form endpoint values."""
    if n < 3:
        raise ValueError("profile identities assume n >= 3")
    prof = template.support_profile(template.expected_hfraction(n), 6 * n - 1)
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
    for cls, pmax in explicit._class_ranges(n):
        for p in range(pmax + 1):
            closed_s.append((explicit.explicit_support_index(n, p, cls), s[3 * p + cls]))
    pairwise("s_closed_form", closed_s)
    return out


def check_stream_symmetries(n: int) -> list:
    """Numerator/denominator symmetries of the rendered fraction stream:
    a full-period palindrome, a half-period palindrome with a linear
    correction on denominators, and a half-period translation."""
    if n < 3:
        raise ValueError("stream symmetries assume n >= 3")
    hf = template.expected_hfraction(n)
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
# Classical baselines


def baseline_catalan_motzkin() -> list:
    """Pin the brute-force oracle to classical Hankel evaluations of the
    Catalan and Motzkin series."""
    cat, mot = qrational.catalan_series(30), qrational.motzkin_series(30)
    mot1 = oracle.hankel_window(mot, 1, 13)
    pattern = [1, 1, 0, -1, -1, 0]
    table = (  # name, expected, got, shift
        ("catalan_shift0_all_ones", [1] * 11, oracle.hankel_window(cat, 0, 11), 0),
        ("catalan_shift1_all_ones", [1] * 11, oracle.hankel_window(cat, 1, 11), 1),
        ("catalan_shift2_linear", [j + 1 for j in range(11)], oracle.hankel_window(cat, 2, 11), 2),
        # the product over 1 <= a <= b < 3 of (2j + a + b) / (a + b)
        (
            "catalan_shift3_product_formula",
            [(2 * j + 2) * (2 * j + 3) * (2 * j + 4) // 24 for j in range(9)],
            oracle.hankel_window(cat, 3, 9),
            3,
        ),
        ("motzkin_shift0_all_ones", [1] * 11, oracle.hankel_window(mot, 0, 11), 0),
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
            oracle.hankel_window(mot, 2, 12),
            2,
        ),
        (
            "motzkin_shift3_prefix",
            [1, 4, 3, -6, -16, -10, 15, 36, 21, -28, -64, -36, 45],
            oracle.hankel_window(mot, 3, 13),
            3,
        ),
    )
    return [
        _compare_lists(name, want, got, detail=f"shift {ell}")
        for name, want, got, ell in table
    ]
