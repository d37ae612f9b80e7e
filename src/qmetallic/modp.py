"""Prime-field runs of the fraction expansion, with cycle detection.

`modp_analysis` reduces a shifted metallic model mod p, expands it over
GF(p), and reports the cycle of the fraction terms and the period of
the determinant stream, checked against the exact determinants reduced
mod p. The exact window comes from the product formula
(`reports.hankel_formula_values`) for the proved shifts 0..n+1, and
from the brute-force route (`oracle`, bound as the package's lazy
module) only beyond them, so a `modp` request at a proved shift runs
neither `oracle` nor any checker of `verify`.
"""

from __future__ import annotations

from . import oracle, reports
from .fields import is_prime, prime_field
from .hfrac import hfraction_of_quadratic, shifted_model_chain
from .reports import ModpReport, _compare_lists
from .template import hankel_values_from_hfraction


def _ultimate_period(vals):
    """Empirical (preperiod, period) of a sequence window, or None when
    no period shows at least twice, over at least half the window.

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
        if e + 2 * d <= L and 2 * e <= L and (best is None or (e, d) < best):
            best = (e, d)
            if e == 0:
                break
    return best


def modp_analysis(
    n: int, ell: int, p: int, max_steps: int = 4000, hankel_window: int = 61
) -> ModpReport:
    """Reduce the ell-fold shifted model (built over ZZ) mod p, expand it
    and report the cycle of the fraction terms and the period of the
    determinant stream. No cycle within max_steps gives an inconclusive
    report: periods None, no check. Otherwise the first `hankel_window`
    exact determinants, mod p, are compared with the GF(p) product
    formula, and the determinant period is read off 3 * (cycle span) *
    (p - 1) values, clamped to 150..4000 (None if no candidate covers
    half of them).

    No rational root needs a path. Phi_n mod p is the power-series root
    of q F^2 + B F - 1 = 0, B = (1 + q^n)(1 - q) - q [n]_q. Write F = P/Q
    in lowest terms over GF(p)(q). Then q P^2 + B P Q = Q^2, so P | Q^2
    and Q | q P^2: P is a constant and Q divides q. Q(0) != 0 as F is a
    power series, so F = f_0 = 1 and B = 1 - q; but B has the term
    -q^(n+1). So every shift (Phi_n - sum_{i<ell} f_i q^i)/q^ell is
    irrational over GF(p)(q): the shifted model's A never vanishes mod p
    (the root would be 0), and the expansion never terminates.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if ell < 0:
        raise ValueError("shift must be >= 0")
    model_p = shifted_model_chain(n, ell).map_domain(prime_field(p))
    hf = hfraction_of_quadratic(model_p, max_steps)
    if not hf.cycle:
        return ModpReport(
            n=n, ell=ell, p=p, max_steps=max_steps, conclusive=False,
            hfraction_terminated=hf.terminated,
        )
    exact_window = (
        reports.hankel_formula_values(n, ell, hankel_window)
        if ell <= n + 1
        else oracle.hankel_bruteforce_values(n, ell, hankel_window)
    )
    check = _compare_lists(
        "hankel_mod_p_two_routes",
        [v % p for v in exact_window],
        hankel_values_from_hfraction(hf, hankel_window),
        detail=f"n={n} ell={ell} p={p} window={hankel_window}",
    )
    span = sum(1 + t.k for t in hf.cycle)
    window = min(4000, max(150, 3 * span * (p - 1)))
    found = _ultimate_period(hankel_values_from_hfraction(hf, window))
    h_pre, h_per = found if found else (None, None)
    return ModpReport(
        n=n, ell=ell, p=p, max_steps=max_steps, conclusive=True,
        hfraction_preperiod=1 + len(hf.preamble), hfraction_period=len(hf.cycle),
        hankel_preperiod=h_pre, hankel_period=h_per, hankel_window=window,
        checks=(check,),
    )
