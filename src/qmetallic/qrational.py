"""q-rationals, and the Catalan and Motzkin series.

A q-rational or q-real (Morier-Genoud and Ovsienko) is built from the
digits of a regular continued fraction of a positive number, and those
digits are nonnegative, so the q-integers [n]_q of `poly` are all it
needs. The Catalan and Motzkin series are the classical baselines that
pin the brute-force oracle (`crosschecks.baseline_catalan_motzkin`). No
command line but `verify --suite baselines` (alone or in `all`) runs
this module.

Every builder here works over ZZ with plain ints.
"""

from __future__ import annotations

from math import comb

from .algebra import ZZ
from .poly import Poly, q_integer
from .qseries import Series


def continued_fraction_digits(x) -> list:
    """Regular continued fraction digits [a0; a1, a2, ...] of a rational
    x >= 0 (an int or a Fraction)."""
    if x < 0:
        raise ValueError("negative values have no deformation here")
    digits = []
    num, den = x.numerator, x.denominator
    while True:
        a, r = divmod(num, den)
        digits.append(a)
        if r == 0:
            return digits
        num, den = den, r


def q_rational_pair(x):
    """The q-deformation of a nonnegative rational as a fraction (P, Q) of
    polynomials with Q(0) = 1.

    Built bottom-up from the continued fraction of x, alternating between
    deformations in q (even levels) and in 1/q (odd levels).
    """
    import fractions  # only q-rationals need it

    x = fractions.Fraction(x)
    digits = continued_fraction_digits(x)
    m = len(digits) - 1
    last = digits[m]
    if m % 2 == 0:
        p_cur, q_cur = q_integer(last), Poly.one(ZZ)
    else:
        p_cur, q_cur = q_integer(last), Poly.monomial(ZZ, last - 1)
    for i in range(m - 1, -1, -1):
        ai = digits[i]
        if i % 2 == 0:
            p_next = q_integer(ai) * p_cur + Poly.monomial(ZZ, ai) * q_cur
            q_next = p_cur
        else:
            p_next = Poly.q(ZZ) * q_integer(ai) * p_cur + q_cur
            q_next = Poly.monomial(ZZ, ai) * p_cur
        p_cur, q_cur = p_next, q_next
    u = q_cur.constant()
    if u not in (1, -1):
        raise ArithmeticError(f"denominator constant term {u} not a unit")
    # a unit of ZZ is its own inverse, so scaling by it makes Q(0) = 1
    return p_cur.scale(u), q_cur.scale(u)


def q_rational(x, prec: int) -> Series:
    """Taylor expansion of the q-deformation of a nonnegative rational."""
    p, q = q_rational_pair(x)
    return Series.from_poly(p, prec) * Series.from_poly(q, prec).invert()


def catalan_series(prec: int) -> Series:
    """Generating series of the Catalan numbers 1, 1, 2, 5, 14, ..."""
    return Series(ZZ, [comb(2 * i, i) // (i + 1) for i in range(max(prec, 0))], prec)


def motzkin_series(prec: int) -> Series:
    """Generating series of the Motzkin numbers 1, 1, 2, 4, 9, 21, ..."""
    coeffs = [
        sum(comb(i, 2 * k) * (comb(2 * k, k) // (k + 1)) for k in range(i // 2 + 1))
        for i in range(max(prec, 0))
    ]
    return Series(ZZ, coeffs, prec)
