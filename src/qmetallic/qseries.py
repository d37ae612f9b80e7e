"""q-deformed integers, rationals, and metallic numbers.

The q-deformation of a nonnegative integer n is the polynomial
[n]_q = 1 + q + ... + q^(n-1). Only these are needed: a q-rational or
q-real (Morier-Genoud and Ovsienko) is built from the digits of a
regular continued fraction of a positive number, and those digits are
nonnegative. A metallic number (n + sqrt(n^2+4))/2 deforms to a power
series Phi_n that is a root of an explicit quadratic equation with
polynomial coefficients; `metallic_model` builds that equation and
`series_of_model` expands any such root as an exact power series.

Every builder here works over ZZ with plain ints: the objects of the
paper are integral. A caller that needs another ring maps the result
once with `map_domain`.
"""

from __future__ import annotations

from math import comb

from .algebra import Domain, ZZ, Poly, Record, Series


def q_integer(n: int) -> Poly:
    """The q-deformation [n]_q = 1 + q + ... + q^(n-1) of an integer n >= 0.

    Satisfies [n+1]_q = q*[n]_q + 1.
    """
    if n < 0:
        raise ValueError(f"q-integers are defined here for n >= 0, got {n}")
    return Poly(ZZ, (1,) * n, normalized=True)


def angle_bracket(n: int) -> Poly:
    """The auxiliary polynomial q*[n]_q + (1 + q^n)(1 - q), defined for n >= 2.

    Explicitly 1 + 2q^2 - q^3 for n = 2 and
    1 + q^2 + q^3 + ... + q^(n-1) + 2q^n - q^(n+1) for n >= 3.
    """
    if n < 2:
        raise ValueError(f"angle bracket needs n >= 2, got {n}")
    return Poly(ZZ, (1, 0) + (1,) * (n - 2) + (2, -1), normalized=True)


class Model(Record):
    """A quadratic equation A + B*F + C*F^2 = 0 for a power series F.

    The expansion algorithms require A != 0, B(0) = 1, C != 0, C(0) = 0;
    `validate` checks those. Instances are immutable and hashable, which
    the cycle detection in the fraction expansion relies on.
    """

    a: Poly
    b: Poly
    c: Poly

    @property
    def dom(self) -> Domain:
        return self.b.dom

    def validate(self) -> "Model":
        dom = self.dom
        if self.a.dom != dom or self.c.dom != dom:
            raise ValueError("model polynomials live in different domains")
        if self.a.is_zero():
            raise ValueError("model needs A != 0")
        if self.b.constant() != 1:
            raise ValueError(f"model needs B(0) = 1, got {self.b.constant()}")
        if self.c.is_zero():
            raise ValueError("model needs C != 0")
        if self.c.constant():
            raise ValueError("model needs C(0) = 0")
        return self

    def map_domain(self, new_dom: Domain) -> "Model":
        return Model(
            self.a.map_domain(new_dom),
            self.b.map_domain(new_dom),
            self.c.map_domain(new_dom),
        )

    def residual(self, f: Series) -> Series:
        """A + B*f + C*f^2, truncated to f's precision. Zero iff f is a root."""
        return (
            Series.from_poly(self.a, f.prec)
            + f * Series.from_poly(self.b, f.prec)
            + f * f * Series.from_poly(self.c, f.prec)
        )


def metallic_model(n: int) -> Model:
    """The quadratic equation satisfied by the q-metallic power series.

    Phi_n is the unique power-series root of
        -1 + ((1 + q^n)(1 - q) - q*[n]_q) * F + q * F^2 = 0.
    """
    if n < 1:
        raise ValueError(f"metallic index must be >= 1, got {n}")
    one = Poly.one(ZZ)
    q = Poly.q(ZZ)
    b = (one + Poly.monomial(ZZ, n)) * (one - q) - q * q_integer(n)
    return Model(a=-one, b=b, c=q)


def series_of_model(model: Model, prec: int) -> Series:
    """Expand the unique power-series root of a model to a given precision.

    Coefficient recursion: with G = F^2, the q^m coefficient of
    A + B*F + C*G determines f_m because B(0) is a unit and C(0) = 0.
    Only the nonzero coefficients of B and C past the constant term are
    visited, and g_m is summed over half its products by symmetry.
    Exact in the model's domain; O(prec^2) coefficient operations.
    """
    model.validate()
    dom = model.dom
    if prec <= 0:
        return Series.zero(dom, max(prec, 0))
    a = list(model.a.coeffs) + [0] * max(0, prec - len(model.a.coeffs))
    b_terms = [(i, bi) for i, bi in enumerate(model.b.coeffs) if i and bi]
    c_terms = [(i, ci) for i, ci in enumerate(model.c.coeffs) if ci]
    b0_inv = dom.inv(model.b.coeffs[0])

    f = []
    g = []  # running coefficients of F^2
    for m in range(prec):
        acc = a[m]
        for i, bi in b_terms:
            if i > m:
                break
            acc += bi * f[m - i]
        for i, ci in c_terms:
            if i > m:
                break
            acc += ci * g[m - i]
        f.append(dom.reduce(-acc * b0_inv))
        # update G at index m now that f_m is known
        gm = 2 * sum(f[i] * f[m - i] for i in range((m + 1) // 2))
        if m % 2 == 0:
            gm += f[m // 2] * f[m // 2]
        g.append(dom.reduce(gm))
    return Series(dom, tuple(f), prec, normalized=True)


def metallic_series(n: int, prec: int) -> Series:
    """Taylor expansion of the q-metallic number Phi_n."""
    return series_of_model(metallic_model(n), prec)


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
