"""Greedy Hankel expansion, regular continued fractions in 1/q, and the
dictionary between them.

`greedy_hfraction` expands a truncated series into the prefix of its
Hankel fraction term by term. A regular continued fraction has partial
quotients polynomial in 1/q, each stored as a pair (P, m) meaning
P(q) q^(-m); `artin_expand` expands a series into one, and
`hf_to_artin` and `artin_to_hf` translate exactly between the two kinds
(the Hankel fraction of F and the regular fraction of q*F). Both kinds
evaluate with `value(prec)` through `cfrac._levels_value`. No command
line runs this module.
"""

from __future__ import annotations

from .algebra import Domain, PrecisionError, Record
from .cfrac import HFTerm, PeriodicHFraction, _levels_value
from .poly import Poly
from .qseries import Series


def greedy_hfraction(f: Series, max_terms: int) -> PeriodicHFraction:
    """Expand a truncated series into the prefix of its Hankel fraction.

    Each produced term consumes 2k+2 coefficients of precision. Expansion
    stops when the residual series is zero to its remaining precision
    (terminated=True: the input was rational as far as visible), when the
    precision cannot support another term, or at max_terms.
    """
    dom = f.dom
    terms = []
    terminated = False
    cur = f
    while len(terms) < max_terms:
        v = cur.valuation()
        if v is None:
            terminated = bool(terms) and cur.prec > 0
            break
        c = cur.coeffs[v]
        # t = c*q^k / F as a unit series; D = its truncation below q^(k+2)
        unit = cur.shift_down(v)
        if unit.prec < v + 2:
            break  # not enough precision to determine D and continue
        t_ser = unit.invert().scale(c)
        d_coeffs = list(t_ser.coeffs[: v + 2])
        d = Poly(dom, d_coeffs)
        terms.append(HFTerm(k=v, v=c, d=d))
        # residual: (D - t)/q^(k+2)
        tail = (Series.from_poly(d, t_ser.prec) - t_ser).shift_down(
            min(v + 2, t_ser.prec)
        )
        cur = tail
        if cur.prec <= 0:
            break
    if not terms:
        raise ValueError("series is zero to precision; no head term exists")
    return PeriodicHFraction(
        head=terms[0],
        preamble=tuple(terms[1:]),
        cycle=(),
        terminated=terminated,
    )


# ---------------------------------------------------------------------------
# Regular continued fractions in 1/q


class RegularCF(Record):
    """f = 1/(a_1 + 1/(a_2 + ...)) with each a_j a polynomial in 1/q of
    positive degree, stored as the pair (P_j, m_j) with a_j = P_j(q) q^(-m_j),
    P_j(0) != 0 and deg P_j <= m_j, so a_j spans the exponents -m_j .. 0.

    complete=True means the expansion closed (the residual vanished
    exactly, i.e. f is rational as far as the input precision shows).
    """

    quotients: tuple
    complete: bool = False

    @property
    def dom(self) -> Domain:
        return self.quotients[0][0].dom

    def __post_init__(self):
        if not self.quotients:
            raise ValueError("a regular continued fraction needs >= 1 quotient")
        for j, (p, m) in enumerate(self.quotients):
            if not p.constant():
                raise ValueError(f"quotient {j + 1} needs P(0) != 0")
            if p.degree() > m:
                raise ValueError(f"quotient {j + 1} has positive powers of q")
            if m < 1:
                raise ValueError(f"quotient {j + 1} is constant in 1/q")

    def value(self, prec: int) -> Series:
        """Power series of the fraction mod q^prec.

        With a_j = P_j(q) q^(-m_j), multiplying through level by level
        gives q^m_1/(P_1 + q^(m_1 + m_2)/(P_2 + q^(m_2 + m_3)/(...))).
        """
        dom = self.dom
        levels, m_prev = [], 0
        for p, m in self.quotients:
            levels.append((Poly.monomial(dom, m_prev + m), p))
            m_prev = m
        return _levels_value(levels, dom, prec)


def artin_expand(f: Series, max_quotients: int) -> RegularCF:
    """Regular continued fraction of a series with f(0) = 0.

    Quotient j is the principal part plus constant of 1/residual: when the
    residual has valuation v, the quotient collects the exponents
    -v .. 0 (a nonzero constant coefficient is allowed). Each quotient
    consumes 2v coefficients of precision.
    """
    dom = f.dom
    if f.prec == 0:
        raise PrecisionError("cannot expand a zero-precision series")
    if f.coeffs[0]:
        raise ValueError("regular expansion needs f(0) = 0")
    quotients = []
    complete = False
    cur = f
    while len(quotients) < max_quotients:
        v = cur.valuation()
        if v is None:
            complete = bool(quotients) and cur.prec > 0
            break
        unit = cur.shift_down(v)
        if unit.prec < v + 1:
            break  # cannot see the whole quotient
        w = unit.invert()  # 1/cur = q^(-v) * w
        head = Poly(dom, w.coeffs[: v + 1])
        quotients.append((head, v))
        cur = w.shift_down(min(v + 1, w.prec)).shift_up(1)
        if cur.prec <= 1:
            break
    if not quotients:
        raise ValueError("series is zero to precision; no quotient exists")
    return RegularCF(tuple(quotients), complete=complete)


def hf_to_artin(hf: PeriodicHFraction, nterms: int) -> RegularCF:
    """Dictionary: the Hankel fraction of F maps to the regular continued
    fraction of f(q) = q*F(q), term J of the former giving quotient J+1
    of the latter: a_{J+1} = c_{J+1} * D_J(q) * q^(-(k_J + 1)) with the
    leading units c satisfying c_1 = 1/v_0, c_{j+1} = -1/(v_j c_j).
    """
    dom = hf.dom
    terms = hf.stream(nterms)
    if not terms:
        raise ValueError("empty fraction")
    quotients = []
    c = None
    for j, t in enumerate(terms):
        if j == 0:
            c = dom.inv(t.v)
        else:
            c = dom.reduce(-dom.inv(t.v * c))
        quotients.append((t.d.scale(c), t.k + 1))
    complete = hf.terminated and len(terms) == hf.n_stored_terms()
    return RegularCF(tuple(quotients), complete=complete)


def artin_to_hf(cf: RegularCF) -> PeriodicHFraction:
    """Inverse dictionary, producing a (non-periodic) Hankel fraction
    prefix whose series is cf.value() / q."""
    dom = cf.dom
    terms = []
    c_prev = None
    for j, (p, m) in enumerate(cf.quotients):
        c = p.constant()
        d = p.scale(dom.inv(c))
        if j == 0:
            v = dom.inv(c)
        else:
            v = dom.reduce(-dom.inv(c * c_prev))
        terms.append(HFTerm(k=m - 1, v=v, d=d))
        c_prev = c
    return PeriodicHFraction(
        head=terms[0],
        preamble=tuple(terms[1:]),
        cycle=(),
        terminated=cf.complete,
    )
