"""Continued fractions over exact coefficient rings.

Two families live here:

* Hankel continued fractions (delta = 2 super fractions): terms
  v_j q^(...)/D_j with deg(D_j) <= k_j + 1 and D_j(0) = 1, expanded
  greedily from a series and stored with explicit preperiod/cycle;
* regular continued fractions with partial quotients polynomial in 1/q,
  each stored as a pair (P, m) meaning P(q) q^(-m), and the exact
  dictionary translating them to and from Hankel fractions.

Both evaluate to a power series mod q^prec by one bottom-up pass over
truncated series. Every level multiplies its tail by a positive power of
q, so a fixed number of levels settles the coefficients below q^prec and
no convergence test is needed.
"""

from __future__ import annotations

from .algebra import Domain, Poly, PrecisionError, Record
from .qseries import Series


# ---------------------------------------------------------------------------
# Evaluation


def _levels_value(levels, dom: Domain, prec: int) -> Series:
    """n_0/(d_0 + n_1/(d_1 + ...)) mod q^prec for a finite list of
    polynomial levels (n_j, d_j), with every d_j(0) a unit and n_j(0) = 0
    for j >= 1.

    Bottom-up on a pair: with the tail a/b, n/(d + a/b) = n b/(d b + a),
    so one series is inverted in all instead of one per level.
    """
    a, b = Series.zero(dom, prec), Series.from_poly(Poly.one(dom), prec)
    if not prec:
        return a
    for num, den in reversed(levels):
        a, b = Series.from_poly(num, prec) * b, Series.from_poly(den, prec) * b + a
    return a * b.invert()


# ---------------------------------------------------------------------------
# Hankel fractions


def _scalar_json(x):
    # integers stay integers (a Fraction too, when its denominator is 1);
    # anything fancier serializes as text
    if isinstance(x, int):
        return x
    if getattr(x, "denominator", None) == 1:
        return int(x)
    return str(x)


class HFTerm(Record):
    """One level of a Hankel continued fraction.

    k >= 0 is the gap exponent, v the nonzero numerator coefficient, d
    the denominator polynomial with d(0) = 1 and deg(d) <= k + 1; building
    a term that breaks one raises ValueError. The rendered numerator is
    v*q^k for the head term and -v*q^(k_prev + k + 2) for every later
    term.
    """

    k: int
    v: object
    d: Poly

    def __post_init__(self):
        dom = self.d.dom
        if self.k < 0:
            raise ValueError("term gap k must be >= 0")
        if not dom.coerce(self.v):
            raise ValueError("term coefficient v must be nonzero")
        if self.d.constant() != 1:
            raise ValueError(f"denominator must have constant term 1, got {self.d}")
        if self.d.degree() > self.k + 1:
            raise ValueError(
                f"denominator degree {self.d.degree()} exceeds k+1 = {self.k + 1}"
            )

    def to_json_dict(self) -> dict:
        """Portable encoding {k, a, v, D}; a = -v is the raw step
        coefficient, D the denominator coefficients in ascending order."""
        return {
            "k": self.k,
            "a": _scalar_json(self.d.dom.reduce(-self.v)),
            "v": _scalar_json(self.v),
            "D": [_scalar_json(c) for c in self.d.coeffs],
        }


class PeriodicHFraction(Record):
    """An ultimately periodic (or finite) Hankel continued fraction.

    Term stream: head, then preamble terms, then the cycle repeating
    forever. A finite fraction (rational series) has an empty cycle and
    terminated=True; a plain prefix of an unknown expansion has an empty
    cycle and terminated=False.
    """

    head: HFTerm
    preamble: tuple = ()
    cycle: tuple = ()
    terminated: bool = False

    @property
    def dom(self) -> Domain:
        return self.head.d.dom

    def __post_init__(self):
        if self.cycle and self.terminated:
            raise ValueError("a terminated fraction cannot carry a cycle")

    def n_stored_terms(self) -> int:
        return 1 + len(self.preamble) + len(self.cycle)

    def term(self, i: int) -> HFTerm:
        if i < 0:
            raise IndexError("term index must be >= 0")
        if i == 0:
            return self.head
        i -= 1
        if i < len(self.preamble):
            return self.preamble[i]
        i -= len(self.preamble)
        if self.cycle:
            return self.cycle[i % len(self.cycle)]
        raise IndexError("term index beyond a non-periodic fraction")

    def stream(self, count: int):
        """First `count` terms (head first). Stops short only when the
        fraction is finite."""
        out = []
        for i in range(count):
            try:
                out.append(self.term(i))
            except IndexError:
                break
        return out

    def to_json_dict(self) -> dict:
        """Portable encoding {delta, head, preamble, cycle, terminated}.

        delta is the gap parameter, fixed at 2 for this fraction family.
        """
        return {
            "delta": 2,
            "head": self.head.to_json_dict(),
            "preamble": [t.to_json_dict() for t in self.preamble],
            "cycle": [t.to_json_dict() for t in self.cycle],
            "terminated": self.terminated,
        }

    def canonical(self) -> "PeriodicHFraction":
        """Primitive cycle, then shortest preamble (absorbing matching
        trailing preamble terms into a rotation of the cycle)."""
        cycle = list(self.cycle)
        if cycle:
            n = len(cycle)
            for d in range(1, n + 1):
                if n % d == 0 and cycle == cycle[:d] * (n // d):
                    cycle = cycle[:d]
                    break
        preamble = list(self.preamble)
        while cycle and preamble and preamble[-1] == cycle[-1]:
            preamble.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return PeriodicHFraction(
            head=self.head,
            preamble=tuple(preamble),
            cycle=tuple(cycle),
            terminated=self.terminated,
        )

    def rendered(self, j: int) -> tuple:
        """(numerator, denominator) polynomials of level j: v_0 q^k_0 over
        D_0 for the head, -v_j q^(k_(j-1) + k_j + 2) over D_j after it.

        A numerator pairs a term's k with its predecessor's, so in a cycle
        the level of cycle[0] repeats only from the second pass on.
        """
        t = self.term(j)
        if j == 0:
            return Poly.monomial(self.dom, t.k, t.v), t.d
        e = self.term(j - 1).k + t.k + 2
        return Poly.monomial(self.dom, e, -t.v), t.d

    def value(self, prec: int) -> Series:
        """Power series of the fraction mod q^prec.

        Every numerator after the head has valuation >= 2, so the first
        prec // 2 + 1 levels fix every coefficient below q^prec.
        """
        count = len(self.stream(prec // 2 + 1))
        return _levels_value([self.rendered(j) for j in range(count)], self.dom, prec)

    def map_domain(self, new_dom: Domain) -> "PeriodicHFraction":
        conv = lambda t: HFTerm(t.k, new_dom.coerce(t.v), t.d.map_domain(new_dom))
        return PeriodicHFraction(
            head=conv(self.head),
            preamble=tuple(conv(t) for t in self.preamble),
            cycle=tuple(conv(t) for t in self.cycle),
            terminated=self.terminated,
        )


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
