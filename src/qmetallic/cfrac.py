"""Continued fractions over exact coefficient rings.

Three families live here:

* generic evaluation of (possibly periodic) continued fractions whose
  entries are polynomials in q or in 1/q, truncated to a target precision;
* Hankel continued fractions (delta = 2 super fractions): terms
  v_j q^(...)/D_j with deg(D_j) <= k_j + 1 and D_j(0) = 1, expanded
  greedily from a series and stored with explicit preperiod/cycle;
* regular continued fractions with partial quotients polynomial in 1/q,
  and the exact dictionary translating them to and from Hankel fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Domain, LaurentPair, Poly, PrecisionError, Series


class NonConvergenceError(RuntimeError):
    """A continued-fraction evaluation stopped gaining precision."""

    def __init__(self, term_index: int, message: str = ""):
        self.term_index = term_index
        super().__init__(
            message or f"no precision gained around term {term_index}"
        )


# ---------------------------------------------------------------------------
# Generic evaluation


@dataclass(frozen=True)
class CFTerm:
    """One continued-fraction level: numerator over denominator."""

    num: object  # Poly or LaurentPair
    den: object  # Poly or LaurentPair


@dataclass(frozen=True)
class CFTermList:
    """lead + num_0/(den_0 + num_1/(den_1 + ...)).

    `terms` is the non-repeating part; `cycle`, if nonempty, repeats
    forever after it.
    """

    lead: object  # Poly or LaurentPair
    terms: tuple = ()
    cycle: tuple = ()

    def term(self, i: int) -> CFTerm:
        if i < len(self.terms):
            return self.terms[i]
        if not self.cycle:
            raise IndexError(f"finite continued fraction has {len(self.terms)} terms")
        return self.cycle[(i - len(self.terms)) % len(self.cycle)]

    @property
    def is_finite(self) -> bool:
        return not self.cycle


def _lp(x, dom: Domain) -> LaurentPair:
    if isinstance(x, LaurentPair):
        return x
    if isinstance(x, Poly):
        return LaurentPair(x, 0)
    return LaurentPair(Poly.const(dom, x), 0)


def _truncate_lp(x: LaurentPair, max_exp: int) -> LaurentPair:
    # drop coefficients above q^max_exp; exactness below is unaffected
    cut = max_exp + x.shift + 1
    if cut < 0:
        return LaurentPair(Poly.zero(x.dom), 0)
    if cut >= len(x.poly.coeffs):
        return x
    return LaurentPair(Poly(x.dom, x.poly.coeffs[:cut]), x.shift)


def eval_cf(cf: CFTermList, prec: int, dom: Domain = None) -> Series:
    """Evaluate a continued fraction as a power series mod q^prec.

    Finite fractions evaluate exactly and are then truncated. Periodic
    fractions are evaluated convergent by convergent until the tail can no
    longer affect coefficients below q^prec; if a full pass over the cycle
    fails to increase the guaranteed valuation of the tail, the fraction
    does not converge as a power series and NonConvergenceError is raised.
    """
    if dom is None:
        probe = cf.lead if isinstance(cf.lead, (Poly, LaurentPair)) else None
        if probe is None:
            for t in list(cf.terms) + list(cf.cycle):
                probe = t.num if isinstance(t.num, (Poly, LaurentPair)) else None
                if probe is not None:
                    break
        if probe is None:
            raise TypeError("cannot infer a domain; pass dom explicitly")
        dom = probe.dom
    if prec < 0:
        raise PrecisionError("precision must be >= 0")

    lead = _lp(cf.lead, dom)
    # Convergents: value after j terms is (lead*Q_j + P_j)/Q_j with the
    # standard three-term recurrences seeded for a fraction with no lead.
    p_prev, q_prev = _lp(Poly.one(dom), dom), _lp(Poly.zero(dom), dom)
    p_cur, q_cur = _lp(Poly.zero(dom), dom), _lp(Poly.one(dom), dom)

    nfinite = len(cf.terms)
    ncycle = len(cf.cycle)
    total = nfinite if cf.is_finite else None

    # Exact truncation-error bookkeeping: the difference between successive
    # convergents h_i - h_{i-1} has valuation
    #   sum of numerator valuations - val(Q_i) - val(Q_{i-1}),
    # so once that quantity stays >= prec for a whole cycle pass the tail
    # cannot touch the reported coefficients.
    num_val_sum = 0
    max_shift = lead.shift
    ok_run = 0
    ok_needed = max(ncycle, 1) + 1
    stall = 0
    stall_limit = max(4 * max(ncycle, 1), 64)
    best_gap = None

    i = 0
    while True:
        if total is not None and i >= total:
            break
        if total is None and ok_run >= ok_needed:
            break
        if total is None and stall > stall_limit:
            raise NonConvergenceError(i)
        t = cf.term(i)
        num, den = _lp(t.num, dom), _lp(t.den, dom)
        if num.is_zero():
            raise ValueError(f"zero numerator at term {i}")
        p_next = den * p_cur + num * p_prev
        q_next = den * q_cur + num * q_prev
        if q_next.is_zero():
            raise ZeroDivisionError(f"vanishing convergent denominator at term {i}")
        num_val_sum += num.min_exponent()
        max_shift = max(max_shift, p_next.shift, q_next.shift)
        # tails beyond prec + shift can never reach coefficients < prec
        keep = prec + max_shift + 2
        p_next, q_next = _truncate_lp(p_next, keep), _truncate_lp(q_next, keep)
        p_prev, q_prev = p_cur, q_cur
        p_cur, q_cur = p_next, q_next
        i += 1
        if total is None and i >= 2 and not q_cur.is_zero() and not q_prev.is_zero():
            gap = num_val_sum - q_cur.min_exponent() - q_prev.min_exponent()
            ok_run = ok_run + 1 if gap >= prec else 0
            if best_gap is None or gap > best_gap:
                best_gap, stall = gap, 0
            else:
                stall += 1

    value_num = lead * q_cur + p_cur
    return _laurent_ratio_to_series(value_num, q_cur, prec)


def _laurent_ratio_to_series(num: LaurentPair, den: LaurentPair, prec: int) -> Series:
    """num/den as a power series mod q^prec; raises if the ratio is not a
    power series (negative valuation)."""
    dom = num.dom
    if den.is_zero():
        raise ZeroDivisionError("continued fraction value has zero denominator")
    if num.is_zero():
        return Series.zero(dom, prec)
    dv = den.poly.valuation()
    # value = q^s * num.poly / (den.poly / q^dv) with a unit-series divisor
    s = den.shift - num.shift - dv
    need = prec - s
    if need <= 0:
        return Series.zero(dom, prec)
    den_unit = Series.from_poly(den.poly.exact_div_monomial(dv), need)
    ratio = Series.from_poly(num.poly, need) * den_unit.invert()
    if s >= 0:
        return ratio.shift_up(s).truncate(prec)
    if any(ratio.coeffs[:-s]):
        raise ValueError("continued fraction value is not a power series")
    return ratio.shift_down(-s).truncate(prec)


# ---------------------------------------------------------------------------
# Hankel fractions


def _scalar_json(x):
    # integers stay integers; anything fancier serializes as text
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return str(x)


@dataclass(frozen=True)
class HFTerm:
    """One level of a Hankel continued fraction.

    k is the gap exponent, v the unit numerator coefficient, d the
    denominator polynomial with d(0) = 1 and deg(d) <= k + 1. The rendered
    numerator is v*q^k for the head term and -v*q^(k_prev + k + 2) for
    every later term.
    """

    k: int
    v: object
    d: Poly

    def validate(self) -> "HFTerm":
        dom = self.d.dom
        if self.k < 0:
            raise ValueError("term gap k must be >= 0")
        if not dom.coerce(self.v):
            raise ValueError("term coefficient v must be nonzero")
        if self.d.constant() != dom.from_int(1):
            raise ValueError(f"denominator must have constant term 1, got {self.d}")
        if self.d.degree() > self.k + 1:
            raise ValueError(
                f"denominator degree {self.d.degree()} exceeds k+1 = {self.k + 1}"
            )
        return self

    def to_json_dict(self) -> dict:
        """Portable encoding {k, a, v, D}; a = -v is the raw step
        coefficient, D the denominator coefficients in ascending order."""
        dom = self.d.dom
        v = dom.coerce(self.v)
        return {
            "k": self.k,
            "a": _scalar_json(dom.reduce(-v)),
            "v": _scalar_json(v),
            "D": [_scalar_json(c) for c in self.d.coeffs],
        }


@dataclass(frozen=True)
class PeriodicHFraction:
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

    def to_cfterms(self, count: int = None) -> CFTermList:
        """Render as an evaluatable continued fraction.

        Periodic fractions render exactly (preamble + repeating cycle);
        count is only consulted for non-periodic prefixes, where it bounds
        the number of terms used.
        """
        dom = self.dom
        if self.cycle:
            # Each rendered numerator pairs a term's k with its
            # predecessor's; only from the second pass on is the
            # predecessor of cycle[0] equal to cycle[-1], so one full
            # pass is unrolled into the non-repeating part.
            ncyc = len(self.cycle)
            n_fixed = 1 + len(self.preamble) + ncyc
            terms = self.stream(n_fixed + ncyc)
            rendered = [self._render_term(terms, j) for j in range(n_fixed + ncyc)]
            return CFTermList(
                lead=Poly.zero(dom),
                terms=tuple(rendered[:n_fixed]),
                cycle=tuple(rendered[n_fixed:]),
            )
        n = self.n_stored_terms() if count is None else min(count, self.n_stored_terms())
        terms = self.stream(n)
        cf_terms = [self._render_term(terms, j) for j in range(len(terms))]
        return CFTermList(lead=Poly.zero(dom), terms=tuple(cf_terms), cycle=())

    def _render_term(self, terms, j: int) -> CFTerm:
        dom = self.dom
        t = terms[j]
        if j == 0:
            return CFTerm(Poly.monomial(dom, t.k, t.v), t.d)
        e = terms[j - 1].k + t.k + 2
        return CFTerm(Poly.monomial(dom, e, -t.v), t.d)

    def value(self, prec: int) -> Series:
        """Power series of the fraction mod q^prec."""
        return eval_cf(self.to_cfterms(), prec, self.dom)

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
        terms.append(HFTerm(k=v, v=c, d=d).validate())
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


@dataclass(frozen=True)
class RegularCF:
    """f = 1/(a_1 + 1/(a_2 + ...)) with each a_j a polynomial in 1/q of
    positive degree (a LaurentPair supported on exponents -m_j .. 0).

    complete=True means the expansion closed (the residual vanished
    exactly, i.e. f is rational as far as the input precision shows).
    """

    quotients: tuple
    complete: bool = False

    @property
    def dom(self) -> Domain:
        return self.quotients[0].dom

    def validate(self) -> "RegularCF":
        if not self.quotients:
            raise ValueError("a regular continued fraction needs >= 1 quotient")
        for j, a in enumerate(self.quotients):
            if not isinstance(a, LaurentPair) or a.is_zero():
                raise ValueError(f"quotient {j + 1} must be a nonzero Laurent pair")
            if a.max_exponent() > 0:
                raise ValueError(f"quotient {j + 1} has positive powers of q")
            if a.min_exponent() >= 0:
                raise ValueError(f"quotient {j + 1} is constant in 1/q")
        return self

    def depth(self) -> int:
        return len(self.quotients)

    def to_cfterms(self) -> CFTermList:
        dom = self.dom
        one = Poly.one(dom)
        return CFTermList(
            lead=Poly.zero(dom),
            terms=tuple(CFTerm(LaurentPair(one, 0), a) for a in self.quotients),
            cycle=(),
        )

    def value(self, prec: int) -> Series:
        return eval_cf(self.to_cfterms(), prec, self.dom)


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
        quotients.append(LaurentPair(head, v))
        cur = w.shift_down(min(v + 1, w.prec)).shift_up(1)
        if cur.prec <= 1:
            break
    if not quotients:
        raise ValueError("series is zero to precision; no quotient exists")
    return RegularCF(tuple(quotients), complete=complete).validate()


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
        vj = dom.coerce(t.v)
        if j == 0:
            c = dom.inv(vj)
        else:
            c = dom.reduce(-dom.inv(vj * c))
        quotients.append(LaurentPair(t.d.scale(c), t.k + 1))
    complete = hf.terminated and len(terms) == hf.n_stored_terms()
    return RegularCF(tuple(quotients), complete=complete).validate()


def artin_to_hf(cf: RegularCF) -> PeriodicHFraction:
    """Inverse dictionary, producing a (non-periodic) Hankel fraction
    prefix whose series is cf.value() / q."""
    cf.validate()
    dom = cf.dom
    terms = []
    c_prev = None
    for j, a in enumerate(cf.quotients):
        m = -a.min_exponent()
        k = m - 1
        c = a.coefficient(-m)
        d = a.poly.scale(dom.inv(c))
        if d.constant() != dom.from_int(1):
            raise ValueError(f"quotient {j + 1} does not normalize to D(0) = 1")
        if j == 0:
            v = dom.inv(c)
        else:
            v = dom.reduce(-dom.inv(c * c_prev))
        terms.append(HFTerm(k=k, v=v, d=d).validate())
        c_prev = c
    return PeriodicHFraction(
        head=terms[0],
        preamble=tuple(terms[1:]),
        cycle=(),
        terminated=cf.complete,
    )
