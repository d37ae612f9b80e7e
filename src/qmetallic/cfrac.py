"""Hankel continued fractions over exact coefficient rings.

A Hankel continued fraction (delta = 2 super fraction) has terms
v_j q^(...)/D_j with deg(D_j) <= k_j + 1 and D_j(0) = 1; a
`PeriodicHFraction` stores them with an explicit preperiod and cycle.
It evaluates to a power series mod q^prec by one bottom-up pass over
truncated series (`_levels_value`, which imports `qseries.Series` only
when it runs). Every level multiplies its tail by a positive power of
q, so a fixed number of levels settles the coefficients below q^prec and
no convergence test is needed.

The greedy expansion of a series, the regular continued fractions in
1/q and the dictionary between the two kinds are in `artin`.
"""

from __future__ import annotations

from .algebra import Domain, Record
from .poly import Poly


# ---------------------------------------------------------------------------
# Evaluation


def _levels_value(levels, dom: Domain, prec: int) -> Series:
    """n_0/(d_0 + n_1/(d_1 + ...)) mod q^prec for a finite list of
    polynomial levels (n_j, d_j), with every d_j(0) a unit and n_j(0) = 0
    for j >= 1.

    Bottom-up on a pair: with the tail a/b, n/(d + a/b) = n b/(d b + a),
    so one series is inverted in all instead of one per level.
    """
    from .qseries import Series

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

