"""Coefficient tuples and dense polynomials.

`_Coeffs` is the base of `Poly` and `qseries.Series`: an immutable
coefficient tuple over an `algebra` domain, with what the two share.
`Poly` is the dense univariate polynomial; `format_terms` renders both.
The q-integers [n]_q and the bracket polynomial, the two polynomials the
closed forms are built from, are built here over ZZ, so that the
fraction template needs no power series.
"""

from __future__ import annotations

from .algebra import Domain, ExactDivisionError, ZZ


# ---------------------------------------------------------------------------
# Coefficient tuples


class _Coeffs:
    """Base of `Poly` and `qseries.Series`: an immutable coefficient tuple
    over a Domain. `_make` trusts a tuple in the subclass's stored form
    (`_store`); public construction coerces."""

    __slots__ = ("dom", "coeffs")
    _store = tuple

    @classmethod
    def _make(cls, dom: Domain, coeffs: tuple):
        self = object.__new__(cls)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the stored pair as it is
        return self._make, (self.dom, self.coeffs)

    @classmethod
    def _reduced(cls, dom: Domain, out: list):
        """Operator results, each reduced once where the domain reduces."""
        if dom.reduces:
            out = [dom.reduce(c) for c in out]
        return cls._make(dom, cls._store(out))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dom == other.dom
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dom.name, self.coeffs))

    def _same_dom(self, other) -> Domain:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.dom != other.dom:
            raise TypeError(f"domain mismatch: {self.dom} vs {other.dom}")
        return self.dom

    def __neg__(self):
        return self._reduced(self.dom, [-c for c in self.coeffs])

    def scale(self, c):
        c = self.dom.coerce(c)
        return self._reduced(self.dom, [x * c for x in self.coeffs])

    def map_domain(self, new_dom: Domain):
        return type(self)(new_dom, self.coeffs)

    def valuation(self):
        """Index of the first nonzero coefficient, or None for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None


# ---------------------------------------------------------------------------
# Dense polynomials


class Poly(_Coeffs):
    """Dense univariate polynomial over a Domain.

    Immutable. coeffs[i] is the coefficient of q^i; trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ()

    def __new__(cls, dom: Domain, coeffs):
        return cls._make(dom, cls._store([dom.coerce(c) for c in coeffs]))

    @staticmethod
    def _store(out: list) -> tuple:
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    # -- construction helpers

    @staticmethod
    def zero(dom: Domain) -> "Poly":
        return Poly._make(dom, ())

    @staticmethod
    def one(dom: Domain) -> "Poly":
        return Poly._make(dom, (1,))

    @staticmethod
    def q(dom: Domain) -> "Poly":
        return Poly.monomial(dom, 1)

    @staticmethod
    def monomial(dom: Domain, e: int, c=1) -> "Poly":
        if e < 0:
            raise ValueError("monomial exponent must be >= 0")
        c = dom.coerce(c)
        if not c:
            return Poly.zero(dom)
        return Poly._make(dom, (0,) * e + (c,))

    # -- structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree, or -1 for the zero polynomial. The -1 is a sentinel: it
        orders below every real degree and is never fed into arithmetic."""
        return len(self.coeffs) - 1

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic

    def __add__(self, other):
        a, b, dom = self.coeffs, other.coeffs, self._same_dom(other)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._reduced(dom, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        dom = self._same_dom(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(dom)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return Poly._reduced(dom, out)

    def shift(self, k: int) -> "Poly":
        """Multiply by q^k (k >= 0)."""
        if k < 0:
            raise ValueError("use exact_div_monomial for negative shifts")
        if not self.coeffs:
            return self
        return Poly._make(self.dom, (0,) * k + self.coeffs)

    def exact_div_monomial(self, k: int) -> "Poly":
        """Divide by q^k; the low k coefficients must vanish."""
        if k == 0:
            return self
        if not self.coeffs:
            return self
        low = self.coeffs[:k]
        if any(low):
            raise ExactDivisionError(f"polynomial not divisible by q^{k}")
        return Poly._make(self.dom, self.coeffs[k:])

    # -- rendering

    def __str__(self):
        return format_terms(enumerate(self.coeffs))

    def __repr__(self):
        return f"Poly({self.dom}, {list(self.coeffs)!r})"


def format_terms(indexed_coeffs) -> str:
    """Render coefficient data in ascending powers of q: '1 - 2q - q^3'."""
    parts = []
    for i, c in indexed_coeffs:
        if not c:
            continue
        neg = _is_negative(c)
        mag = -c if neg else c
        if i == 0:
            body = _coeff_str(mag)
        else:
            var = "q" if i == 1 else f"q^{i}"
            body = var if mag == 1 else f"{_coeff_str(mag)}{var}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts) if parts else "0"


# Coefficients are ints or Fractions, and both have a denominator (1 for
# an int), so these two tell them apart without importing `fractions`.


def _is_negative(c) -> bool:
    return hasattr(c, "denominator") and c < 0


def _coeff_str(c) -> str:
    if getattr(c, "denominator", 1) != 1:
        return f"({c})"
    return str(c)


# ---------------------------------------------------------------------------
# q-integers


def q_integer(n: int) -> Poly:
    """The q-deformation [n]_q = 1 + q + ... + q^(n-1) of an integer n >= 0.

    Satisfies [n+1]_q = q*[n]_q + 1.
    """
    if n < 0:
        raise ValueError(f"q-integers are defined here for n >= 0, got {n}")
    return Poly._make(ZZ, (1,) * n)


def angle_bracket(n: int) -> Poly:
    """The auxiliary polynomial q*[n]_q + (1 + q^n)(1 - q), defined for n >= 2.

    Explicitly 1 + 2q^2 - q^3 for n = 2 and
    1 + q^2 + q^3 + ... + q^(n-1) + 2q^n - q^(n+1) for n >= 3.
    """
    if n < 2:
        raise ValueError(f"angle bracket needs n >= 2, got {n}")
    return Poly._make(ZZ, (1, 0) + (1,) * (n - 2) + (2, -1))
