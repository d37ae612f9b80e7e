"""Truncated power series and the q-deformed metallic numbers.

`Series` holds the coefficients f_0 .. f_{prec-1} of a power series
over one of the `algebra` domains, on the coefficient base it shares
with `poly.Poly`; every request that reads a series runs this module,
so the class lives here rather than in `poly`.

A metallic number (n + sqrt(n^2+4))/2 deforms to a power series Phi_n
that is a root of an explicit quadratic equation with polynomial
coefficients; `metallic_model` builds that equation from the q-integer
[n]_q = 1 + q + ... + q^(n-1) of `poly`, and `series_of_model` expands
any such root as an exact power series. The q-rationals and the Catalan
and Motzkin series are in `qrational`; this module still serves their
names, and those of the q-integers, from there.

Every builder here works over ZZ with plain ints: the objects of the
paper are integral. A caller that needs another ring maps the result
once with `map_domain`.
"""

from __future__ import annotations

from .algebra import Domain, PrecisionError, ZZ, Record
from .poly import Poly, _Coeffs, format_terms, q_integer
from .poly import angle_bracket  # re-exported: it was defined here


# ---------------------------------------------------------------------------
# Truncated power series


class Series(_Coeffs):
    """Truncated power series: the coefficients f_0 .. f_{prec-1} are known.

    len(coeffs) == prec always. Arithmetic propagates the minimum precision
    of its inputs; asking for coefficients past prec raises.
    """

    __slots__ = ()

    def __new__(cls, dom: Domain, coeffs, prec: int = None):
        coeffs = [dom.coerce(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec < 0:
            raise PrecisionError("series precision must be >= 0")
        return cls._make(dom, tuple(coeffs[:prec] + [0] * (prec - len(coeffs))))

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def from_poly(p: Poly, prec: int) -> "Series":
        return Series(p.dom, list(p.coeffs), prec)

    @staticmethod
    def zero(dom: Domain, prec: int) -> "Series":
        return Series(dom, [], prec)

    def truncate(self, prec: int) -> "Series":
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        return Series._make(self.dom, self.coeffs[:prec])

    def shift_down(self, ell: int) -> "Series":
        """Drop the first ell coefficients: (F - sum_{i<ell} f_i q^i)/q^ell."""
        if ell < 0:
            raise ValueError("shift must be >= 0")
        if ell > self.prec:
            raise PrecisionError(f"cannot drop {ell} terms of a {self.prec}-term series")
        return Series._make(self.dom, self.coeffs[ell:])

    def shift_up(self, k: int) -> "Series":
        """Multiply by q^k: prepends k zero coefficients."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return Series._make(self.dom, (0,) * k + self.coeffs)

    def __add__(self, other):
        dom = self._same_dom(other)
        return Series._reduced(dom, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        dom = self._same_dom(other)
        return Series._reduced(dom, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        dom = self._same_dom(other)
        n = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        out = [0] * n
        for i in range(n):
            ca = a[i]
            if ca:
                for j, cb in enumerate(b[:n - i], i):
                    if cb:
                        out[j] += ca * cb
        return Series._reduced(dom, out)

    def invert(self) -> "Series":
        """Multiplicative inverse; the constant term must be a unit."""
        dom = self.dom
        if self.prec == 0:
            raise PrecisionError("cannot invert a zero-precision series")
        inv0 = dom.inv(self.coeffs[0])
        f = self.coeffs
        out = [inv0]
        for m in range(1, self.prec):
            acc = sum(fi * out[m - i] for i, fi in enumerate(f[1:m + 1], 1) if fi)
            out.append(dom.reduce(-acc * inv0))
        return Series._make(dom, tuple(out))

    def __str__(self):
        body = format_terms(enumerate(self.coeffs))
        return f"{body} + O(q^{self.prec})"

    def __repr__(self):
        return f"Series({self.dom}, {list(self.coeffs)!r}, prec={self.prec})"


# ---------------------------------------------------------------------------
# Quadratic models


class Model(Record):
    """A quadratic equation A + B*F + C*F^2 = 0 for a power series F.

    The expansion algorithms require A != 0, B(0) = 1, C != 0, C(0) = 0,
    all in one ring; building a model that breaks one raises ValueError,
    so every model that exists is valid. Instances are immutable and
    hashable, which the cycle detection in the fraction expansion relies
    on.
    """

    a: Poly
    b: Poly
    c: Poly

    @property
    def dom(self) -> Domain:
        return self.b.dom

    def __post_init__(self):
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
    A + B*F + C*G is f_m plus terms in f_0 .. f_(m-1), because B(0) = 1
    and C(0) = 0, so setting it to zero gives f_m.
    Only the nonzero coefficients of B and C past the constant term are
    visited, and g_m is summed over half its products by symmetry.
    Exact in the model's domain; O(prec^2) coefficient operations.
    """
    dom = model.dom
    if prec <= 0:
        return Series.zero(dom, max(prec, 0))
    a = list(model.a.coeffs) + [0] * max(0, prec - len(model.a.coeffs))
    b_terms = [(i, bi) for i, bi in enumerate(model.b.coeffs) if i and bi]
    c_terms = [(i, ci) for i, ci in enumerate(model.c.coeffs) if ci]

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
        f.append(dom.reduce(-acc))
        # update G at index m now that f_m is known
        gm = 2 * sum(f[i] * f[m - i] for i in range((m + 1) // 2))
        if m % 2 == 0:
            gm += f[m // 2] * f[m // 2]
        g.append(dom.reduce(gm))
    return Series._make(dom, tuple(f))


def metallic_series(n: int, prec: int) -> Series:
    """Taylor expansion of the q-metallic number Phi_n."""
    return series_of_model(metallic_model(n), prec)


# the names that `qrational` defines, served here on first read (PEP 562)
_QRATIONAL = ("continued_fraction_digits", "q_rational_pair", "q_rational",
              "catalan_series", "motzkin_series")


def __getattr__(name: str):
    from . import qrational

    if name in _QRATIONAL:
        return getattr(qrational, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
