"""Exact coefficient arithmetic.

Domains (integers, rationals, prime fields), dense univariate polynomials,
truncated power series and fraction-free determinants. Everything here is
exact; no floating point anywhere. Over ZZ the determinant kernel,
`leading_minors`, reduces rows left-looking, by dot products, while its
pivots are +-1 and finishes with Bareiss steps after the first that is
not; over QQ and GF(p) it is a row-pivoting Bareiss elimination.

Coefficients are plain Python values combined with plain operators
(`+ - * **`, truthiness for zero tests). GF(p) arithmetic runs on
unreduced ints and `Domain.reduce` brings each output coefficient back
into range(p) once; over ZZ and QQ it is the identity. The paths that
test `Domain.reduces` first skip it there: the `Poly` and `Series`
operators and `hfrac.alg_step`. The others still call it on every ring:
`Series.invert`, the determinant kernel of QQ and GF(p)
(`_bareiss_generic`), `qseries.series_of_model`,
`hfrac.hankel_values_from_hfraction`, the `cfrac` dictionary and
`cfrac.HFTerm.to_json_dict`.
"""

from __future__ import annotations

from operator import attrgetter, mul


class ExactDivisionError(ArithmeticError):
    """A division that had to be exact left a remainder."""


class PrecisionError(ValueError):
    """A series was asked for data beyond its stated precision."""


# ---------------------------------------------------------------------------
# Frozen records


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields as class annotations, in order, with
    optional defaults as class attributes, and gets what a frozen
    dataclass gives: construction by position or keyword, equality
    between instances of the same class, a hash of the field values, the
    repr Name(field=value!r, ...), AttributeError on assignment and
    deletion, and a `__post_init__` hook. Nothing is generated as source,
    so defining a record costs no more at import than a plain class.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        if len(fields) < 2:
            # attrgetter returns a bare value, not a tuple, for one field
            raise TypeError(f"record {cls.__name__} needs two or more fields")
        cls._fields = fields
        cls._field_set = frozenset(fields)
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # the tuple of field values, called as self._astuple(self): an
        # attrgetter is not a method and does not bind
        cls._astuple = attrgetter(*fields)

    # a subclass that defines this method has it called after __init__
    __post_init__ = None

    def __init__(self, *args, **kwargs):
        # the two fast paths are every field by position, or every field
        # by keyword; anything else binds one field at a time
        d = self.__dict__
        if not kwargs and len(args) == len(self._fields):
            for f, a in zip(self._fields, args):
                d[f] = a
        elif not args and kwargs.keys() == self._field_set:
            d.update(kwargs)
        else:
            d.update(self._bind(args, kwargs))
        if self.__post_init__ is not None:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> dict:
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for f in fields[len(args):]:
            if f in kwargs:
                values[f] = kwargs.pop(f)
            elif f in cls._defaults:
                values[f] = cls._defaults[f]
            else:
                raise TypeError(f"{name}() missing required argument {f!r}")
        if kwargs:
            raise TypeError(
                f"{name}() got an unexpected or repeated keyword argument "
                f"{next(iter(kwargs))!r}"
            )
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        inner = ", ".join(
            [f"{f}={v!r}" for f, v in zip(self._fields, self._astuple(self))]
        )
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")


# ---------------------------------------------------------------------------
# Domains


class Domain:
    """A coefficient ring.

    Instances are stateless and shared (ZZ, QQ, prime_field(p)). Elements
    are plain Python values: int for ZZ and prime fields, Fraction for QQ.
    Stored elements are always reduced, so an element is zero exactly
    when it is falsy.
    """

    name: str = "?"
    # True when `reduce` is not the identity (prime fields): only then do
    # operator results need a pass through it
    reduces: bool = False

    def __repr__(self):
        return self.name

    def reduce(self, x):
        """The stored form of an operator result: the identity on ZZ and QQ."""
        return x


class IntegerDomain(Domain):
    name = "ZZ"

    def from_int(self, n):
        return int(n)

    def coerce(self, x):
        if isinstance(x, bool):
            raise TypeError("bool is not an integer coefficient")
        if isinstance(x, int):
            return x
        import fractions

        if isinstance(x, fractions.Fraction):
            if x.denominator == 1:
                return x.numerator
            raise ExactDivisionError(f"{x} is not an integer")
        raise TypeError(f"cannot coerce {type(x).__name__} into ZZ")

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ExactDivisionError(f"{a} is not a unit in ZZ")


class RationalDomain(Domain):
    """Elements are Fractions. The methods that make or recognise one
    import `fractions` (which loads `decimal`) when called, so a run that
    stays in ZZ and GF(p), as every command line does, never loads it.
    They use `import fractions`, not `from fractions import Fraction`:
    once loaded, it costs about 0.2 us a call against 1.3 us (CPython
    3.11, 2-vCPU VM)."""

    name = "QQ"

    def from_int(self, n):
        import fractions

        return fractions.Fraction(n)

    def coerce(self, x):
        import fractions

        if isinstance(x, bool):
            raise TypeError("bool is not a rational coefficient")
        if isinstance(x, (int, fractions.Fraction)):
            return fractions.Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into QQ")

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        import fractions

        return fractions.Fraction(1) / a


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Smallest odd composite that is a strong pseudoprime to every base above
# (Sorenson and Webster, Math. Comp. 86 (2017)); below it the test is exact.
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < PRIMALITY_BOUND.

    Larger p raise ValueError: no fixed base set is proved for them.
    """
    if p < 2:
        return False
    if p >= PRIMALITY_BOUND:
        raise ValueError(
            f"primality is decided only below {PRIMALITY_BOUND}, got {p}"
        )
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeFieldDomain(Domain):
    """Integers modulo a prime, stored as ints in range(p)."""

    reduces = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus must be a prime, got {p}")
        self.p = p
        self.name = f"GF({p})"

    def __eq__(self, other):
        return isinstance(other, PrimeFieldDomain) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def from_int(self, n):
        return n % self.p

    def coerce(self, x):
        if isinstance(x, bool):
            raise TypeError("bool is not a field coefficient")
        if isinstance(x, int):
            return x % self.p
        import fractions

        if isinstance(x, fractions.Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {type(x).__name__} into {self.name}")

    def reduce(self, x):
        return x % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self.name}")
        return pow(a, -1, self.p)


ZZ = IntegerDomain()
QQ = RationalDomain()


def prime_field(p: int) -> PrimeFieldDomain:
    # no cache: fields compare and hash by p, so a polynomial or model
    # built over two instances of one GF(p) is one value and one dict key
    return PrimeFieldDomain(p)


# ---------------------------------------------------------------------------
# Dense polynomials


class Poly:
    """Dense univariate polynomial over a Domain.

    Immutable. coeffs[i] is the coefficient of q^i; trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("dom", "coeffs")

    def __init__(self, dom: Domain, coeffs, normalized: bool = False):
        if not normalized:
            coeffs = [dom.coerce(c) for c in coeffs]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            coeffs = tuple(coeffs)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _reduced(dom: Domain, out: list) -> "Poly":
        """Poly of operator results: reduce each once (only where the domain
        reduces), strip trailing zeros."""
        if dom.reduces:
            out = [dom.reduce(c) for c in out]
        while out and not out[-1]:
            out.pop()
        return Poly(dom, tuple(out), normalized=True)

    # -- construction helpers

    @staticmethod
    def zero(dom: Domain) -> "Poly":
        return Poly(dom, (), normalized=True)

    @staticmethod
    def one(dom: Domain) -> "Poly":
        return Poly(dom, (dom.from_int(1),), normalized=True)

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
        coeffs = (dom.from_int(0),) * e + (c,)
        return Poly(dom, coeffs, normalized=True)

    # -- structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree, or -1 for the zero polynomial. The -1 is a sentinel: it
        orders below every real degree and is never fed into arithmetic."""
        return len(self.coeffs) - 1

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient. Undefined for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("the zero polynomial has no valuation")

    def coefficient(self, i: int):
        if i < 0:
            raise IndexError("negative exponent")
        if i < len(self.coeffs):
            return self.coeffs[i]
        return self.dom.from_int(0)

    def constant(self):
        return self.coefficient(0)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.dom == other.dom
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dom.name, self.coeffs))

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

    def __neg__(self):
        return Poly._reduced(self.dom, [-c for c in self.coeffs])

    def __mul__(self, other):
        dom = self._same_dom(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(dom)
        out = [dom.from_int(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return Poly._reduced(dom, out)

    def scale(self, c) -> "Poly":
        c = self.dom.coerce(c)
        return Poly._reduced(self.dom, [x * c for x in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by q^k (k >= 0)."""
        if k < 0:
            raise ValueError("use exact_div_monomial for negative shifts")
        if not self.coeffs:
            return self
        zero = self.dom.from_int(0)
        return Poly(self.dom, (zero,) * k + self.coeffs, normalized=True)

    def exact_div_monomial(self, k: int) -> "Poly":
        """Divide by q^k; the low k coefficients must vanish."""
        if k == 0:
            return self
        if not self.coeffs:
            return self
        low = self.coeffs[:k]
        if any(low):
            raise ExactDivisionError(f"polynomial not divisible by q^{k}")
        return Poly(self.dom, self.coeffs[k:], normalized=True)

    def map_domain(self, new_dom: Domain) -> "Poly":
        return Poly(new_dom, tuple(new_dom.coerce(c) for c in self.coeffs))

    def _same_dom(self, other) -> Domain:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.dom != other.dom:
            raise TypeError(f"domain mismatch: {self.dom} vs {other.dom}")
        return self.dom

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
# Truncated power series


class Series:
    """Truncated power series: the coefficients f_0 .. f_{prec-1} are known.

    len(coeffs) == prec always. Arithmetic propagates the minimum precision
    of its inputs; asking for coefficients past prec raises.
    """

    __slots__ = ("dom", "coeffs", "prec")

    def __init__(self, dom: Domain, coeffs, prec: int = None, normalized=False):
        if not normalized:
            coeffs = [dom.coerce(c) for c in coeffs]
            if prec is None:
                prec = len(coeffs)
            if prec < 0:
                raise PrecisionError("series precision must be >= 0")
            zero = dom.from_int(0)
            if len(coeffs) < prec:
                coeffs = coeffs + [zero] * (prec - len(coeffs))
            else:
                coeffs = coeffs[:prec]
            coeffs = tuple(coeffs)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", len(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def from_poly(p: Poly, prec: int) -> "Series":
        return Series(p.dom, list(p.coeffs), prec)

    @staticmethod
    def zero(dom: Domain, prec: int) -> "Series":
        return Series(dom, [], prec)

    def valuation(self):
        """Index of the first nonzero known coefficient, or None if the
        series is zero to its precision."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def truncate(self, prec: int) -> "Series":
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        return Series(self.dom, self.coeffs[:prec], prec, normalized=True)

    def shift_down(self, ell: int) -> "Series":
        """Drop the first ell coefficients: (F - sum_{i<ell} f_i q^i)/q^ell."""
        if ell < 0:
            raise ValueError("shift must be >= 0")
        if ell > self.prec:
            raise PrecisionError(f"cannot drop {ell} terms of a {self.prec}-term series")
        return Series(self.dom, self.coeffs[ell:], self.prec - ell, normalized=True)

    def shift_up(self, k: int) -> "Series":
        """Multiply by q^k: prepends k zero coefficients."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        zero = self.dom.from_int(0)
        return Series(self.dom, (zero,) * k + self.coeffs, self.prec + k, normalized=True)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.dom == other.dom
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dom.name, self.prec, self.coeffs))

    def _same_dom(self, other) -> Domain:
        if not isinstance(other, Series):
            raise TypeError(f"expected Series, got {type(other).__name__}")
        if self.dom != other.dom:
            raise TypeError(f"domain mismatch: {self.dom} vs {other.dom}")
        return self.dom

    @staticmethod
    def _reduced(dom: Domain, out) -> "Series":
        """Series of operator results, each reduced once (only where the
        domain reduces)."""
        if dom.reduces:
            out = [dom.reduce(c) for c in out]
        return Series(dom, tuple(out), normalized=True)

    def __add__(self, other):
        dom = self._same_dom(other)
        return Series._reduced(dom, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        dom = self._same_dom(other)
        return Series._reduced(dom, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Series._reduced(self.dom, [-c for c in self.coeffs])

    def __mul__(self, other):
        dom = self._same_dom(other)
        n = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        out = [dom.from_int(0)] * n
        for i in range(n):
            ca = a[i]
            if ca:
                for j, cb in enumerate(b[:n - i], i):
                    if cb:
                        out[j] += ca * cb
        return Series._reduced(dom, out)

    def scale(self, c) -> "Series":
        c = self.dom.coerce(c)
        return Series._reduced(self.dom, [x * c for x in self.coeffs])

    def invert(self) -> "Series":
        """Multiplicative inverse; the constant term must be a unit."""
        dom = self.dom
        if self.prec == 0:
            raise PrecisionError("cannot invert a zero-precision series")
        f0 = self.coeffs[0]
        if not dom.is_unit(f0):
            raise ExactDivisionError(f"constant term {f0} is not a unit in {dom}")
        inv0 = dom.inv(f0)
        f = self.coeffs
        out = [inv0]
        for m in range(1, self.prec):
            acc = sum(fi * out[m - i] for i, fi in enumerate(f[1:m + 1], 1) if fi)
            out.append(dom.reduce(-acc * inv0))
        return Series(dom, tuple(out), normalized=True)

    def map_domain(self, new_dom: Domain) -> "Series":
        return Series(new_dom, [new_dom.coerce(c) for c in self.coeffs], self.prec)

    def __str__(self):
        body = format_terms(enumerate(self.coeffs))
        return f"{body} + O(q^{self.prec})"

    def __repr__(self):
        return f"Series({self.dom}, {list(self.coeffs)!r}, prec={self.prec})"


# ---------------------------------------------------------------------------
# Fraction-free determinants


def det_fraction_free(rows, dom: Domain):
    """Determinant of a square matrix over dom, given as rows, by Bareiss
    fraction-free elimination: leading_minors over ZZ, row pivoting over
    other domains.

    All intermediate divisions are exact by construction (Sylvester's
    identity), so the computation stays in the domain. The empty 0x0
    matrix has determinant 1.
    """
    rows = [[dom.coerce(c) for c in row] for row in rows]
    n = len(rows)
    if n == 0:
        return dom.from_int(1)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if dom is ZZ:
        return leading_minors(rows)[-1]
    return _bareiss_generic(dom, rows)


def leading_minors(rows) -> list:
    """Every leading principal minor of a square integer matrix, from one
    fraction-free elimination: [1, d_1, ..., d_n], d_k of the top-left
    k x k block.

    Rows are processed in order; each pivots on its leftmost nonzero
    column not yet used. Pivoting only moves rightward, so rows 0..k-1
    have pivots in exactly columns 0..k-1 when d_k != 0; d_k is then the
    Bareiss pivot of row k-1 (the minor of rows 0..k-1 on their pivot
    columns, taken in pivot order) times the sign of the pivot-column
    permutation. A row without a pivot depends on the rows above it, so
    every larger minor vanishes.

    The elimination runs in two phases. While every pivot is +-1, the
    rows are taken left-looking. Input row h_i is reduced by the plain
    (Gaussian) rows above it, row k kept as U_k, its reduced row times
    its pivot, so that U_k is 1 in its pivot column pc_k. The multipliers
    are c_k = h_i[pc_k] - sum_{t<k} c_t U_t[pc_k], and each live entry
    is h_i[j] - sum_k c_k U_k[j]. With unit pivots no step divides, so
    every update only adds integer products, and each entry is one dot
    product, run in C by sum(map(mul, ...)) over per-column lists of the
    U_k, each entry stored once. The Bareiss pivot is the product det of
    the plain pivots, +-1.

    At the first pivot that is not a unit, its row and the rows below are
    brought up to date row by row, subtracting c_k U_k for each unit step
    in turn: on the windows the hand-off comes after at most five unit
    steps, too few for a dot product per entry to pay for its call.
    Right-looking Bareiss steps (x*piv - f*y) / prev then finish the
    elimination; every division is exact (Sylvester's identity), so the
    entries stay in ZZ. A Bareiss row after the unit steps is det times
    the plain row, so the first Bareiss step takes the plain rows and
    pivot with prev = det, which gives the Bareiss rows; its Bareiss
    pivot is det times the plain one. A step whose divisor prev is +-1
    skips the division, and one whose pivot is +-1 skips a product:
    (x - g*y) / (prev*piv), g = f*piv. Those unit steps are written as
    plain differences x - g*y, which ran 3-12 % faster on the scan
    windows (orders 79-167) than the negated -(g*y - x). A row with
    prev*piv = 1 and f = 0 is unchanged.

    Any entry that is not an int (a Fraction, say) is refused, since the
    floor division would silently round it.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("leading minors of a non-square matrix")
        if not {int}.issuperset(map(type, row)):
            bad = next(x for x in row if type(x) is not int)
            raise TypeError(f"leading minors need int entries, got {type(bad).__name__}")
    live = list(range(n))  # original index of each column not yet pivoted
    cols = [[] for _ in live]  # per live column, its entries in the rows above
    steps = []  # per unit pivot: its column and that column's list
    minors = [1]
    inversions = 0
    det = 1

    def multipliers(h):
        c = []
        for pc, col in steps:
            c.append(h[pc] - sum(map(mul, c, col)))
        return c

    def reduced(h):
        c = multipliers(h)
        return [h[j] - sum(map(mul, c, col)) for j, col in zip(live, cols)]

    def updated(h):
        out = list(map(h.__getitem__, live))
        for c, u in zip(multipliers(h), urows):
            if c:
                out = [x - c * y for x, y in zip(out, u)]
        return out

    i = 0  # the first row of the Bareiss phase
    for i, h in enumerate(rows):
        row = reduced(h)
        pos = next((p for p, x in enumerate(row) if x), None)
        if pos is None:
            return minors + [0] * (n - i)
        p = row[pos]
        if p != 1 and p != -1:
            break
        det *= p
        for col, x in zip(cols, row):
            col.append(x * p)
        steps.append((live[pos], cols[pos]))
        del live[pos], cols[pos]
        # Each of the pos live columns left of the pivot is pivoted by
        # a later row. When d_k != 0 that row is above row k, so the sum
        # over rows < k counts the inversions of their pivot columns.
        inversions += pos
        minors.append(0 if live and live[0] <= i else (-det if inversions & 1 else det))
    else:
        return minors
    urows = list(zip(*cols))  # the live entries of each U_k
    m = list(map(updated, rows[i:]))
    prev = det
    for k, row in enumerate(m, i):
        pos = next((p for p, x in enumerate(row) if x), None)
        if pos is None:
            break
        piv = row[pos]
        del live[pos], row[pos]
        inversions += pos
        unit = piv == 1 or piv == -1
        q = prev * piv if unit else prev
        for r in range(k - i + 1, len(m)):
            mr = m[r]
            f = mr.pop(pos)
            if unit:
                g = f * piv
                if q == 1:
                    if f:
                        m[r] = [x - g * y for x, y in zip(mr, row)]
                elif q == -1:
                    m[r] = [g * y - x for x, y in zip(mr, row)]
                else:
                    m[r] = [(x - g * y) // q for x, y in zip(mr, row)]
            elif q == 1:
                m[r] = [x * piv - f * y for x, y in zip(mr, row)]
            elif q == -1:
                m[r] = [f * y - x * piv for x, y in zip(mr, row)]
            else:
                m[r] = [(x * piv - f * y) // q for x, y in zip(mr, row)]
        if k == i:
            piv *= det
        prev = piv
        minors.append(0 if live and live[0] <= k else (-piv if inversions & 1 else piv))
    return minors + [0] * (n + 1 - len(minors))


def _bareiss_generic(dom: Domain, m):
    # Over a field: each division by the previous pivot is exact, so it is
    # one multiplication by an inverse taken once per pivot.
    n = len(m)
    sign = 1
    prev = dom.from_int(1)
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return dom.from_int(0)
        pivot = m[k][k]
        inv_prev = dom.inv(prev)
        for i in range(k + 1, n):
            lead = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = dom.reduce((m[i][j] * pivot - lead * m[k][j]) * inv_prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return dom.reduce(-d) if sign < 0 else d
