"""Exact coefficient arithmetic.

Domains (integers, rationals, prime fields), dense univariate polynomials,
the frozen `Record` base and fraction-free determinants. Everything here
is exact; no floating point anywhere. Power series (`qseries.Series`)
and the integer determinant kernel (`oracle.leading_minors`) live beside
the requests that use them.

Coefficients are plain Python values combined with plain operators
(`+ - * **`, truthiness for zero tests). GF(p) arithmetic runs on
unreduced ints and `Domain.reduce` brings each output coefficient back
into range(p) once; over ZZ and QQ it is the identity. `Poly` and
`qseries.Series` share one base, whose `_reduced` stores every operator
result and skips `reduce` unless `Domain.reduces`. Still calling it on
every ring: `Series.invert`, the determinant kernel of QQ and GF(p)
(`_bareiss_generic`), `qseries.series_of_model`,
`hfrac.hankel_values_from_hfraction`, the `cfrac` dictionary and
`cfrac.HFTerm.to_json_dict`.

A ring has five members: `name`, `reduces`, `reduce`, `coerce` and
`inv`. `inv` is also the one unit test: in every ring it raises
ExactDivisionError on a non-unit. Zero and one are the int literals 0
and 1 in every ring.
"""

from __future__ import annotations

from operator import attrgetter


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
    deletion, and a `__post_init__` hook, where a record checks its
    invariant: one that exists is valid. Nothing is generated as source,
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
    Zero and one are written as the ints 0 and 1 in every ring, so a QQ
    coefficient tuple may hold them beside Fractions; they compare and
    hash equal to Fraction(0) and Fraction(1). Stored elements are always
    reduced, so an element is zero exactly when it is falsy.
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

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ExactDivisionError(f"{a} is not a unit in ZZ")


class RationalDomain(Domain):
    """Elements are Fractions, and the ints 0 and 1 (see `Domain`). No
    float can arise: the package's only `/` is `inv`'s `Fraction(1) / a`.
    The methods that make or recognise a Fraction import `fractions`
    (which loads `decimal`) when called, so a run that stays in ZZ and
    GF(p), as every command line does, never loads it.
    They use `import fractions`, not `from fractions import Fraction`:
    once loaded, it costs about 0.2 us a call against 1.3 us (CPython
    3.11, 2-vCPU VM)."""

    name = "QQ"

    def coerce(self, x):
        import fractions

        if isinstance(x, bool):
            raise TypeError("bool is not a rational coefficient")
        if isinstance(x, (int, fractions.Fraction)):
            return fractions.Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into QQ")

    def inv(self, a):
        if not a:
            raise ExactDivisionError("0 is not a unit in QQ")
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

    def inv(self, a):
        if a % self.p == 0:
            raise ExactDivisionError(f"{a} is not a unit in {self.name}")
        return pow(a, -1, self.p)


ZZ = IntegerDomain()
QQ = RationalDomain()


def prime_field(p: int) -> PrimeFieldDomain:
    # no cache: fields compare and hash by p, so a polynomial or model
    # built over two instances of one GF(p) is one value and one dict key
    return PrimeFieldDomain(p)


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
# Fraction-free determinants


def det_fraction_free(rows, dom: Domain):
    """Determinant of a square matrix over dom, given as rows, by Bareiss
    fraction-free elimination: `oracle.leading_minors` over ZZ (imported
    on use), row pivoting over other domains.

    All intermediate divisions are exact by construction (Sylvester's
    identity), so the computation stays in the domain. The empty 0x0
    matrix has determinant 1.
    """
    rows = [[dom.coerce(c) for c in row] for row in rows]
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if dom is ZZ:
        from .oracle import leading_minors

        return leading_minors(rows)[-1]
    return _bareiss_generic(dom, rows)


def _bareiss_generic(dom: Domain, m):
    # Over a field: each division by the previous pivot is exact, so it is
    # one multiplication by an inverse taken once per pivot.
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        inv_prev = dom.inv(prev)
        for i in range(k + 1, n):
            lead = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = dom.reduce((m[i][j] * pivot - lead * m[k][j]) * inv_prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return dom.reduce(-d) if sign < 0 else d
