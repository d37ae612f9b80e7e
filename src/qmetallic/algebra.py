"""Exact coefficient arithmetic: the core.

The two errors, the frozen `Record` base, the `Domain` base and ZZ, and
fraction-free determinants. Everything in the package is exact; no
floating point anywhere. The rest of the arithmetic sits beside it, one
module each, so that a request compiles only what it calls:
`poly` (the coefficient base, `Poly`, q-integers), `fields` (QQ, GF(p)
and primality), `qseries.Series` and the integer determinant kernel
`oracle.leading_minors`.

Coefficients are plain Python values combined with plain operators
(`+ - * **`, truthiness for zero tests). GF(p) arithmetic runs on
unreduced ints and `Domain.reduce` brings each output coefficient back
into range(p) once; over ZZ and QQ it is the identity. `Poly` and
`qseries.Series` share one base, whose `_reduced` stores every operator
result and skips `reduce` unless `Domain.reduces`. Still calling it on
every ring: `Series.invert`, the determinant kernel of QQ and GF(p)
(`fields._bareiss_generic`), `qseries.series_of_model`,
`template.hankel_values_from_hfraction`, the `artin` dictionary and
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

    def __reduce__(self):
        # rings compare by identity (`F.dom is not ZZ`), so a copy or an
        # unpickled ZZ is the module's own instance
        return "ZZ"

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


ZZ = IntegerDomain()


# ---------------------------------------------------------------------------
# Fraction-free determinants


def det_fraction_free(rows, dom: Domain):
    """Determinant of a square matrix over dom, given as rows, by Bareiss
    fraction-free elimination: `oracle.leading_minors` over ZZ, row
    pivoting (`fields._bareiss_generic`) over other domains, each
    imported on use.

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
    from .fields import _bareiss_generic

    return _bareiss_generic(dom, rows)

