"""The fields: QQ, the prime fields GF(p), and deterministic primality.

Every command line computes over ZZ or GF(p), so only `modp` requests
(and the library's QQ users) compile this module. The determinant of a
matrix over a field, `_bareiss_generic`, is here too;
`algebra.det_fraction_free` imports it on use.
"""

from __future__ import annotations

from .algebra import Domain, ExactDivisionError


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

    def __reduce__(self):
        # rings compare by identity, so a copy or an unpickled QQ is the
        # module's own instance
        return "QQ"

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


QQ = RationalDomain()


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


def prime_field(p: int) -> PrimeFieldDomain:
    # no cache: fields compare and hash by p, so a polynomial or model
    # built over two instances of one GF(p) is one value and one dict key
    return PrimeFieldDomain(p)


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
