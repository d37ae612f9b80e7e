"""The closed-form Hankel fraction of the q-metallic series, and the
product formula.

`expected_hfraction` assembles the periodic fraction of Phi_n from its
closed-form block structure (cycle length 6n-4), and
`hfraction_of_shift` gives the fraction of every coefficient shift
0..n+1 by rotating that cycle. The support bookkeeping (s_p, eps_p) of
a fraction (`support_profile`) and the product formula
(`hankel_values_from_hfraction`) evaluate every Hankel determinant of
the series it represents without expanding one. The expansion that
rediscovers the fraction from the quadratic model is in `hfrac`; nothing
here needs it, nor a power series.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Record, ZZ
from .cfrac import HFTerm, PeriodicHFraction
from .poly import Poly, angle_bracket, q_integer


# One entry serves every caller: the suites vary n in their outer loop.
# Keeping eight entries raised the peak RSS of `verify --suite thmA
# --n 10..24` by 0.2 MB and saved no measurable time.
@lru_cache(maxsize=1)
def expected_hfraction(n: int) -> PeriodicHFraction:
    """The predicted periodic Hankel fraction of the q-metallic series.

    n = 1 is the published 3-cycle; n >= 2 is assembled from the
    closed-form block structure: a first block of n-2 triples
    (q^(n-i)/[n-i]_q, q^n/([i+2]_q - q), q^(i+2)/(1-q)) capped by
    q^2/[2]_q, q^n/([n]_q - q), q^n/1; a middle block of four terms built
    on the bracket polynomial; a mirror block; and a final q^2/1. Cycle
    length 6n-4, head 1/(1-q).

    The last fraction built is kept, so the theorem suites, which ask
    for it once per shift, build it once per n. It is immutable all the
    way down.
    """
    if n < 1:
        raise ValueError(f"metallic index must be >= 1, got {n}")
    one = Poly.one(ZZ)
    if n == 1:
        pair = q_integer(2)  # 1 + q
        return PeriodicHFraction(
            head=HFTerm(0, 1, one),
            preamble=(),
            cycle=(
                HFTerm(0, 1, pair),
                HFTerm(1, -1, Poly(ZZ, (1, 1, -1))),
                HFTerm(0, -1, pair),
            ),
        )
    q = Poly.q(ZZ)
    one_minus_q = one - q
    # (numerator exponent, numerator sign, denominator) along one cycle
    entries = []
    for i in range(n - 2):
        entries.append((n - i, 1, q_integer(n - i)))
        entries.append((n, 1, q_integer(i + 2) - q))
        entries.append((i + 2, 1, one_minus_q))
    entries.append((2, 1, q_integer(2)))
    entries.append((n, 1, q_integer(n) - q))
    entries.append((n, 1, one))
    bracket = angle_bracket(n)
    bracket_plus = bracket + Poly.monomial(ZZ, n + 1)
    entries.append((n + 1, -1, bracket_plus))
    entries.append((2 * n + 1, 1, bracket))
    entries.append((2 * n + 1, 1, bracket_plus))
    entries.append((n + 1, -1, one))
    for i in range(n - 2):
        entries.append((n - i, 1, q_integer(n - i) - q))
        entries.append((n, 1, q_integer(i + 2)))
        entries.append((i + 2, 1, one_minus_q))
    entries.append((2, 1, one))
    assert len(entries) == 6 * n - 4

    cycle = []
    k_prev = 0
    for exponent, sign, den in entries:
        k = exponent - k_prev - 2
        # a term numerator -v q^(k_prev + k + 2) carries sign -v
        cycle.append(HFTerm(k=k, v=-sign, d=den))
        k_prev = k
    head = HFTerm(0, 1, one_minus_q)
    return PeriodicHFraction(head=head, preamble=(), cycle=tuple(cycle))


def hfraction_of_shift(n: int, ell: int) -> PeriodicHFraction:
    """Hankel fraction of the ell-fold coefficient shift of the
    q-metallic series, by rotation of the full fraction's cycle.

    Dropping m terms with m = 3*ell (ell <= n-1), 3n-1 (ell = n), or
    3n (ell = n+1) exposes the fraction of the shifted series directly;
    no re-expansion is needed. The full fraction has no preamble and
    1 <= m <= 6n-4, so the term after the dropped ones is cycle[m-1]: it
    becomes the head, its stored coefficient flipped because a head
    numerator carries +v where a later one carries -v, and the cycle
    turns to start at cycle[m]. Valid for 0 <= ell <= n+1, where the
    fraction is known; ell = 0 returns expected_hfraction(n) itself.
    """
    if not 0 <= ell <= n + 1:
        raise ValueError(
            f"the fraction is known for shifts 0..{n + 1}, got {ell}; "
            "only the brute-force route reaches larger shifts"
        )
    if ell == 0:
        return expected_hfraction(n)
    if ell <= n - 1:
        drop = 3 * ell
    elif ell == n:
        drop = 3 * n - 1
    else:
        drop = 3 * n
    cycle = expected_hfraction(n).cycle
    t = cycle[drop - 1]
    return PeriodicHFraction(
        head=HFTerm(t.k, -t.v, t.d), cycle=cycle[drop:] + cycle[:drop]
    )



class SupportProfile(Record):
    """Index bookkeeping of a Hankel fraction.

    s_p = p + sum_{i<p} k_i enumerates the indices of nonzero Hankel
    determinants; eps_p = sum_{i<p} k_i(k_i+1)/2 their sign exponents.
    """

    k_seq: tuple
    s_seq: tuple
    eps_seq: tuple


def support_profile(H: PeriodicHFraction, horizon: int) -> SupportProfile:
    """k/s/eps sequences of a fraction up to term index `horizon`.

    Sequences stop early only when the fraction is finite and shorter.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    terms = H.stream(horizon + 1)
    k_seq = tuple(t.k for t in terms)
    s_seq = [0]
    eps_seq = [0]
    for t in terms[:horizon]:
        s_seq.append(s_seq[-1] + 1 + t.k)
        eps_seq.append(eps_seq[-1] + t.k * (t.k + 1) // 2)
    return SupportProfile(k_seq=k_seq, s_seq=tuple(s_seq), eps_seq=tuple(eps_seq))


def hankel_values_from_hfraction(H: PeriodicHFraction, count: int) -> list:
    """The first `count` Hankel determinants of the series represented
    by H, by the support product formula. No determinant is expanded:
        delta_{s_{p+1}} = delta_{s_p} * (-1)^(k_p(k_p+1)/2) * (v_0...v_p)^(k_p+1)
    and every index outside {s_p} gives zero.

    A finite fraction certifies all indices (beyond the final s the
    determinants vanish); a bare prefix certifies only up to its last
    reachable s and raises beyond it.
    """
    dom = H.dom
    if count < 0:
        raise ValueError("count must be >= 0")
    out = [0] * count
    if count == 0:
        return out
    out[0] = 1
    s = 0
    delta = 1
    running = 1
    # (v, k) of each stored term, read once: the walk goes through the
    # head and preamble, then around the cycle for as long as it needs
    terms = [(t.v, t.k) for t in (H.head, *H.preamble)]
    cycle = [(t.v, t.k) for t in H.cycle]
    i = 0
    while s < count - 1:
        if i == len(terms):
            if not cycle:
                if H.terminated:
                    break  # rational series: all later determinants are zero
                raise ValueError(
                    f"fraction prefix certifies determinants only up to index {s}, "
                    f"index {count - 1} requested"
                )
            terms, i = cycle, 0
        v, k = terms[i]
        i += 1
        running = dom.reduce(running * v)
        step = running ** (k + 1)
        if k * (k + 1) // 2 % 2:
            step = -step
        delta = dom.reduce(delta * step)
        s += 1 + k
        if s < count:
            out[s] = delta
    return out
