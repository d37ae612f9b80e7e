"""Periodic Hankel-fraction discovery for quadratic power series.

A quadratic model A + B*F + C*F^2 = 0 (A != 0, B(0) = 1, C != 0,
C(0) = 0) pins down a unique power-series root F. One `alg_step` peels
the leading Hankel-fraction term (k, a, D) off that root and returns the
model of the tail series; iterating with cycle detection turns the whole
expansion into a finite object whenever the model triples repeat. The
metallic models do repeat, with cycle length 6n-4, and the module also
builds that cycle directly from its closed-form block structure, the
models of coefficient-shifted series, their fraction expansions by
rotating that cycle, and the support bookkeeping (s_p, eps_p) that
evaluates every Hankel determinant of such a series by a product formula.

The expansion runs in the model's own ring only. The metallic step
coefficients are units (+-1), so integer models stay over ZZ; a model
whose step meets a non-unit raises ExactDivisionError, and a caller who
wants the rationals maps the model there first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .algebra import ExactDivisionError, Poly, Record, ZZ
from .cfrac import HFTerm, PeriodicHFraction
from .qseries import Model, angle_bracket, metallic_model, q_integer


class AlgStepResult(Record):
    """One expansion step: emitted term data plus the follow-up model.

    next_model is None exactly when the tail series is zero, i.e. the
    root was rational and the fraction terminates after this term.
    """

    k: int
    a: object
    d: Poly
    next_model: object  # Model or None


def alg_step(model: Model) -> AlgStepResult:
    """Peel one Hankel-fraction term off the root of a quadratic model.

    With (k, a) the lowest term of A, the emitted denominator D is the
    unique polynomial of degree <= k+1 with
        a q^k B/A - a c1 q^(k+1) = D + O(q^(k+2)),
    where c1 is the linear coefficient of C, and the tail model is
        A* = (-D^2 A/a + B D q^k - C a q^(2k)) / q^(2k+2),
        B* = 2 A D/(a q^k) - B,
        C* = -A q^2 / a.
    All divisions are exact; a failing one signals a corrupted model.
    The step runs in the model's own ring, so the lowest coefficient a
    must be a unit there (`inv` raises ExactDivisionError otherwise).

    The step works on coefficient lists with plain operators: D comes
    from one truncated power-series division, the product A D is formed
    once and serves both A* and B*, and each of D, A*, B* and C* is
    accumulated into one list whose coefficients are reduced once (over
    GF(p) only; ZZ and QQ call no `reduce`) before its Poly is built.
    """
    dom = model.dom
    ac, bc, cc = model.a.coeffs, model.b.coeffs, model.c.coeffs
    k = model.a.valuation()
    a = ac[k]
    inv_a = dom.inv(a)

    # D = a B/(A/q^k) - a c1 q^(k+1) mod q^(k+2). D (A/q^k) = a B gives
    # d_m = b_m - (u_1 d_(m-1) + ... + u_m d_0)/a with u_i = A_(k+i), so
    # each d_m, once known, is taken off the later coefficients
    d = list(bc[:k + 2]) + [0] * (k + 2 - len(bc))
    if len(cc) > 1:
        d[k + 1] -= a * cc[1]
    u_terms = [(i, inv_a * u) for i, u in enumerate(ac[k + 1:2 * k + 2], 1) if u]
    for m in range(k + 2):
        if dom.reduces:
            d[m] = dom.reduce(d[m])
        dm = d[m]
        if dm:
            for i, u in u_terms:
                if m + i > k + 1:
                    break
                d[m + i] -= u * dm
    while not d[-1]:
        d.pop()
    d_pol = Poly._make(dom, tuple(d))

    # E = A D - a q^k B vanishes to order 2k+1, because D matches
    # a q^k B/A that far; it carries the one product A D into A* and B*
    d_terms = [(j, dj) for j, dj in enumerate(d) if dj]
    e = [0] * max(len(ac) + len(d) - 1, len(bc) + k)
    for i, x in enumerate(ac[k:], k):
        if x:
            for j, dj in d_terms:
                e[i + j] += x * dj
    for j, x in enumerate(bc, k):
        e[j] -= a * x

    # A* q^(2k+2) = -D E/a - a q^(2k) C
    e_terms = [(j, x) for j, x in enumerate(e) if x]
    num = [0] * max(len(e) + len(d) - 1, len(cc) + 2 * k)
    for i, dj in d_terms:
        s = -inv_a * dj
        for j, x in e_terms:
            num[i + j] += s * x
    for j, x in enumerate(cc, 2 * k):
        num[j] -= a * x
    if dom.reduces:
        num = [dom.reduce(x) for x in num]
    while num and not num[-1]:
        num.pop()
    if any(num[:2 * k + 2]):
        raise ExactDivisionError(f"polynomial not divisible by q^{2 * k + 2}")
    if len(num) <= 2 * k + 2:
        return AlgStepResult(k=k, a=a, d=d_pol, next_model=None)
    a_next = Poly._make(dom, tuple(num[2 * k + 2:]))

    # B* = 2 A D/(a q^k) - B = 2 E/(a q^k) + B, and C* = -q^2 A/a
    two_inv_a = 2 * inv_a
    b_next = [two_inv_a * x for x in e[k:]]
    for j, x in enumerate(bc):
        b_next[j] += x
    c_next = [0, 0] + [-inv_a * x for x in ac]
    b_pol, c_pol = Poly._reduced(dom, b_next), Poly._reduced(dom, c_next)
    return AlgStepResult(k=k, a=a, d=d_pol, next_model=Model(a_next, b_pol, c_pol))


def hfraction_of_quadratic(model: Model, max_steps: int = 1000) -> PeriodicHFraction:
    """Expand the root of a quadratic model into its Hankel fraction.

    Iterates alg_step, recording each model (an (A, B, C) triple); the
    first repeated model closes the cycle and the result is returned in
    canonical form (primitive cycle, shortest preamble). A vanishing tail
    terminates the fraction instead (rational root). If neither happens
    within max_steps terms, the partial prefix is returned with an empty
    cycle and terminated=False; callers can distinguish the three
    outcomes by inspecting `cycle` and `terminated`.

    The expansion runs in the model's own ring. The step divides by the
    lowest A-coefficient, so a model that meets a non-unit one (the
    metallic models never do) raises ExactDivisionError. To expand over
    the rationals instead, map the model there first.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    dom = model.dom
    terms = []
    seen = {}
    preamble = ()
    cycle = ()
    terminated = False
    while True:
        if model in seen:
            first = seen[model]
            if first == 0:
                # the head term re-occurs as cycle data; keep index 0 as head
                cycle = tuple(terms[1:]) + (terms[0],)
            else:
                preamble = tuple(terms[1:first])
                cycle = tuple(terms[first:])
            break
        if len(terms) >= max_steps:
            preamble = tuple(terms[1:])
            break
        seen[model] = len(terms)
        step = alg_step(model)
        v = dom.reduce(-step.a) if dom.reduces else -step.a
        terms.append(HFTerm(k=step.k, v=v, d=step.d))
        if step.next_model is None:
            preamble = tuple(terms[1:])
            terminated = True
            break
        model = step.next_model

    return PeriodicHFraction(
        head=terms[0], preamble=preamble, cycle=cycle, terminated=terminated
    ).canonical()


def metallic_step_cap(n: int) -> int:
    """Generous step budget for metallic inputs: the cycle length is
    6n-4, so a dozen periods plus slack always suffices."""
    return 12 * (6 * n - 4) + 24


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


def shift_model(model: Model) -> Model:
    """Model of the tail (F - f0)/q, where f0 is the root's constant term.

    Every model has B(0) = 1 and C(0) = 0, so the constant term of
    A + B F + C F^2 = 0 reads A(0) + f0 = 0: the model fixes f0 = -A(0).
    The update is A' = (A + f0 B + f0^2 C)/q, exact by that choice of f0,
    B' = B + 2 f0 C and C' = q C. B'(0) = B(0) + 2 f0 C(0) = 1, so the
    result is a model too, with no rescaling.
    """
    f0 = -model.a.constant()
    a_pol, b_pol, c_pol = model.a, model.b, model.c
    shifted = a_pol + b_pol.scale(f0) + c_pol.scale(f0 * f0)
    if shifted.is_zero():
        raise ValueError("the tail series is zero: the root equals f0 exactly")
    a_new = shifted.exact_div_monomial(1)
    b_new = b_pol + c_pol.scale(2 * f0)
    c_new = c_pol.shift(1)
    return Model(a_new, b_new, c_new)


def _over_one_minus_q(p: Poly) -> Poly:
    """p / (1 - q) over ZZ. The quotient's coefficients are the running
    sums of p's; the division is exact iff the last sum, p(1), is 0."""
    sums = list(accumulate(p.coeffs))
    if sums and sums[-1]:
        raise ExactDivisionError(f"{p} is not divisible by 1 - q")
    return Poly(ZZ, sums[:-1])


def shifted_metallic_model(n: int, ell: int) -> Model:
    """Closed-form model of the ell-fold coefficient shift of the
    q-metallic series, valid for 0 <= ell <= n+1.

    For ell <= n the triple is
        A = (q^(ell+1) - (q^2-q+1)(q^n - q^(n-ell) + 1)) / (q-1)^2,
        B = (2 q^(ell+1) - (q^2-q+1)(q^n + 1)) / (q-1),
        C = q^(ell+1),
    and for ell = n+1 it is
        A = -q^(n-1),
        B = -((q^2-q+1) + (q^2-3q+1) q^n) / (q-1),
        C = q^(n+2).
    Both divisions are exact. ell = 0 reproduces the metallic model.
    """
    if n < 1:
        raise ValueError(f"metallic index must be >= 1, got {n}")
    if not 0 <= ell <= n + 1:
        raise ValueError(f"shift must be in 0..n+1 for the closed forms, got {ell}")
    one = Poly.one(ZZ)
    quadratic_unit = Poly(ZZ, (1, -1, 1))  # q^2 - q + 1
    # (q-1)^2 = (1-q)^2 and 1/(q-1) = -1/(1-q)
    if ell <= n:
        inner = Poly.monomial(ZZ, n) - Poly.monomial(ZZ, n - ell) + one
        a_pol = _over_one_minus_q(
            _over_one_minus_q(Poly.monomial(ZZ, ell + 1) - quadratic_unit * inner)
        )
        b_pol = -_over_one_minus_q(
            Poly.monomial(ZZ, ell + 1, 2) - quadratic_unit * (Poly.monomial(ZZ, n) + one)
        )
        c_pol = Poly.monomial(ZZ, ell + 1)
    else:
        a_pol = Poly.monomial(ZZ, n - 1, -1)
        b_pol = _over_one_minus_q(
            quadratic_unit + Poly(ZZ, (1, -3, 1)) * Poly.monomial(ZZ, n)
        )
        c_pol = Poly.monomial(ZZ, n + 2)
    return Model(a_pol, b_pol, c_pol)


def shifted_model_chain(n: int, ell: int) -> Model:
    """Model of the ell-fold coefficient shift built by applying
    shift_model ell times to the metallic model. Works for every ell >= 0,
    beyond the closed-form range of shifted_metallic_model."""
    if ell < 0:
        raise ValueError("shift must be >= 0")
    model = metallic_model(n)
    for _ in range(ell):
        model = shift_model(model)
    return model


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
