"""Quadratic-model expansion, shifted models, support profiles."""

import pytest
from hypothesis import given, settings, strategies as st

from qmetallic import (
    ExactDivisionError,
    Poly,
    QQ,
    Series,
    ZZ,
    alg_step,
    expected_hfraction,
    greedy_hfraction,
    hankel_values_from_hfraction,
    hfraction_of_quadratic,
    hfraction_of_shift,
    metallic_model,
    metallic_series,
    metallic_step_cap,
    Model,
    PeriodicHFraction,
    prime_field,
    run_suite,
    shift_model,
    shifted_metallic_model,
    shifted_model_chain,
    support_profile,
    truncate_hfraction_stream,
)
from qmetallic import hfrac

import goldens
from helpers import fraction, series, term_tuple


# --- single expansion steps -----------------------------------------------


def run_trace(model, steps):
    """(state_before, k, a, D) for the first `steps` expansion steps."""
    rows = []
    cur = model
    for _ in range(steps):
        res = alg_step(cur)
        rows.append((cur, res.k, res.a, res.d))
        cur = res.next_model
    return rows


def test_first_step_for_n_5():
    res = alg_step(metallic_model(5))
    assert res.k == 0 and res.a == -1
    assert res.d == Poly(ZZ, [1, -1])
    res.next_model.validate()


def test_step_trace_n5_matches_frozen_rows_with_reentry():
    rows = run_trace(metallic_model(5), 28)
    got = [(k, int(a), [int(c) for c in d.coeffs]) for (_, k, a, d) in rows]
    assert got == goldens.STEP_ROWS_N5
    # the state before step 27 must equal the state before step 1
    assert rows[27][0] == rows[1][0]


def test_step_output_invariants_hold_along_the_iteration():
    cur = metallic_model(3)
    for _ in range(20):
        res = alg_step(cur)
        assert res.a != 0
        assert res.d.constant() == 1
        assert res.d.degree() <= res.k + 1
        nxt = res.next_model
        assert nxt is not None
        nxt.validate()
        cur = nxt


def test_step_soundness_reconstructs_the_root():
    # F = -a q^k / (D - q^(k+2) F1) with F1 the next model's root
    prec = 18
    cur = metallic_model(2)
    for _ in range(10):
        res = alg_step(cur)
        f = _root(cur, prec)
        f1 = _root(res.next_model, prec)
        denom = Series.from_poly(res.d, prec) - f1.shift_up(res.k + 2).truncate(prec)
        rebuilt = denom.invert().scale(-res.a).shift_up(res.k).truncate(prec)
        assert rebuilt.coeffs == f.coeffs
        cur = res.next_model


def _root(model, prec):
    from qmetallic import series_of_model

    return series_of_model(model, prec)


def reference_alg_step(model):
    """The Poly-operator step that `alg_step` replaced: D from a series
    inverse and a product, A D formed twice, every intermediate a Poly or
    Series reduced coefficient by coefficient."""
    model.validate()
    dom = model.dom
    a_pol, b_pol, c_pol = model.a, model.b, model.c
    k = a_pol.valuation()
    a = a_pol.coeffs[k]
    inv_a = dom.inv(a)

    unit_part = a_pol.exact_div_monomial(k)
    ratio = Series.from_poly(b_pol, k + 2) * Series.from_poly(unit_part, k + 2).invert()
    d_coeffs = [a * c for c in ratio.coeffs]
    d_coeffs[k + 1] -= a * c_pol.coeffs[1]
    d = Poly(dom, d_coeffs)

    a_next = (
        (d * d * a_pol).scale(-inv_a)
        + (b_pol * d).shift(k)
        - c_pol.scale(a).shift(2 * k)
    ).exact_div_monomial(2 * k + 2)
    if a_next.is_zero():
        return hfrac.AlgStepResult(k=k, a=a, d=d, next_model=None)
    b_next = (a_pol * d).exact_div_monomial(k).scale(2 * inv_a) - b_pol
    c_next = a_pol.shift(2).scale(-inv_a)
    return hfrac.AlgStepResult(
        k=k, a=a, d=d, next_model=Model(a_next, b_next, c_next).validate()
    )


def step_outcome(step, model):
    """(k, a, d, next_model) of one step, or its exception's type and text."""
    try:
        res = step(model)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return res.k, res.a, res.d, res.next_model


def assert_steps_match_reference(model, max_steps):
    """Walk the expansion of `model` with both steps until it repeats a
    model, ends, fails or reaches max_steps; return the last outcome."""
    seen = set()
    for count in range(max_steps):
        want = step_outcome(reference_alg_step, model)
        assert step_outcome(alg_step, model) == want, (model, count)
        if len(want) == 2 or want[3] is None or model in seen:
            break
        seen.add(model)
        model = want[3]
    return want


STEP_RINGS = (ZZ, QQ, prime_field(2), prime_field(3), prime_field(7),
              prime_field(10000000000037))


def test_step_matches_the_reference_along_every_small_expansion():
    non_units = 0
    for n in range(1, 7):
        for ell in range(n + 4):
            base = metallic_model(n) if ell == 0 else shifted_model_chain(n, ell)
            for dom in STEP_RINGS:
                last = assert_steps_match_reference(base.map_domain(dom), 60)
                non_units += last[0] is ExactDivisionError
    # over ZZ, the walks of 11 of these shifts stop at a non-unit
    assert non_units == 11


_small = st.integers(-3, 3)


@st.composite
def step_models(draw):
    """A valid model over a drawn ring. Its A has valuation k and a drawn
    lowest coefficient, which over ZZ need not be a unit."""
    dom = draw(st.sampled_from(STEP_RINGS))
    k = draw(st.integers(0, 3))
    low = draw(st.sampled_from((1, -1, 2, -3)))
    a = [0] * k + [low] + draw(st.lists(_small, max_size=5))
    b = [1] + draw(st.lists(_small, max_size=5))
    c = [0] + draw(st.lists(_small, min_size=1, max_size=5))
    model = Model(Poly(dom, a), Poly(dom, b), Poly(dom, c))
    if model.a.is_zero() or model.c.is_zero():
        model = Model(Poly(dom, [0] * k + [1]), model.b, Poly.q(dom))
    return model


@st.composite
def rational_root_models(draw):
    """A model whose root c q^k / D is a single fraction term: the model
    (-(B~ D N + C~ N^2), B~ D^2, C~ D^2) with N = c q^k has root N/D for
    every B~ with B~(0) = 1 and C~ with C~(0) = 0."""
    dom = draw(st.sampled_from((ZZ, QQ, prime_field(7))))
    k = draw(st.integers(0, 3))
    num = Poly.monomial(dom, k, draw(st.sampled_from((1, -1))))
    den = Poly(dom, [1] + draw(st.lists(_small, max_size=k + 1)))
    b = Poly(dom, [1] + draw(st.lists(_small, max_size=3)))
    c = Poly(dom, [0] + draw(st.lists(_small, max_size=3)))
    if c.is_zero():
        c = Poly.q(dom)
    return Model(-(b * den * num + c * num * num), b * den * den, c * den * den)


@settings(max_examples=200, deadline=None)
@given(step_models())
def test_step_matches_the_reference_on_drawn_models(model):
    assert_steps_match_reference(model, 8)


@settings(max_examples=100, deadline=None)
@given(rational_root_models())
def test_step_matches_the_reference_on_rational_roots(model):
    want = step_outcome(reference_alg_step, model)
    assert want[3] is None
    assert step_outcome(alg_step, model) == want


def test_step_matches_the_reference_on_a_remainder(monkeypatch):
    # C(0) != 0 leaves -a C(0) q^(2k) in the numerator of A*; validation
    # would refuse the model, so it is switched off to reach the division
    monkeypatch.setattr(Model, "validate", lambda self: self)
    for dom in (ZZ, QQ, prime_field(7)):
        model = Model(Poly(dom, [0, 1, 2]), Poly(dom, [1, 1]), Poly(dom, [1, 1]))
        want = step_outcome(reference_alg_step, model)
        assert want == (ExactDivisionError, "polynomial not divisible by q^4")
        assert step_outcome(alg_step, model) == want


def test_integer_and_rational_expansions_never_reduce(monkeypatch):
    # the last model meets a non-unit over ZZ and is expanded over QQ
    models = [metallic_model(n) for n in (1, 2, 5)]
    models += [metallic_model(3).map_domain(QQ), shifted_model_chain(3, 5)]
    calls = []
    counted = lambda self, x: calls.append(self) or x
    for dom in (ZZ, QQ):
        monkeypatch.setattr(type(dom), "reduce", counted)
    for model in models:
        hfraction_of_quadratic(model, 200)
    assert calls == []

    monkeypatch.undo()
    gf7 = shifted_model_chain(3, 2).map_domain(prime_field(7))
    got = hfraction_of_quadratic(gf7, 4000)
    monkeypatch.setattr(hfrac, "alg_step", reference_alg_step)
    assert hfraction_of_quadratic(gf7, 4000) == got


# --- full expansion ------------------------------------------------------------


def test_expansion_of_gold_and_silver_models_matches_literals():
    for n in (1, 2):
        hf = hfraction_of_quadratic(metallic_model(n))
        assert term_tuple(hf.head) == goldens.FRACTION_HEAD[n]
        assert [term_tuple(t) for t in hf.cycle] == goldens.FRACTION_CYCLE[n]
        assert not hf.preamble and not hf.terminated


def test_template_equals_algorithm_for_small_indices():
    for n in (3, 4):
        assert expected_hfraction(n) == hfraction_of_quadratic(metallic_model(n))


def test_template_is_built_once_per_n_and_kept_in_a_bounded_cache():
    assert expected_hfraction.cache_info().maxsize == 1
    expected_hfraction.cache_clear()
    hf = expected_hfraction(4)
    assert hf.dom == ZZ and expected_hfraction(4) is hf
    assert expected_hfraction(3) is not hf and expected_hfraction(4) is not hf
    info = expected_hfraction.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 1)


def test_theorem_d_suite_builds_each_template_once():
    expected_hfraction.cache_clear()
    assert all(c.passed for c in run_suite("thmD", range(20, 31)))
    assert expected_hfraction.cache_info().misses == 11


def test_cached_template_is_immutable():
    hf = expected_hfraction(3)
    with pytest.raises(AttributeError):
        hf.cycle = ()
    with pytest.raises(AttributeError):
        hf.cycle[0].v = 2
    with pytest.raises(AttributeError):
        hf.head.d.coeffs = (1,)
    assert isinstance(hf.cycle, tuple) and isinstance(hf.cycle[0].d.coeffs, tuple)
    assert expected_hfraction(3) == hfraction_of_quadratic(metallic_model(3))


def test_template_cycle_length():
    assert len(expected_hfraction(3).cycle) == 14
    assert len(expected_hfraction(8).cycle) == 44


def test_cycle_sign_pattern():
    # v = +1 exactly at in-cycle positions 3n-2 and 3n+1 (1-based term index)
    for n in range(3, 9):
        hf = expected_hfraction(n)
        assert int(hf.head.v) == 1
        plus = {j + 1 for j, t in enumerate(hf.cycle) if int(t.v) == 1}
        assert plus == {3 * n - 2, 3 * n + 1}


def test_expansion_stays_within_the_step_cap():
    for n in (1, 2, 5, 8):
        hf = hfraction_of_quadratic(metallic_model(n), metallic_step_cap(n))
        assert hf.cycle


def test_rational_series_terminates():
    # a polynomial is rational, so its fraction must close
    hf = greedy_hfraction(series([1, 0, 2], prec=24, dom=QQ), max_terms=12)
    assert hf.terminated
    assert hf.value(20).coeffs == series([1, 0, 2], prec=20, dom=QQ).coeffs


def test_expansion_agrees_with_greedy_on_certified_overlap():
    for n in (1, 2, 3):
        exact = hfraction_of_quadratic(metallic_model(n))
        approx = greedy_hfraction(metallic_series(n, 50), max_terms=20)
        got = approx.stream(20)
        assert exact.stream(len(got)) == got


def test_integer_expansion_equals_the_rational_one_mapped_back():
    for n in range(1, 9):
        cap = metallic_step_cap(n)
        models = [metallic_model(n)]
        models += [shifted_metallic_model(n, ell) for ell in range(1, n + 2)]
        for model in models:
            over_zz = hfraction_of_quadratic(model, cap)
            assert over_zz.dom == ZZ
            over_qq = hfraction_of_quadratic(model.map_domain(QQ), cap)
            assert over_qq.dom == QQ
            assert over_qq.map_domain(ZZ) == over_zz


def test_metallic_expansion_never_leaves_the_integers(monkeypatch):
    def refuse(self, new_dom):
        raise AssertionError(f"model mapped into {new_dom}")

    monkeypatch.setattr(Model, "map_domain", refuse)
    for n in range(1, 7):
        assert hfraction_of_quadratic(metallic_model(n)) == expected_hfraction(n)


def test_non_unit_lowest_coefficient_falls_back_to_the_rationals():
    q = Poly.q(ZZ)
    # v = 2 is not a unit of ZZ, but every term is integral: mapped back
    model = Model(a=Poly(ZZ, [-2]), b=Poly(ZZ, [1]) + q, c=q)
    with pytest.raises(ExactDivisionError):
        alg_step(model)
    hf = hfraction_of_quadratic(model)
    assert hf.dom == ZZ and not hf.preamble and not hf.terminated
    assert term_tuple(hf.head) == (0, 2, [1, 3])
    assert [term_tuple(t) for t in hf.cycle] == [(0, 6, [1, 5])]

    # fractional terms stay over QQ
    hf = hfraction_of_quadratic(Model(a=Poly(ZZ, [2, 1]), b=Poly(ZZ, [1, 1]), c=q), 6)
    assert hf.dom == QQ and not hf.preamble and not hf.terminated
    as_text = lambda t: (t.k, str(t.v), [str(c) for c in t.d.coeffs])
    assert as_text(hf.head) == (0, "-2", ["1", "-3/2"])
    assert [as_text(t) for t in hf.cycle] == [
        (0, "9/4", ["1", "-7/2"]),
        (0, "2", ["1", "-4"]),
        (1, "9", ["1", "-3", "-6"]),
        (0, "9", ["1", "-4"]),
        (0, "2", ["1", "-7/2"]),
    ]


# --- shifted models ----------------------------------------------------------------


def test_shift_with_zero_constant_divides_a_by_q():
    base = Model(
        a=Poly(ZZ, [0, -1]), b=Poly(ZZ, [1, 1]), c=Poly(ZZ, [0, 0, 1])
    ).validate()
    shifted = shift_model(base, 0)
    assert shifted.a == Poly(ZZ, [-1])
    assert shifted.b == base.b
    assert shifted.c == Poly(ZZ, [0, 0, 0, 1])


def test_shift_rejects_wrong_constant_term():
    with pytest.raises(ValueError):
        shift_model(metallic_model(3), 2)


def test_shift_rejects_an_unnormalized_model():
    # twice a valid model: B(0) = 2, a unit of QQ, but still not a model
    doubled = Model(a=Poly(QQ, [0, -2]), b=Poly(QQ, [2, 2]), c=Poly(QQ, [0, 0, 2]))
    with pytest.raises(ValueError, match="B\\(0\\) = 1"):
        shift_model(doubled, 0)


def test_closed_form_shifts_match_iterated_shifting():
    for n in range(1, 31):
        for ell in range(0, n + 2):
            assert shifted_metallic_model(n, ell) == shifted_model_chain(n, ell)


# the closed forms divide by (1 - q)^2 and 1 - q by running sums


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=8))
def test_running_sums_undo_a_product_with_one_minus_q(coeffs):
    p = Poly(ZZ, coeffs)
    assert hfrac._over_one_minus_q(p * Poly(ZZ, [1, -1])) == p


def test_running_sums_give_the_textbook_quotients():
    over = hfrac._over_one_minus_q
    assert over(Poly(ZZ, [1, 0, -1])) == Poly(ZZ, [1, 1])  # (1-q^2)/(1-q)
    assert over(Poly(ZZ, [1, 0, 0, 0, 0, -1])) == Poly(ZZ, [1] * 5)  # geometric sum


def test_running_sums_refuse_a_nonzero_coefficient_sum():
    with pytest.raises(ExactDivisionError, match="not divisible by 1 - q"):
        hfrac._over_one_minus_q(Poly(ZZ, [0, 0, 0, 1]))  # q^3/(1-q) leaves 1


def test_closed_form_shift_endpoints():
    for n in (2, 4, 7):
        end = shifted_metallic_model(n, n + 1)
        assert end.a == Poly(ZZ, [0] * (n - 1) + [-1])
        assert end.c == Poly.monomial(ZZ, n + 2)
        mid = shifted_metallic_model(n, n)
        assert mid.a == Poly(ZZ, [0] * n + [-1])
        assert mid.c == Poly.monomial(ZZ, n + 1)


def test_shift_zero_is_the_plain_model():
    for n in (1, 3, 6):
        assert shifted_metallic_model(n, 0) == metallic_model(n)


def test_shifted_model_roots_are_the_shifted_series():
    from qmetallic import series_of_model

    prec = 20
    for n in (2, 5):
        full = metallic_series(n, prec + n + 1)
        for ell in range(0, n + 2):
            f = series_of_model(shifted_metallic_model(n, ell), prec)
            assert f.coeffs == full.shift_down(ell).truncate(prec).coeffs


def test_shift_chain_extends_past_the_closed_forms():
    deep = shifted_model_chain(3, 7)
    deep.validate()
    assert deep.c == Poly.monomial(ZZ, 8)


# --- fractions of shifted series ------------------------------------------------------


def rendered(hf, count):
    return [tuple(map(str, hf.rendered(i))) for i in range(count)]


def test_shift_fraction_via_truncation_matches_direct_expansion():
    for n in (2, 3):
        for ell in range(1, n + 2):
            direct = hfraction_of_quadratic(shifted_metallic_model(n, ell))
            assert hfraction_of_shift(n, ell) == direct


def test_shift_zero_is_the_template_itself():
    for n in (1, 2, 5):
        assert hfraction_of_shift(n, 0) is expected_hfraction(n)


def test_shift_one_rendered_heads():
    got = rendered(hfraction_of_shift(5, 1), 3)
    assert got[0] == ("1", "1 - q")
    assert got[1] == ("q^4", "1 + q + q^2 + q^3")
    assert got[2] == ("q^5", "1 + q^2")


def test_shift_two_rendered_heads():
    got = rendered(hfraction_of_shift(5, 2), 2)
    assert got[0] == ("1", "1 - q")
    assert got[1] == ("q^3", "1 + q + q^2")


def test_shift_five_rendered_heads():
    got = rendered(hfraction_of_shift(5, 5), 4)
    assert got[0] == ("q^5", "1 + q^2 + q^3 + q^4 + 2q^5 - q^6")
    assert got[1] == ("q^11", "1 + q^2 + q^3 + q^4 + 2q^5")
    assert got[2] == ("-q^6", "1")
    assert got[3] == ("q^5", "1 + q^2 + q^3 + q^4")


def test_shift_fraction_values_are_the_shifted_series():
    prec = 24
    for n in (1, 4):
        full = metallic_series(n, prec + n + 1)
        for ell in range(1, n + 2):
            value = hfraction_of_shift(n, ell).value(prec)
            assert value.coeffs == full.shift_down(ell).truncate(prec).coeffs


def test_stream_truncation_rejects_overlong_drops():
    finite = greedy_hfraction(series([1, 1], prec=16), max_terms=8)
    with pytest.raises(ValueError):
        truncate_hfraction_stream(finite, finite.n_stored_terms() + 3)


# --- support profiles -------------------------------------------------------------------


def test_profile_structure_invariants():
    for n in (3, 5, 8):
        prof = support_profile(expected_hfraction(n), 6 * n)
        assert prof.s_seq[0] == 0 and prof.eps_seq[0] == 0
        assert all(a < b for a, b in zip(prof.s_seq, prof.s_seq[1:]))
        assert all(a <= b for a, b in zip(prof.eps_seq, prof.eps_seq[1:]))


def test_profile_k_array_for_n_5():
    prof = support_profile(expected_hfraction(5), 20)
    got = list(prof.k_seq[: len(goldens.K_ARRAY_N5_PREFIX)])
    assert got == goldens.K_ARRAY_N5_PREFIX


def test_profile_period_endpoint():
    for n in range(3, 11):
        prof = support_profile(expected_hfraction(n), 6 * n - 4)
        assert prof.s_seq[6 * n - 4] == 2 * n * (n + 1)


# --- determinant values from the fraction ----------------------------------------------


def test_determinants_from_gold_fraction():
    got = hankel_values_from_hfraction(
        fraction(goldens.FRACTION_HEAD[1], goldens.FRACTION_CYCLE[1]), 8
    )
    assert [int(x) for x in got] == [1, 1, 1, 0, -1, -1, -1, 0]


def test_determinants_from_the_26_term_fraction():
    got = hankel_values_from_hfraction(expected_hfraction(5), 12)
    assert [int(x) for x in got] == [1, 1, 0, 0, 0, 1, 1, -1, 0, 0, 1, 0]


def test_determinant_index_zero_is_one():
    assert hankel_values_from_hfraction(expected_hfraction(7), 1) == [1]


def test_determinants_of_rational_series_vanish_beyond_rank():
    geo = greedy_hfraction(series([1] * 20, prec=20), max_terms=8)
    assert geo.terminated
    vals = hankel_values_from_hfraction(geo, 10)
    assert [int(x) for x in vals[:2]] == [1, 1]  # 1/(1-q) has a rank-1 tail
    assert all(int(x) == 0 for x in vals[2:])


def test_determinants_from_bare_prefix_fail_past_certificate():
    prefix = greedy_hfraction(metallic_series(1, 12), max_terms=4)
    assert not prefix.terminated and not prefix.cycle
    with pytest.raises(ValueError):
        hankel_values_from_hfraction(prefix, 40)


def reference_hankel_values(H, count):
    """The per-term loop that `hankel_values_from_hfraction` replaced: one
    `term(p)` and one `coerce` for every term it visits."""
    dom = H.dom
    if count < 0:
        raise ValueError("count must be >= 0")
    out = [dom.coerce(0)] * count
    if count == 0:
        return out
    out[0] = dom.coerce(1)
    s, delta, running, p = 0, dom.coerce(1), dom.coerce(1), 0
    while s < count - 1:
        try:
            t = H.term(p)
        except IndexError:
            if H.terminated:
                break
            raise ValueError(
                f"fraction prefix certifies determinants only up to index {s}, "
                f"index {count - 1} requested"
            ) from None
        running = dom.reduce(running * dom.coerce(t.v))
        step = running ** (t.k + 1)
        if t.k * (t.k + 1) // 2 % 2:
            step = -step
        delta = dom.reduce(delta * step)
        s += 1 + t.k
        if s < count:
            out[s] = delta
        p += 1
    return out


def _outcome(fn, H, count):
    try:
        return fn(H, count)
    except ValueError as e:
        return str(e)


def test_determinants_from_stored_terms_match_the_per_term_loop():
    q = Poly(QQ, [0, 1])
    fractions = [
        # a QQ fraction whose v are not units, with a 5-cycle
        hfraction_of_quadratic(Model(Poly(QQ, [2, 1]), Poly(QQ, [1, 1]), q)),
        # rational series: terminated, with and without a preamble
        greedy_hfraction(series([1] * 20, prec=20), max_terms=8),
        greedy_hfraction(series([1, 2, 1, 0, 0, 0, 0, 0, 0, 0], dom=QQ), max_terms=8),
        greedy_hfraction(series([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89], dom=QQ), max_terms=8),
        # a preamble before the cycle, whose first term differs from the
        # cycle's last, so the walk must switch from one to the other
        PeriodicHFraction(
            head=expected_hfraction(2).head,
            preamble=expected_hfraction(3).cycle[:4],
            cycle=expected_hfraction(2).cycle,
        ),
        # bare prefixes: neither a cycle nor terminated
        greedy_hfraction(metallic_series(1, 12), max_terms=4),
        greedy_hfraction(metallic_series(3, 30), max_terms=9),
    ]
    for n in range(1, 5):
        for dom in (ZZ, QQ, prime_field(7), prime_field(10000000000037)):
            fractions += [
                hfraction_of_shift(n, ell).map_domain(dom) for ell in range(n + 2)
            ]
        for p in (2, 3, 5):
            for ell in range(0, n + 4):
                model = shifted_model_chain(n, ell).map_domain(prime_field(p))
                if not model.a.is_zero():
                    fractions.append(hfraction_of_quadratic(model.validate(), 4000))
    assert any(H.preamble and H.cycle for H in fractions)
    assert any(H.terminated and H.preamble for H in fractions)
    assert sum(not H.cycle and not H.terminated for H in fractions) == 2
    for H in fractions:
        span = sum(1 + t.k for t in H.stream(H.n_stored_terms()))
        for count in range(0, 2 * span + 3):
            want = _outcome(reference_hankel_values, H, count)
            assert _outcome(hankel_values_from_hfraction, H, count) == want, (H, count)
