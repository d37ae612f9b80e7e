"""Deformed integers and rationals, metallic models, baseline series."""

import random
from fractions import Fraction

import pytest

from qmetallic import (
    Model,
    Poly,
    Series,
    ZZ,
    QQ,
    angle_bracket,
    catalan_series,
    metallic_model,
    metallic_series,
    motzkin_series,
    q_integer,
    q_rational,
    q_rational_pair,
    prime_field,
    series_of_model,
    shifted_metallic_model,
)

import goldens


def P(coeffs, dom=ZZ):
    return Poly(dom, coeffs)


# --- deformed integers -------------------------------------------------------


def test_q_integer_small_values():
    assert q_integer(3) == P([1, 1, 1])
    assert q_integer(0).is_zero()
    assert q_integer(1) == P([1])


def test_q_integer_recurrence():
    q = Poly.q(ZZ)
    one = Poly.one(ZZ)
    for n in range(0, 21):
        assert q_integer(n + 1) == q * q_integer(n) + one


def test_q_integer_rejects_negative():
    # only nonnegative digits occur in the continued fraction of a q-real
    for n in (-1, -2, -7):
        with pytest.raises(ValueError, match="n >= 0"):
            q_integer(n)


# --- the auxiliary bracket polynomial -----------------------------------------


def test_angle_bracket_small_cases():
    assert angle_bracket(2) == P([1, 0, 2, -1])
    assert angle_bracket(3) == P([1, 0, 1, 2, -1])
    assert angle_bracket(5) == P([1, 0, 1, 1, 1, 2, -1])


def test_angle_bracket_identity_against_its_definition():
    q = Poly.q(ZZ)
    one = Poly.one(ZZ)
    for n in range(2, 21):
        expected = q * q_integer(n) + (one + Poly.monomial(ZZ, n)) * (one - q)
        assert angle_bracket(n) == expected


def test_angle_bracket_rejects_small_n():
    with pytest.raises(ValueError):
        angle_bracket(1)


# --- metallic models ------------------------------------------------------------


def test_model_coefficients_for_n_1():
    m = metallic_model(1)
    assert m.a == P([-1])
    assert m.b == P([1, -1, -1])
    assert m.c == P([0, 1])


def test_mapping_a_model_to_a_ring_where_a_vanishes_raises():
    model = Model(Poly(ZZ, [0, 3]), Poly(ZZ, [1, 1]), Poly(ZZ, [0, 1]))
    with pytest.raises(ValueError, match="model needs A != 0"):
        model.map_domain(prime_field(3))
    assert model.map_domain(prime_field(5)).a == Poly(prime_field(5), [0, 3])


def test_model_b_matches_factored_cross_identity():
    # B * (q-1) == -((q^2-q+1)(q^n+1) - 2q) for every n
    q = Poly.q(ZZ)
    one = Poly.one(ZZ)
    factor = q * q - q + one
    for n in range(1, 13):
        lhs = metallic_model(n).b * (q - one)
        rhs = -(factor * (Poly.monomial(ZZ, n) + one) - q.scale(2))
        assert lhs == rhs


def test_model_root_residual_vanishes():
    for n in range(1, 13):
        model = metallic_model(n)
        f = series_of_model(model, 24)
        assert model.residual(f).valuation() is None


def test_model_residual_starts_where_the_series_leaves_the_root():
    # B(0) = 1 and C(0) = 0, so changing f_j by e changes the residual by
    # e q^j + O(q^(j+1))
    model = metallic_model(3)
    f = series_of_model(model, 16)
    for j in (0, 5, 15):
        coeffs = list(f.coeffs)
        coeffs[j] += 2
        res = model.residual(Series(ZZ, coeffs))
        assert res.valuation() == j and res.coeffs[j] == 2


def test_model_residual_needs_a_series_over_the_model_ring():
    with pytest.raises(TypeError, match="domain mismatch"):
        metallic_model(2).residual(Series(QQ, [1, 1, 0], 3))


def test_series_shape_ones_zeros_one():
    for n in range(1, 13):
        f = metallic_series(n, 2 * n + 1)
        assert list(f.coeffs[:n]) == [1] * n
        assert list(f.coeffs[n:2 * n]) == [0] * n
        assert f.coeffs[2 * n] == 1


def test_series_taylor_prefixes():
    assert list(metallic_series(1, 16).coeffs) == goldens.TAYLOR[1]
    assert list(metallic_series(5, 20).coeffs) == goldens.TAYLOR[5][:20]
    assert list(metallic_series(10, 24).coeffs) == goldens.TAYLOR[10][:24]


def reference_series_of_model(model, prec):
    """The dense recursion: every index of B and C, and the full sum of
    F^2 coefficients."""
    dom = model.dom
    if prec <= 0:
        return Series.zero(dom, max(prec, 0))
    zero = dom.coerce(0)
    a, b, c = (list(p.coeffs) + [zero] * prec for p in (model.a, model.b, model.c))
    b0_inv = dom.inv(b[0])
    f, g = [], []
    for m in range(prec):
        acc = a[m]
        for i in range(1, m + 1):
            acc += b[i] * f[m - i] + c[i] * g[m - i]
        f.append(dom.reduce(-acc * b0_inv))
        g.append(dom.reduce(sum(f[i] * f[m - i] for i in range(m + 1))))
    return Series(dom, f, prec)


def random_model(rng, dom):
    """A valid model whose C has several nonzero terms; over QQ some
    coefficients are proper fractions."""
    def coeff():
        c = rng.randint(-3, 3)
        if dom is QQ and rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 4))
        return dom.coerce(c)

    a = [coeff() for _ in range(rng.randint(1, 5))]
    a[0] = dom.coerce(rng.choice([-2, -1, 1, 3]))  # A != 0
    b = [dom.coerce(1)] + [coeff() for _ in range(rng.randint(0, 6))]
    c = [dom.coerce(0)] + [coeff() for _ in range(rng.randint(2, 7))]
    for i in rng.sample(range(1, len(c)), 2):
        c[i] = dom.coerce(rng.choice([-2, -1, 1, 2]))
    return Model(Poly(dom, a), Poly(dom, b), Poly(dom, c))


def test_sparse_recursion_matches_the_dense_one():
    domains = (ZZ, QQ, prime_field(7), prime_field(10000000000037))
    for dom in domains:
        # over QQ, n = 4 (prec 160) alone would take about 1.5 s
        for n in range(1, 4 if dom is QQ else 5):
            models = [metallic_model(n).map_domain(dom)]
            models += [
                shifted_metallic_model(n, ell).map_domain(dom) for ell in range(n + 2)
            ]
            for model in models:
                for prec in (0, 1, 2, 8 * n * (n + 1)):
                    assert series_of_model(model, prec) == reference_series_of_model(
                        model, prec
                    ), (dom, n, prec, model)
    rng = random.Random(20261018)
    for trial in range(60):
        dom = domains[trial % len(domains)]
        model = random_model(rng, dom)
        for prec in (0, 1, 2, rng.randint(3, 40)):
            assert series_of_model(model, prec) == reference_series_of_model(model, prec)


def test_metallic_model_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        metallic_model(0)


# --- deformed rationals -----------------------------------------------------------


def test_q_rational_of_integers_agrees_with_q_integer():
    for p in range(0, 11):
        f = q_rational(Fraction(p), 12)
        ones = min(p, 12)
        assert list(f.coeffs) == [1] * ones + [0] * (12 - ones)


def test_q_rational_one_half():
    # q/(1+q) = q - q^2 + q^3 - ...
    f = q_rational(Fraction(1, 2), 8)
    assert list(f.coeffs) == [0, 1, -1, 1, -1, 1, -1, 1]


def test_q_rational_times_its_denominator_is_its_numerator():
    for x in map(Fraction, ("1/2", "5/3", "7/5", "13/8", "3")):
        p, q = q_rational_pair(x)
        assert q.constant() == 1
        f = q_rational(x, 10)
        assert f * Series.from_poly(q, 10) == Series.from_poly(p, 10)


def test_q_rational_zero():
    assert q_rational(Fraction(0), 6).valuation() is None


def test_q_rational_rejects_negatives():
    with pytest.raises(ValueError):
        q_rational(Fraction(-1, 2), 6)


# --- baseline series ----------------------------------------------------------------


def test_catalan_prefix():
    assert list(catalan_series(7).coeffs) == goldens.CATALAN_PREFIX


def test_motzkin_prefix():
    assert list(motzkin_series(7).coeffs) == goldens.MOTZKIN_PREFIX
