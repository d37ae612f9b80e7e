"""Continued fractions: evaluation, greedy expansion, the 1/q dictionary."""

import pytest
from hypothesis import given, settings, strategies as st

from qmetallic import (
    HFTerm,
    PeriodicHFraction,
    Poly,
    PrecisionError,
    RegularCF,
    Series,
    ZZ,
    QQ,
    angle_bracket,
    artin_expand,
    artin_to_hf,
    catalan_series,
    expected_hfraction,
    greedy_hfraction,
    hf_to_artin,
    hfraction_of_shift,
    metallic_series,
    prime_field,
    q_integer,
)

import goldens
from helpers import fraction, series, term, term_tuple


GOLD = fraction(goldens.FRACTION_HEAD[1], goldens.FRACTION_CYCLE[1])
SILVER = fraction(goldens.FRACTION_HEAD[2], goldens.FRACTION_CYCLE[2])


# --- evaluation and rendering ----------------------------------------------------


def test_eval_cf_of_gold_fraction_reproduces_taylor_series():
    # every precision, so each cut of the stream at prec // 2 + 1 terms is hit
    for prec in range(len(goldens.TAYLOR[1]) + 1):
        assert list(GOLD.value(prec).coeffs) == goldens.TAYLOR[1][:prec]


def test_eval_cf_finite_fraction():
    # 1/(1 + q) as a one-term terminated fraction
    finite = PeriodicHFraction(head=term((0, 1, [1, 1])), terminated=True)
    assert list(finite.value(6).coeffs) == [1, -1, 1, -1, 1, -1]


def test_eval_cf_one_periodic_bracket_fraction():
    # [n]_q + q^2n/(<n> + q^(2n+1)/(<n> + ...)) equals the metallic series;
    # each level gains at least q^3, so prec levels settle O(q^prec)
    prec = 24
    for n in (1, 2, 3, 5):
        if n == 1:
            bracket = Poly(ZZ, [1, 1, -1])  # the n = 1 instance of the identity
        else:
            bracket = angle_bracket(n)
        den = Series.from_poly(bracket, prec)
        tail = Series.zero(ZZ, prec)
        for _ in range(prec):
            tail = (den + tail).invert().shift_up(2 * n + 1).truncate(prec)
        value = Series.from_poly(q_integer(n), prec) + (
            (den + tail).invert().shift_up(2 * n).truncate(prec)
        )
        assert value.coeffs == metallic_series(n, prec).coeffs


def test_fraction_value_of_zero_and_negative_precision():
    assert GOLD.value(0) == Series.zero(ZZ, 0)
    with pytest.raises(PrecisionError):
        GOLD.value(-1)
    regular = hf_to_artin(GOLD, 4)
    assert regular.value(0) == Series.zero(ZZ, 0)
    with pytest.raises(PrecisionError):
        regular.value(-1)


def test_rendered_levels_pair_each_gap_with_its_predecessor():
    # head: v q^k / D; later levels -v q^(k_prev + k + 2) / D
    assert GOLD.rendered(0) == (Poly(ZZ, [1]), Poly(ZZ, [1]))
    assert GOLD.rendered(2) == (Poly.monomial(ZZ, 3, 1), Poly(ZZ, [1, 1, -1]))
    # cycle[0] follows the head in the first pass and cycle[-1] after it
    hf = fraction((2, 1, [1]), [(0, 1, [1, 1]), (1, -1, [1])])
    assert hf.rendered(1) == (Poly.monomial(ZZ, 4, -1), Poly(ZZ, [1, 1]))
    assert hf.rendered(3) == (Poly.monomial(ZZ, 3, -1), Poly(ZZ, [1, 1]))
    for j in range(2, 8):
        assert hf.rendered(j + 2) == hf.rendered(j)
    finite = greedy_hfraction(series([1, 1], prec=20), max_terms=10)
    with pytest.raises(IndexError):
        finite.rendered(finite.n_stored_terms())


# --- fraction data types ---------------------------------------------------------


def test_hfterm_validation_rules():
    with pytest.raises(ValueError, match="gap k must be >= 0"):
        HFTerm(k=-1, v=1, d=Poly.one(ZZ))
    with pytest.raises(ValueError, match="coefficient v must be nonzero"):
        HFTerm(k=0, v=0, d=Poly.one(ZZ))
    with pytest.raises(ValueError, match="constant term 1"):
        HFTerm(k=0, v=1, d=Poly(ZZ, [2]))  # D(0) != 1
    with pytest.raises(ValueError, match="exceeds k\\+1"):
        HFTerm(k=0, v=1, d=Poly(ZZ, [1, 1, 1]))  # deg > k+1
    # v is read in its ring: 3 is zero in GF(3)
    with pytest.raises(ValueError, match="coefficient v must be nonzero"):
        HFTerm(k=0, v=3, d=Poly.one(prime_field(3)))


def test_mapping_a_fraction_to_a_ring_where_v_vanishes_raises():
    hf = PeriodicHFraction(HFTerm(0, 3, Poly(ZZ, [1])))
    with pytest.raises(ValueError, match="term coefficient v must be nonzero"):
        hf.map_domain(prime_field(3))
    assert hf.map_domain(prime_field(5)).head == HFTerm(0, 3, Poly(prime_field(5), [1]))


def test_periodic_fraction_rejects_terminated_cycle():
    with pytest.raises(ValueError):
        PeriodicHFraction(head=GOLD.head, cycle=GOLD.cycle, terminated=True)


def test_fraction_term_stream_wraps_the_cycle():
    assert GOLD.term(0) == GOLD.head
    assert GOLD.term(4) == GOLD.cycle[0]
    assert [term_tuple(t) for t in GOLD.stream(4)] == (
        [goldens.FRACTION_HEAD[1]] + goldens.FRACTION_CYCLE[1]
    )


def test_canonical_shrinks_to_primitive_cycle_and_absorbs_preamble():
    doubled = PeriodicHFraction(head=GOLD.head, cycle=GOLD.cycle * 2)
    assert doubled.canonical() == GOLD
    rotated = PeriodicHFraction(
        head=GOLD.head,
        preamble=GOLD.cycle[:1],
        cycle=GOLD.cycle[1:] + GOLD.cycle[:1],
    )
    assert rotated.canonical() == GOLD


def test_fraction_value_matches_series():
    assert GOLD.value(16).coeffs == metallic_series(1, 16).coeffs
    assert SILVER.value(23).coeffs == metallic_series(2, 23).coeffs


def test_fraction_json_encoding_shape():
    payload = GOLD.to_json_dict()
    assert payload["delta"] == 2
    assert payload["head"] == {"k": 0, "a": -1, "v": 1, "D": [1]}
    assert [t["k"] for t in payload["cycle"]] == [0, 1, 0]
    assert all(t["a"] == -t["v"] for t in payload["cycle"])
    assert payload["cycle"][1]["D"] == [1, 1, -1]


# --- greedy expansion --------------------------------------------------------------


def test_greedy_expansion_recovers_gold_fraction_terms():
    got = greedy_hfraction(metallic_series(1, 40), max_terms=10)
    want = GOLD.stream(len(got.stream(10)))
    assert got.stream(10) == want
    assert not got.terminated


def test_greedy_expansion_of_catalan_is_a_j_fraction():
    got = greedy_hfraction(catalan_series(40), max_terms=12)
    terms = got.stream(12)
    assert len(terms) == 12
    assert all(t.k == 0 for t in terms)


def test_greedy_expansion_of_polynomial_terminates():
    got = greedy_hfraction(series([1, 1], prec=20), max_terms=10)
    assert got.terminated
    assert got.value(20).coeffs == series([1, 1], prec=20).coeffs


def test_greedy_terms_stable_under_extra_precision():
    lo = greedy_hfraction(metallic_series(3, 24), max_terms=30)
    hi = greedy_hfraction(metallic_series(3, 60), max_terms=30)
    lo_terms = lo.stream(30)
    assert hi.stream(30)[: len(lo_terms)] == lo_terms


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=0, max_size=4),
)
def test_greedy_expansion_round_trips_rational_series(num, den_tail):
    f = Series.from_poly(Poly(QQ, num), 30) * Series.from_poly(
        Poly(QQ, [1] + den_tail), 30
    ).invert()
    if f.valuation() is None:
        return
    hf = greedy_hfraction(f, max_terms=40)
    assert hf.value(20).coeffs == f.truncate(20).coeffs


# --- the dictionary with fractions in 1/q ---------------------------------------------


def test_artin_expand_geometric_series():
    f = Series(ZZ, [0] + [1] * 11, 12)  # q + q^2 + ...
    cf = artin_expand(f, max_quotients=5)
    assert len(cf.quotients) == 1 and cf.complete
    # single quotient 1/q - 1 = (1 - q) q^-1
    assert cf.quotients == ((Poly(ZZ, [1, -1]), 1),)


def test_artin_expand_single_monomial():
    cf = artin_expand(series([0, 1], prec=8), max_quotients=4)
    assert len(cf.quotients) == 1 and cf.complete
    # single quotient 1/q
    assert cf.quotients == ((Poly(ZZ, [1]), 1),)


def test_artin_expand_needs_vanishing_constant_term():
    with pytest.raises(ValueError):
        artin_expand(series([1, 1], prec=6), max_quotients=3)


def test_artin_convergents_improve_strictly():
    f = metallic_series(1, 40).map_domain(QQ).shift_up(1).truncate(40)
    cf = artin_expand(f, max_quotients=8)
    gaps = []
    for depth in range(1, len(cf.quotients) + 1):
        approx = RegularCF(cf.quotients[:depth]).value(40)
        gaps.append((f - approx).valuation() or 40)
    assert gaps == sorted(gaps) and len(set(gaps)) == len(gaps)


def test_dictionary_round_trip_and_degree_link():
    hf = SILVER
    cf = hf_to_artin(hf, 30)
    # k_j = m_(j+1) - 1 term-for-term
    terms = hf.stream(30)
    for t, (p, m) in zip(terms, cf.quotients):
        assert m == t.k + 1 and p.constant()
    back = artin_to_hf(cf)
    assert back.stream(30) == terms


def test_dictionary_preserves_values():
    # the regular fraction of q*F evaluates to q times the Hankel value
    fractions = [expected_hfraction(n) for n in range(1, 9)]
    fractions += [
        hfraction_of_shift(n, ell) for n in range(1, 6) for ell in range(1, n + 2)
    ]
    for hf in fractions:
        for prec in (1, 2, 10, 30):
            regular = hf_to_artin(hf, prec)
            assert regular.value(prec) == hf.value(prec - 1).shift_up(1)


def test_dictionary_against_direct_expansion_for_catalan():
    f = catalan_series(40).map_domain(QQ)
    via_artin = artin_to_hf(artin_expand(f.shift_up(1).truncate(40), 12))
    direct = greedy_hfraction(f, max_terms=12)
    n = min(via_artin.n_stored_terms(), direct.n_stored_terms())
    assert via_artin.stream(n) == direct.stream(n)


def test_artin_to_hf_rejects_constant_quotients():
    with pytest.raises(ValueError):
        RegularCF(((Poly(QQ, [1]), 0),))


def test_regular_cf_validate_checks_each_pair():
    good = (Poly(QQ, [1, 2]), 1)  # 1/q + 2
    assert RegularCF((good,)).quotients == (good,)
    for bad, error in (
        ((Poly.zero(QQ), 1), "quotient 2 needs P\\(0\\) != 0"),
        ((Poly(QQ, [0, 1]), 2), "quotient 2 needs P\\(0\\) != 0"),
        ((Poly(QQ, [1, 0, 1]), 1), "quotient 2 has positive powers of q"),
        ((Poly(QQ, [1]), 0), "quotient 2 is constant in 1/q"),
    ):
        with pytest.raises(ValueError, match=error):
            RegularCF((good, bad))
    with pytest.raises(ValueError, match="needs >= 1 quotient"):
        RegularCF(())


def test_dictionary_quotients_are_plain_pairs():
    cfs = [artin_expand(metallic_series(n, 30).shift_up(1), 10) for n in (1, 2, 3)]
    cfs += [hf_to_artin(expected_hfraction(n), 12) for n in (1, 2, 3)]
    cfs.append(hf_to_artin(greedy_hfraction(series([1, 1], prec=20), 10), 10))
    for cf in cfs:
        for p, m in cf.quotients:
            assert type(p) is Poly and type(m) is int
            assert p.constant() and 1 <= m and p.degree() <= m
