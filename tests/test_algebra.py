"""Exact-arithmetic kernel: polynomials, series, determinants."""

import ast
import itertools
import operator
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qmetallic
from qmetallic import (
    ExactDivisionError,
    Poly,
    PrecisionError,
    Series,
    ZZ,
    QQ,
    det_fraction_free,
    leading_minors,
    metallic_model,
    metallic_series,
    prime_field,
)


def P(coeffs, dom=ZZ):
    return Poly(dom, coeffs)


# --- polynomial basics ------------------------------------------------------


def test_polynomial_trailing_zeros_are_stripped():
    assert P([1, 2, 0, 0]).coeffs == (1, 2)
    assert P([0, 0]).is_zero()
    assert P([]).degree() == P([0]).degree()  # the -1 sentinel


def test_zero_polynomial_degree_sentinel_orders_below_everything():
    sentinel = P([]).degree()
    assert sentinel < 0 and sentinel < P([1]).degree()


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6)


# --- series -----------------------------------------------------------------


def test_series_length_always_matches_precision():
    f = Series(ZZ, [1, 2], 5)
    assert f.prec == 5 and len(f.coeffs) == 5
    # a tuple is padded or cut to prec like a list
    assert Series(ZZ, (1, 2), 5) == f and Series(ZZ, (1, 2, 3), 2).coeffs == (1, 2)
    assert (f * f).prec == 5
    assert (f + Series(ZZ, [1], 3)).prec == 3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=0, max_size=8))
def test_series_inverse_multiplies_back_to_one(tail):
    f = Series(QQ, [1] + tail)
    product = f * f.invert()
    assert product.coeffs[0] == 1
    assert all(c == 0 for c in product.coeffs[1:])


def test_series_invert_rejects_non_unit_constant():
    with pytest.raises(ExactDivisionError):
        Series(ZZ, [2, 1], 4).invert()
    with pytest.raises(ExactDivisionError):
        Series(ZZ, [0, 1], 4).invert()


def test_coefficient_past_precision_raises_instead_of_truncating():
    f = Series(ZZ, [1, 2, 3], 3)
    with pytest.raises(PrecisionError):
        f.truncate(4)


def test_zero_detection_is_relative_to_precision():
    f = Series(ZZ, [0, 0], 2)
    assert f.valuation() is None


# --- the coefficient core shared by Poly and Series -------------------------


@pytest.mark.parametrize(
    "value, mapped",
    [(Poly(ZZ, [1, -2, 7]), (1, 5)), (Series(ZZ, [1, -2, 7], 4), (1, 5, 0, 0))],
    ids=["Poly", "Series"],
)
def test_map_domain_coerces_each_coefficient_once(value, mapped):
    gf7, seen = prime_field(7), []
    coerce = gf7.coerce

    def counted(c):
        seen.append(c)
        return coerce(c)

    gf7.coerce = counted
    assert value.map_domain(gf7).coeffs == mapped
    assert seen == list(value.coeffs)


def test_poly_and_series_never_mix():
    p, s = Poly(ZZ, [1, -2]), Series(ZZ, [1, -2])
    assert p.coeffs == s.coeffs and p != s and s != p
    for x, y in ((p, s), (s, p)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, y)


# --- exactness of the coefficient domains ------------------------------------


def test_domains_refuse_floating_point_coefficients():
    for dom in (ZZ, QQ, prime_field(7)):
        with pytest.raises(TypeError):
            dom.coerce(0.5)
        with pytest.raises(TypeError):
            Poly(dom, [1.0])


def test_package_source_holds_no_float():
    # no float literal and no float, inf or nan name, not even as a sentinel
    banned = {"float", "inf", "nan"}
    offenders = []
    for path in sorted(pathlib.Path(qmetallic.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found = repr(node.value)
            elif isinstance(node, ast.Name) and node.id in banned:
                found = node.id
            elif isinstance(node, ast.Attribute) and node.attr in banned:
                found = node.attr
            elif isinstance(node, ast.alias) and node.name in banned:
                found = node.name
            else:
                continue
            offenders.append((path.name, getattr(node, "lineno", None), found))
    assert offenders == []


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        prime_field(6)
    f5 = prime_field(5)
    assert f5.reduce(f5.coerce(3) * f5.coerce(4)) == f5.coerce(2)
    assert f5.inv(f5.coerce(2)) == f5.coerce(3)


def test_prime_fields_built_apart_are_one_value_and_one_key():
    # prime_field keeps no cache: GF(7) built twice is two equal objects
    # with one hash, so a model built over either is one dict key
    a, b = prime_field(7), prime_field(7)
    assert a is not b and a == b and hash(a) == hash(b)
    ma, mb = metallic_model(3).map_domain(a), metallic_model(3).map_domain(b)
    assert ma == mb and hash(ma) == hash(mb) and len({ma, mb}) == 1


# --- the ring interface: `inv` is the one unit test ---------------------------


NON_UNITS = [(ZZ, 0), (ZZ, 2), (ZZ, -3), (QQ, 0), (prime_field(7), 0),
             (prime_field(7), 7), (prime_field(7), 14)]


@pytest.mark.parametrize("dom, a", NON_UNITS, ids=[f"{d}-{a}" for d, a in NON_UNITS])
def test_inv_refuses_every_non_unit(dom, a):
    with pytest.raises(ExactDivisionError):
        dom.inv(a)


def test_inv_of_a_unit_is_its_inverse():
    assert ZZ.inv(1) == 1 and ZZ.inv(-1) == -1
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(QQ.inv(1)) is Fraction and QQ.inv(1) == 1
    f7 = prime_field(7)
    assert [f7.inv(a) for a in range(1, 7)] == [1, 4, 5, 2, 3, 6]
    assert f7.inv(10) == 5


def test_rational_results_hold_only_ints_and_fractions():
    # zero and one are the ints 0 and 1 over QQ too; no operation may
    # turn them, or anything else, into a float
    from qmetallic import greedy_hfraction, hfraction_of_quadratic, shifted_model_chain

    def _exact(values):
        return {type(c) for c in values} <= {int, Fraction}

    def term_values(H):
        return [c for t in (H.head, *H.preamble, *H.cycle) for c in (t.v, *t.d.coeffs)]

    over_qq = hfraction_of_quadratic(shifted_model_chain(3, 5).map_domain(QQ))
    assert over_qq.dom == QQ and over_qq.cycle
    assert _exact(term_values(over_qq))
    f = Series(QQ, [1, 0, Fraction(1, 2), 0, 3, Fraction(-1, 3), 0, 2], 8)
    assert _exact(term_values(greedy_hfraction(f.shift_up(1), 4)))
    assert _exact(f.invert().coeffs)
    assert _exact(Series(QQ, [1], 6).invert().coeffs)
    for rows in ([], [[0, 1], [1, 0]], [[1, 2], [2, 4]], [[Fraction(1, 2), 1], [3, 0]]):
        assert _exact([det_fraction_free(rows, QQ)])


# --- prime-field arithmetic against ZZ/QQ ---------------------------------------

PRIMES = (2, 7, 101, 10000000000037)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), small_polys, small_polys)
def test_prime_field_ring_operations_match_the_integers_reduced(p, xs, ys):
    f = prime_field(p)
    a, b = P(xs), P(ys)
    af, bf = a.map_domain(f), b.map_domain(f)
    assert af + bf == (a + b).map_domain(f)
    assert af - bf == (a - b).map_domain(f)
    assert af * bf == (a * b).map_domain(f)
    assert -af == (-a).map_domain(f)
    s, t = Series(ZZ, xs, 6), Series(ZZ, ys, 5)
    sf, tf = s.map_domain(f), t.map_domain(f)
    assert sf + tf == (s + t).map_domain(f)
    assert sf - tf == (s - t).map_domain(f)
    assert sf * tf == (s * t).map_domain(f)
    assert -sf == (-s).map_domain(f)
    assert all(0 <= c < p for c in (af * bf).coeffs + (-sf).coeffs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), small_polys)
def test_prime_field_division_matches_the_rationals_reduced(p, xs):
    f = prime_field(p)
    if xs and xs[0] % p:
        s = Series(QQ, xs, 7)
        assert s.map_domain(f).invert() == s.invert().map_domain(f)


# --- determinants -------------------------------------------------------------


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        term = rows[0][c] * cofactor_det(minor)
        total += term if c % 2 == 0 else -term
    return total


def test_determinant_of_empty_matrix_is_one():
    assert det_fraction_free([], ZZ) == 1


def test_determinant_known_small_cases():
    assert det_fraction_free([[1, 1], [1, 2]], ZZ) == 1
    assert det_fraction_free([[1, 1, 2], [1, 2, 4], [2, 4, 9]], ZZ) == 1


def test_determinant_rejects_non_square_input():
    with pytest.raises(ValueError):
        det_fraction_free([[1, 2, 3], [4, 5, 6]], ZZ)


def test_determinant_matches_cofactor_expansion_exhaustively_dim_2():
    span = range(-3, 4)
    for a, b, c, d in itertools.product(span, repeat=4):
        rows = [[a, b], [c, d]]
        assert det_fraction_free(rows, ZZ) == a * d - b * c


def test_determinant_matches_cofactor_expansion_random_dims_3_and_4():
    rng = random.Random(20240817)
    for _ in range(150):
        n = rng.choice((3, 4))
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_fraction_free(rows, ZZ) == cofactor_det(rows)


@st.composite
def integer_matrices(draw):
    """Square integer matrices of sizes 0-9 whose leading minors vanish
    often: sparse, Hankel-structured, or with one leading block forced
    singular (its last row a multiple of its first). The "triangular"
    kind, L*U with L unit lower triangular and U upper triangular, has
    pivots +-1 (both signs of piv*prev), a first non-unit pivot after
    unit ones, non-unit divisors after it, and zero multipliers where L
    has zeros."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(("sparse", "hankel", "zero_minor", "triangular")))
    if kind == "hankel":
        f = draw(st.lists(st.sampled_from((-1, 0, 0, 1, 2)), min_size=2 * n, max_size=2 * n))
        return [[f[a + b] for b in range(n)] for a in range(n)]
    if kind == "triangular":
        low = st.sampled_from((0, 0, 1, -1, 2))
        lower = [draw(st.lists(low, min_size=a, max_size=a)) + [1] + [0] * (n - a - 1)
                 for a in range(n)]
        diag = draw(st.lists(st.sampled_from((1, -1, 1, -1, 2, -2, 3)), min_size=n, max_size=n))
        upper = [[0] * a + [diag[a]] + draw(st.lists(st.integers(-3, 3), min_size=n - a - 1,
                                                     max_size=n - a - 1))
                 for a in range(n)]
        return [[sum(lower[a][k] * upper[k][b] for k in range(n)) for b in range(n)]
                for a in range(n)]
    entries = st.sampled_from((0, 0, 0, 1, -1, 2)) if kind == "sparse" else st.integers(-3, 3)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "zero_minor" and n:
        k = draw(st.integers(1, n))
        s = draw(st.integers(-2, 2))
        rows[k - 1][:k] = [s * x for x in rows[0][:k]] if k > 1 else [0]
    return rows


# One matrix per elimination case, each named by the divisor prev and the
# pivot piv of a step, with s = piv*prev and f the entry of a later row in
# the pivot column:
# - s = 1 at every step, and every f is nonzero;
# - the second pivot is -1 after the divisor 1: s = -1;
# - the second pivot is 2 after the divisor 1 (a non-unit pivot);
# - the second step divides by the first pivot, 2 (a non-unit divisor);
# - s = 1 at every step, and every f is 0: no row changes;
# - s = -1 at the first step with f = 0 in row 1, which is negated; then
#   prev = -1;
# - d_2 = 0: the second row is twice the first on the leading block.
@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example([[1, 1, 1], [1, 2, 3], [1, 3, 6]])
@example([[1, 2, 1], [2, 3, 4], [1, 4, 2]])
@example([[1, 1, 0], [1, 3, 1], [0, 1, 1]])
@example([[2, 1, 1], [2, 3, 2], [4, 4, 7]])
@example([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
@example([[-1, 2, 3], [0, 1, 4], [1, 2, 2]])
@example([[1, 2, 5], [2, 4, 1], [3, 1, 1]])
def test_leading_minors_match_row_pivoting_bareiss_at_every_size(rows):
    minors = leading_minors(rows)
    assert len(minors) == len(rows) + 1
    for k, minor in enumerate(minors):
        prefix = [r[:k] for r in rows[:k]]
        assert minor == det_fraction_free(prefix, QQ)
        if k <= 5:
            assert minor == cofactor_det(prefix)


def reference_leading_minors(rows) -> list:
    """The right-looking elimination of leading_minors with every update
    divided exactly by the previous pivot: the reference for both of its
    phases, the left-looking unit one and the Bareiss one."""
    n = len(rows)
    m = [list(row) for row in rows]
    live = list(range(n))
    minors = [1]
    prev = 1
    inversions = 0
    for i in range(n):
        row = m[i]
        pos = next((p for p, x in enumerate(row) if x), None)
        if pos is None:
            break
        piv = row[pos]
        del live[pos], row[pos]
        inversions += pos
        for r in range(i + 1, n):
            mr = m[r]
            f = mr.pop(pos)
            m[r] = [(x * piv - f * y) // prev for x, y in zip(mr, row)]
        prev = piv
        if live and live[0] <= i:
            minors.append(0)
        else:
            minors.append(-piv if inversions & 1 else piv)
    return minors + [0] * (n + 1 - len(minors))


def test_leading_minors_match_the_dividing_kernel_on_every_oracle_window():
    # the windows that hankel, scan and thm51 hand to the oracle, and the
    # order-167 ones of hankel --n 6 (all pivots units) and scan --n 6
    # (the first non-unit pivot at row 5)
    windows = [(n, ell) for n in range(1, 6) for ell in range(n + 4)] + [(6, 0), (6, 8)]
    for n, ell in windows:
        count = 4 * n * (n + 1)
        f = metallic_series(n, ell + 2 * count).coeffs
        rows = [f[ell + a:ell + a + count - 1] for a in range(count - 1)]
        assert leading_minors(rows) == reference_leading_minors(rows), (n, ell)


# Diagonal blocks of the middle factor M of sandwich(). Each pivots on
# its own columns, with units in the unit blocks; the permutation blocks
# make the pivots skip columns, so minors vanish until the skipped column
# is pivoted.
UNIT_BLOCKS = ([[1]], [[-1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]],
               [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, -1], [1, 0, 0]])
# Blocks whose first pivot is not a unit. The 2 x 2 ones of determinant
# +-1 bring the Bareiss pivot back to a unit; the last has no second
# pivot, since its second row is twice its first.
NONUNIT_BLOCKS = ([[2]], [[-3]], [[2, 1], [1, 1]], [[-2, 1], [3, -2]], [[2, 1], [1, 0]],
                  [[2, 1], [4, 2]])
# a row of M without a pivot: that row of L*M*U depends on those above it
DEPENDENT_BLOCK = [[0]]


def sandwich(draw, blocks):
    """L*M*U for drawn unit lower and unit upper triangular integer L and
    U and the block-diagonal M of blocks. Its leading minors are those of
    M, and eliminating its rows in order meets the pivots of M's blocks
    in turn: L is undone by the row operations, and U keeps each row's
    leftmost nonzero column and value."""
    n = sum(map(len, blocks))
    m = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for a, row in enumerate(block):
            m[at + a][at:at + len(row)] = row
        at += len(block)
    rng = draw(st.randoms(use_true_random=False))
    entries = (0, 0, 1, -1, 2)
    lower = [[rng.choice(entries) for _ in range(a)] + [1] + [0] * (n - a - 1)
             for a in range(n)]
    upper = [[0] * a + [1] + [rng.choice(entries) for _ in range(n - a - 1)]
             for a in range(n)]
    mu = [[sum(x * upper[k][b] for k, x in enumerate(row)) for b in range(n)] for row in m]
    return [[sum(x * mu[k][b] for k, x in enumerate(row)) for b in range(n)] for row in lower]


@st.composite
def unit_pivot_matrices(draw):
    """Matrices whose pivots are all +-1, the left-looking phase alone,
    with skipped columns and rows that depend on the rows above."""
    blocks = st.sampled_from(UNIT_BLOCKS + (DEPENDENT_BLOCK,))
    return sandwich(draw, draw(st.lists(blocks, max_size=5)))


@st.composite
def handoff_matrices(draw):
    """Matrices whose first non-unit pivot comes after a drawn number of
    unit ones, where the Bareiss phase takes over, followed by pivots of
    every kind."""
    head = draw(st.lists(st.sampled_from(UNIT_BLOCKS), max_size=4))
    first = draw(st.sampled_from(NONUNIT_BLOCKS))
    any_block = st.sampled_from(UNIT_BLOCKS + NONUNIT_BLOCKS + (DEPENDENT_BLOCK,))
    return sandwich(draw, head + [first] + draw(st.lists(any_block, max_size=3)))


def assert_minors_match_the_references(rows):
    minors = leading_minors(rows)
    assert minors == reference_leading_minors(rows)
    for k, minor in enumerate(minors):
        assert minor == det_fraction_free([r[:k] for r in rows[:k]], QQ)


@settings(max_examples=200, deadline=None)
@given(unit_pivot_matrices())
def test_left_looking_phase_matches_the_references(rows):
    assert_minors_match_the_references(rows)


@settings(max_examples=200, deadline=None)
@given(handoff_matrices())
def test_handoff_to_bareiss_at_every_row_matches_the_references(rows):
    assert_minors_match_the_references(rows)


def test_leading_minors_rejects_non_square_input():
    with pytest.raises(ValueError):
        leading_minors([[1, 2], [3]])


def test_leading_minors_refuses_entries_that_are_not_int():
    # the update divides with //: this matrix gave the minors
    # [1, 1/2, -1], where its determinant is -3/4
    half = Fraction(1, 2)
    with pytest.raises(TypeError, match="Fraction"):
        leading_minors([[half, 1], [1, half]])
    with pytest.raises(TypeError, match="bool"):
        leading_minors([[1, 0], [0, True]])
    # det_fraction_free coerces to int before it calls the kernel
    assert det_fraction_free([[Fraction(2), 1], [1, 1]], ZZ) == 1


def test_determinant_over_rationals_and_prime_fields():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_fraction_free(rows, QQ) == Fraction(1, 14) - Fraction(1, 15)
    f7 = prime_field(7)
    rows = [[f7.coerce(3), f7.coerce(5)], [f7.coerce(2), f7.coerce(6)]]
    assert det_fraction_free(rows, f7) == f7.coerce(1)
    # a zero pivot makes the row-pivoting kernel swap rows, which flips
    # the sign: at the first step, and at the second of the 3 x 3 one
    assert det_fraction_free([[0, 1], [1, 0]], QQ) == -1
    assert det_fraction_free([[0, 1], [1, 0]], f7) == 6
    rows = [[1, 2, 3], [2, 4, 5], [1, 0, 1]]
    assert det_fraction_free(rows, QQ) == -2
    assert det_fraction_free(rows, f7) == 5


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_prime_field_determinant_is_the_integer_one_reduced(rows):
    want = det_fraction_free(rows, ZZ)
    for p in (2, 7, 10000000000037):
        assert det_fraction_free(rows, prime_field(p)) == want % p


def test_polynomial_rendering_ascending_with_carets():
    assert str(P([1, -2, 0, -1])) == "1 - 2q - q^3"
    assert str(P([0, 1])) == "q"
    assert str(P([])) == "0"
