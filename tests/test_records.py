"""The frozen records (`algebra.Record`): construction, equality, hashing,
repr and immutability, as the package's result types rely on them; and
copy, deepcopy and pickle of the coefficient tuples and the records that
hold them."""

import copy
import pickle
from fractions import Fraction

import pytest

from qmetallic import (
    AlgStepResult,
    CheckResult,
    HFTerm,
    HankelReport,
    Model,
    ModpReport,
    PeriodicHFraction,
    Poly,
    QQ,
    RegularCF,
    ScanReport,
    Series,
    SupportProfile,
    ZZ,
    expected_hfraction,
    metallic_model,
    prime_field,
)
from qmetallic.algebra import Record

RECORDS = (
    HFTerm, PeriodicHFraction, RegularCF, AlgStepResult, SupportProfile,
    Model, CheckResult, HankelReport, ModpReport, ScanReport,
)


def test_reprs_are_pinned():
    # recorded from the dataclass versions; counterexamples print them
    assert repr(HFTerm(0, Fraction(1, 2), Poly(QQ, [1, 1]))) == (
        "HFTerm(k=0, v=Fraction(1, 2), d=Poly(QQ, [Fraction(1, 1), Fraction(1, 1)]))"
    )
    failed = CheckResult("formula_vs_brute_force", False, (3, 1, -1), "n=2 ell=0 horizon=20")
    assert repr(failed) == (
        "CheckResult(name='formula_vs_brute_force', passed=False, "
        "counterexample=(3, 1, -1), detail='n=2 ell=0 horizon=20')"
    )
    finite = PeriodicHFraction(
        HFTerm(1, -1, Poly(ZZ, [1, 1, -1])), (HFTerm(0, 1, Poly(ZZ, [1])),), terminated=True
    )
    assert repr(finite) == (
        "PeriodicHFraction(head=HFTerm(k=1, v=-1, d=Poly(ZZ, [1, 1, -1])), "
        "preamble=(HFTerm(k=0, v=1, d=Poly(ZZ, [1])),), cycle=(), terminated=True)"
    )
    assert repr(expected_hfraction(1)) == (
        "PeriodicHFraction(head=HFTerm(k=0, v=1, d=Poly(ZZ, [1])), preamble=(), "
        "cycle=(HFTerm(k=0, v=1, d=Poly(ZZ, [1, 1])), "
        "HFTerm(k=1, v=-1, d=Poly(ZZ, [1, 1, -1])), "
        "HFTerm(k=0, v=-1, d=Poly(ZZ, [1, 1]))), terminated=False)"
    )


def test_construction_by_position_keyword_and_default():
    d = Poly(ZZ, [1, 1])
    assert HFTerm(0, 1, d) == HFTerm(k=0, v=1, d=d) == HFTerm(0, v=1, d=d)
    check = CheckResult("c", True)
    assert (check.counterexample, check.detail) == (None, "")
    assert CheckResult("c", True, detail="x") == CheckResult("c", True, None, "x")
    report = ScanReport(1, 3, 10, -1, 1, 1, "consistent")
    assert (report.values, report.label) == ((), "exploratory")
    with pytest.raises(TypeError):
        HFTerm(0, 1)  # d is required
    with pytest.raises(TypeError):
        HFTerm(0, 1, d, 2)
    with pytest.raises(TypeError):
        HFTerm(0, 1, d=d, w=2)
    with pytest.raises(TypeError):
        HFTerm(0, 1, d, k=0)  # k given twice


def test_equality_and_hash_follow_the_field_values():
    d = Poly(ZZ, [1, 1])
    a, b, c = HFTerm(0, 1, d), HFTerm(k=0, v=1, d=Poly(ZZ, [1, 1])), HFTerm(0, -1, d)
    assert a == b and not a != b and hash(a) == hash(b) == hash((0, 1, d))
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert expected_hfraction(3) == expected_hfraction(3).map_domain(ZZ)
    q = Poly(ZZ, [0, 1])
    assert Model(d, d, q) == Model(d, Poly(ZZ, [1, 1]), q) != Model(d, d, q.scale(2))


class Pair(Record):
    x: int
    y: int = 0


class OtherPair(Record):
    x: int
    y: int = 0


def test_equality_is_between_instances_of_one_class():
    assert Pair(1) == Pair(1, 0) and hash(Pair(1)) == hash((1, 0))
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2).__eq__(OtherPair(1, 2)) is NotImplemented
    assert Pair(1, 2).__eq__((1, 2)) is NotImplemented
    assert Pair(1, 2) != (1, 2)
    assert repr(OtherPair(1, y=2)) == "OtherPair(x=1, y=2)"


# the records that check an invariant when built need valid fields; the
# others take zeros
_ONE, _Q = Poly(ZZ, [1]), Poly(ZZ, [0, 1])
VALID = {
    HFTerm: (0, 1, _ONE),
    RegularCF: (((_ONE, 1),), False),
    Model: (_ONE, _ONE, _Q),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_every_record_refuses_assignment_and_deletion(cls):
    args = VALID.get(cls, (0,) * len(cls._fields))
    obj = cls(*args)
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, first, 5)
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, first) == args[0]


def test_terminated_fraction_cannot_carry_a_cycle():
    head = HFTerm(0, 1, Poly(ZZ, [1]))
    with pytest.raises(ValueError, match="terminated fraction cannot carry a cycle"):
        PeriodicHFraction(head, cycle=(head,), terminated=True)
    with pytest.raises(ValueError):
        PeriodicHFraction(head=head, preamble=(), cycle=(head,), terminated=True)
    assert PeriodicHFraction(head, cycle=(head,)).cycle == (head,)


# --- copy, deepcopy and pickle ------------------------------------------

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}
RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(7)": prime_field(7)}


@pytest.mark.parametrize("trip", ROUND_TRIPS, ids=list(ROUND_TRIPS))
@pytest.mark.parametrize("ring", RINGS, ids=list(RINGS))
def test_values_survive_copy_deepcopy_and_pickle(ring, trip):
    dom, again = RINGS[ring], ROUND_TRIPS[trip]
    # ZZ and QQ are singletons that rings are compared with by identity
    # (`hankel_window` tests `F.dom is not ZZ`); a prime field is equal by p
    assert again(dom) == dom and (dom.reduces or again(dom) is dom)
    values = [
        Poly(dom, [1, -2, 0, 5]),
        Poly.zero(dom),
        Series(dom, [3, 0, -1], 5),
        HFTerm(1, dom.coerce(-1), Poly(dom, [1, 1, -1])),
        metallic_model(3).map_domain(dom),
        expected_hfraction(2).map_domain(dom),
    ]
    for x in values:
        y = again(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        dom_of = y.dom if hasattr(y, "dom") else y.d.dom
        assert dom_of == dom and (dom.reduces or dom_of is dom)
        # the stored form is kept as it is, and the copy stays immutable
        if hasattr(y, "coeffs"):
            assert y.coeffs == x.coeffs
            with pytest.raises(AttributeError):
                y.coeffs = ()
