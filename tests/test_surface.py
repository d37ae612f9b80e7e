"""The public surface: what `qmetallic` exports, and what it no longer has."""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import qmetallic
from qmetallic import (
    QQ, ZZ, HFTerm, HankelReport, Model, Poly, RegularCF, Series, SupportProfile,
    algebra, cli, hfrac, oracle, prime_field, qseries, verify,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmetallic"

# what `from qmetallic import *` binds: every public name of the package,
# the eight submodules included
PUBLIC_NAMES = [
    "AlgStepResult", "CheckResult", "ExactDivisionError", "HFTerm",
    "HankelReport", "Model", "ModpReport", "PeriodicHFraction", "Poly",
    "PrecisionError", "QQ", "RegularCF", "SUITES", "ScanReport", "Series",
    "SupportProfile", "ZZ", "alg_step", "algebra", "angle_bracket",
    "artin_expand", "artin_to_hf", "baseline_catalan_motzkin",
    "catalan_series", "cfrac", "check_contiguity", "check_delta_symmetry",
    "check_explicit_reconstruction", "check_hfraction_shape",
    "check_profile_identities", "check_stream_symmetries",
    "check_support_membership", "check_value_set_and_periodicity",
    "conjecture_scan", "det_fraction_free", "expected_hfraction", "explicit",
    "explicit_delta", "explicit_delta_sequence", "explicit_support_index",
    "gale_robinson_check", "greedy_hfraction", "hankel_bruteforce_values",
    "hankel_formula_values", "hankel_sequence", "hankel_values_from_hfraction",
    "hankel_window", "hf_to_artin", "hfrac",
    "hfraction_of_quadratic", "hfraction_of_shift", "is_prime",
    "leading_minors", "metallic_model", "metallic_series", "metallic_step_cap",
    "modp_analysis", "motzkin_series", "oracle", "prime_field", "q_integer",
    "q_rational", "q_rational_pair", "qseries", "reports", "run_suite",
    "series_of_model",
    "shift_model", "shifted_metallic_model", "shifted_model_chain",
    "support_membership", "support_profile", "support_sets", "verify",
]

# names no CLI path, check or acceptance test needed
DELETED = [
    (algebra, "LaurentPair"),
    (algebra, "series_lowest_term"),
    (qseries, "q_integer_inv"),
    (hfrac, "hankel_from_hfraction"),
    (hfrac, "_metallic_template"),
    (hfrac, "truncate_hfraction_stream"),
    (hfrac, "_expand"),
    (oracle, "hankel_bruteforce"),
    (cli, "_default_precision"),
]


def test_oracle_names_are_the_same_objects_everywhere():
    # the oracle's own module, the checkers' module and the package all
    # hand out one function each, so a patch of one reaches every caller
    for name in ("hankel_bruteforce_values", "hankel_window"):
        assert getattr(qmetallic, name) is getattr(verify, name) is getattr(oracle, name)


@pytest.mark.parametrize("module, name", DELETED, ids=[n for _, n in DELETED])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(qmetallic, name)


def test_deleted_members_are_gone():
    assert not hasattr(Poly, "__pow__")
    assert not hasattr(RegularCF, "depth")
    assert not hasattr(Series, "is_zero_to_precision")
    # the closed forms divide by powers of 1 - q with running sums
    assert not {"divrem", "exact_div"} & set(vars(Poly))
    assert not {"div", "mul_poly", "coefficient"} & set(vars(Series))
    # one ring interface: zero and one are the ints 0 and 1, and `inv` is
    # the one unit test; `Poly.constant` reads the constant term itself
    assert not hasattr(Poly, "coefficient")
    for dom in (ZZ, QQ, prime_field(7)):
        for member in ("exact_div", "from_int", "is_unit"):
            assert not hasattr(dom, member), (dom, member)
    assert not hasattr(HankelReport, "csv_rows")
    assert not hasattr(SupportProfile, "to_json_dict")
    assert SupportProfile._fields == ("k_seq", "s_seq", "eps_seq")
    # the base class keeps only what every ring shares
    stubs = ("from_int", "coerce", "is_unit", "inv", "exact_div")
    assert not set(stubs) & set(vars(algebra.Domain))
    # a record checks its invariant when it is built, so no caller has to
    for record in (Model, HFTerm, RegularCF):
        assert not hasattr(record, "validate"), record
    # one coefficient core: public construction always coerces, and the
    # members Poly and Series share are defined once, on their base
    shared = {"__setattr__", "__eq__", "__hash__", "_same_dom", "_reduced",
              "__neg__", "scale", "map_domain", "valuation"}
    for cls in (Poly, Series):
        assert "normalized" not in inspect.signature(cls).parameters, cls
        assert not shared & set(vars(cls)), cls
        assert shared <= set(vars(algebra._Coeffs)), cls


# the closed forms of the paper are integral: each is built over ZZ, and a
# caller that needs another ring maps the result with `map_domain`
BUILDERS = [
    (qseries, "q_integer"), (qseries, "angle_bracket"),
    (qseries, "metallic_model"), (qseries, "metallic_series"),
    (qseries, "q_rational_pair"), (qseries, "q_rational"),
    (qseries, "catalan_series"), (qseries, "motzkin_series"),
    (hfrac, "expected_hfraction"), (hfrac, "shifted_metallic_model"),
    (hfrac, "shifted_model_chain"), (hfrac, "hfraction_of_shift"),
]


def test_closed_form_builders_take_no_ring():
    for module, name in BUILDERS:
        params = inspect.signature(getattr(module, name)).parameters
        assert "dom" not in params, name
        assert all(p.annotation != "Domain" for p in params.values()), name


def test_star_import_binds_every_public_name():
    # a fresh interpreter, so that no submodule imported elsewhere (such as
    # qmetallic.cli) is bound on the package
    code = (
        "ns = {}; exec('from qmetallic import *', ns); "
        "print(' '.join(sorted(k for k in ns if k != '__builtins__')))"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == sorted(PUBLIC_NAMES)


def test_dir_lists_every_public_name():
    # the package serves most of them from its __getattr__, on use
    assert set(PUBLIC_NAMES) <= set(dir(qmetallic))


# Without a bytecode cache, as the benchmark runs it, every request
# compiles each module it loads, and the compile of one module, not the
# mathematics, sets the request's peak memory. The rise in a fresh
# interpreter's max-RSS from compiling one module of a given size
# (CPython 3.11, 2-vCPU VM): 10.4 KB +0.75 MB, 13.5 KB +1.12 MB,
# 15.2 KB +1.25 MB, 17.4 KB +1.38 MB, 19.7 KB +1.88 MB, and +2.12 MB from
# 25 KB up. Splitting the two 28 KB modules lowered the peak of every
# request that loaded them.
MAX_MODULE_BYTES = 18_000


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_every_module_stays_small_enough_to_compile_cheaply(path):
    assert path.stat().st_size <= MAX_MODULE_BYTES
