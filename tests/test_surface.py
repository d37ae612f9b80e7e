"""The public surface: what `qmetallic` exports, and what it no longer has."""

import ast
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import qmetallic
from qmetallic import (
    QQ, ZZ, HFTerm, HankelReport, Model, Poly, RegularCF, Series, SupportProfile,
    algebra, artin, cfrac, cli, fields, hfrac, oracle, poly, prime_field, qrational,
    qseries, template, verify,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmetallic"

# what `from qmetallic import *` binds: every public name of the package,
# the fifteen library modules included (not `commands`, which exports none)
PUBLIC_NAMES = [
    "AlgStepResult", "CheckResult", "ExactDivisionError", "HFTerm",
    "HankelReport", "Model", "ModpReport", "PeriodicHFraction", "Poly",
    "PrecisionError", "QQ", "RegularCF", "SUITES", "ScanReport", "Series",
    "SupportProfile", "ZZ", "alg_step", "algebra", "angle_bracket", "artin",
    "artin_expand", "artin_to_hf", "baseline_catalan_motzkin",
    "catalan_series", "cfrac", "check_contiguity", "check_delta_symmetry",
    "check_explicit_reconstruction", "check_hfraction_shape",
    "check_profile_identities", "check_stream_symmetries",
    "check_support_membership", "check_value_set_and_periodicity",
    "conjecture_scan", "crosschecks", "det_fraction_free", "expected_hfraction", "explicit",
    "explicit_delta", "explicit_delta_sequence", "explicit_support_index",
    "fields", "gale_robinson_check", "greedy_hfraction", "hankel_bruteforce_values",
    "hankel_formula_values", "hankel_sequence", "hankel_values_from_hfraction",
    "hankel_window", "hf_to_artin", "hfrac",
    "hfraction_of_quadratic", "hfraction_of_shift", "is_prime",
    "leading_minors", "metallic_model", "metallic_series", "metallic_step_cap",
    "modp", "modp_analysis", "motzkin_series", "oracle", "poly", "prime_field",
    "q_integer", "q_rational", "q_rational_pair", "qrational", "qseries",
    "reports", "run_suite", "series_of_model",
    "shift_model", "shifted_metallic_model", "shifted_model_chain",
    "support_membership", "support_profile", "support_sets", "template", "verify",
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
    # the oracle's own module and the package hand out one function each,
    # and so does `verify`, where the benchmark's tracer wraps the values,
    # so a patch of one reaches every caller
    assert qmetallic.hankel_window is oracle.hankel_window
    assert (qmetallic.hankel_bruteforce_values is verify.hankel_bruteforce_values
            is oracle.hankel_bruteforce_values)


@pytest.mark.parametrize("module, name", DELETED, ids=[n for _, n in DELETED])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(qmetallic, name)


# (old module, defining module, names): names that a split moved out of a
# module, which no longer serves them; each has one home, and the package
# serves the public ones from there
MOVED = [
    (algebra, poly, "_Coeffs Poly format_terms"),
    (algebra, fields, "RationalDomain QQ PrimeFieldDomain prime_field "
                      "PRIMALITY_BOUND is_prime _bareiss_generic"),
    (qseries, poly, "angle_bracket"),
    (qseries, qrational, "continued_fraction_digits q_rational_pair q_rational "
                         "catalan_series motzkin_series"),
    (cfrac, artin, "greedy_hfraction RegularCF artin_expand hf_to_artin artin_to_hf"),
    (hfrac, template, "hfraction_of_shift SupportProfile support_profile"),
    (verify, oracle, "hankel_window"),
]
MOVED_PATHS = [(old, new, name) for old, new, names in MOVED for name in names.split()]


@pytest.mark.parametrize(
    "old, new, name", MOVED_PATHS,
    ids=[f"{old.__name__[len('qmetallic.'):]}.{name}" for old, _, name in MOVED_PATHS],
)
def test_moved_names_are_gone_from_their_old_module(old, new, name):
    assert not hasattr(old, name)
    assert name in vars(new)
    if name in qmetallic._OWNER:
        assert getattr(qmetallic, name) is getattr(new, name)


def tracer_targets() -> set:
    """The (module, attribute) pairs that bench/tracer.py's LAYERS wrap."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {target for targets, _ in tracer.LAYERS.values() for target in targets}


LIBRARY = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))


def test_a_module_serves_a_name_it_does_not_hold_only_for_the_tracer():
    # a module __getattr__ (PEP 562) is a second address for a name; the
    # one reader that still needs one is the benchmark's tracer, which
    # wraps a name on the module it looks it up on
    targets = tracer_targets()
    served = set()
    for stem in LIBRARY:
        module = importlib.import_module(f"qmetallic.{stem}")
        held = vars(module)
        served |= {
            (module.__name__, name) for name in qmetallic._OWNER
            if name not in held and hasattr(module, name)
        }
    assert served <= targets, served - targets
    # and every target that names a public name resolves where the tracer
    # reads it, to the package's object: the tracer skips a missing name,
    # and its layer would drop out or count less with no error
    for module_name, attr in targets:
        head = attr.split(".")[0]
        if head in qmetallic._OWNER:
            module = importlib.import_module(module_name)
            assert getattr(module, head, None) is getattr(qmetallic, head), (module_name, attr)


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
        assert shared <= set(vars(poly._Coeffs)), cls


# the closed forms of the paper are integral: each is built over ZZ, and a
# caller that needs another ring maps the result with `map_domain`
BUILDERS = [
    (poly, "q_integer"), (poly, "angle_bracket"),
    (qseries, "metallic_model"), (qseries, "metallic_series"),
    (qrational, "q_rational_pair"), (qrational, "q_rational"),
    (qrational, "catalan_series"), (qrational, "motzkin_series"),
    (template, "expected_hfraction"), (hfrac, "shifted_metallic_model"),
    (hfrac, "shifted_model_chain"), (template, "hfraction_of_shift"),
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
# compiles each module it loads, and that compile, not the mathematics,
# sets a short request's peak memory and most of its time after start-up.
# A compile-only probe reads VmHWM in a fresh interpreter after `import
# argparse` and after compiling the package and the modules a request runs
# (median of 7, CPython 3.11.7, 2-vCPU VM). Peak RSS in MB, before ->
# after splitting every module over 2,000 AST nodes along the
# subcommands' paths:
#
#   request                    peak RSS (MB)
#   hfrac                      15.11 -> 14.45
#   hankel --source formula    15.11 -> 14.52
#   modp                       15.31 -> 14.60
#   verify --suite thmB        15.39 -> 14.50
#   series                     15.04 -> 14.48
#   scan                       15.02 -> 14.48
#   --version                  14.60 -> 13.93
#
# The compile of the largest module a request loads sets much of its
# peak, and the nodes of all of them its compile time; each module is
# held under both caps, and `tests/test_cli.py` pins what each request
# compiles in all.
MAX_MODULE_BYTES = 18_000
MAX_MODULE_NODES = 2_000


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_every_module_stays_small_enough_to_compile_cheaply(path):
    assert path.stat().st_size <= MAX_MODULE_BYTES
    source = path.read_text()
    assert sum(1 for _ in ast.walk(ast.parse(source))) <= MAX_MODULE_NODES


# one fresh interpreter per module, as every request is one: a load-order
# cycle among the modules shows only on a cold start. `__main__` runs the
# command line, so it is left out; a lazy module runs on its first
# attribute read, and running it makes it a plain module
COLD_IMPORT = (
    "import importlib, types; m = importlib.import_module({name!r}); "
    "m.__name__; assert type(m) is types.ModuleType, type(m)"
)


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__main__.py"}),
    ids=lambda p: p.name,
)
def test_every_module_imports_cold(path):
    name = "qmetallic" if path.stem == "__init__" else f"qmetallic.{path.stem}"
    r = subprocess.run(
        [sys.executable, "-W", "error", "-c", COLD_IMPORT.format(name=name)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
