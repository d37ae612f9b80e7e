"""Exact arithmetic for q-deformed metallic numbers.

The package computes the power series of q-metallic numbers, expands
quadratic power series into periodic Hankel continued fractions, evaluates
Hankel determinants both by closed formula and by literal determinant
computation, and cross-checks the structural identities relating them.
All arithmetic is exact: integers, rationals, or prime fields. No floats.

Importing the package runs none of its eight submodules. Each one is put
in `sys.modules` and on the package as a lazy module
(`importlib.util.LazyLoader`), which runs on its first attribute read; a
public name such as `qmetallic.run_suite` is read from its module on
use. So the command line runs only what a subcommand needs:
`--version` and a malformed command line run none, `series` runs
`algebra` and `qseries`, `hfrac` adds `cfrac` and `hfrac`, `hankel
--source formula` adds `reports`, `--source both` adds `oracle` too,
`--source brute` and `scan` run `algebra`, `qseries`, `oracle` and
`reports`, and `modp` and `verify` run all but `explicit`, which only
the thm51 suite runs.

The source of each submodule is kept under 18,000 bytes: a request that
compiles it without a bytecode cache peaks higher in memory the larger
the module (see `tests/test_surface.py`).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the suite names `verify.run_suite` accepts; defined here, so that the
# command-line parser can offer them without running `verify`
SUITES = ("thmA", "thmB", "thmC", "thmD", "thm51", "symmetries", "baselines", "all")

# public names by defining submodule
_EXPORTS = {
    "algebra": "ZZ QQ prime_field Poly det_fraction_free is_prime "
               "ExactDivisionError PrecisionError",
    "cfrac": "HFTerm PeriodicHFraction greedy_hfraction RegularCF artin_expand "
             "hf_to_artin artin_to_hf",
    "explicit": "explicit_delta explicit_support_index explicit_delta_sequence "
                "support_membership support_sets",
    "hfrac": "AlgStepResult alg_step hfraction_of_quadratic expected_hfraction "
             "metallic_step_cap shift_model shifted_metallic_model "
             "shifted_model_chain hfraction_of_shift "
             "SupportProfile support_profile hankel_values_from_hfraction",
    "oracle": "leading_minors hankel_bruteforce_values hankel_window",
    "qseries": "Series q_integer angle_bracket Model metallic_model "
               "metallic_series series_of_model q_rational q_rational_pair "
               "catalan_series motzkin_series",
    "reports": "CheckResult HankelReport ModpReport ScanReport "
               "hankel_formula_values hankel_sequence conjecture_scan",
    "verify": "check_value_set_and_periodicity gale_robinson_check "
              "check_contiguity check_hfraction_shape "
              "check_explicit_reconstruction check_delta_symmetry "
              "check_support_membership check_profile_identities "
              "check_stream_symmetries modp_analysis baseline_catalan_motzkin "
              "run_suite",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["SUITES", *_EXPORTS, *_OWNER]


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
