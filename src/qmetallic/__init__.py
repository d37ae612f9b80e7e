"""Exact arithmetic for q-deformed metallic numbers.

The package computes the power series of q-metallic numbers, expands
quadratic power series into periodic Hankel continued fractions, evaluates
Hankel determinants both by closed formula and by literal determinant
computation, and cross-checks the structural identities relating them.
All arithmetic is exact: integers, rationals, or prime fields. No floats.

Importing the package runs none of its library modules. Each one is
put in `sys.modules` and on the package as a lazy module
(`importlib.util.LazyLoader`), which runs on its first attribute read; a
public name such as `qmetallic.run_suite` is read from its defining
module on use. The modules call each other through these lazy module
objects, so the command line runs only what a subcommand calls into
(`cli` itself always runs):

- `--version` and a malformed command line run nothing else;
- every other request runs `commands`, and a well-formed one `algebra`
  and `poly`;
- `series` adds `qseries`;
- `hfrac` adds `cfrac` and `template`, and `hankel --source formula`
  `reports` too: neither runs the expansion (`hfrac`) or `qseries`;
- `hankel --source brute` and `scan` add `qseries`, `oracle` and
  `reports`, and `--source both` the formula route's modules too;
- `verify --suite thmB`, `thmC` and `thmD` add `verify`, `reports`,
  `cfrac` and `template`; thmA adds the expansion, `hfrac` and
  `qseries`; thm51, symmetries and baselines add `crosschecks` and the
  modules their checkers read (`explicit` only for thm51);
- `modp` adds `fields`, `modp`, `hfrac`, `qseries`, `cfrac`,
  `template` and `reports`, and `oracle` only beyond the shift n+1.

Each module is kept under 2,000 AST nodes and 18,000 bytes of source:
a request that compiles it without a bytecode cache peaks higher in
memory and takes longer the larger the modules it compiles (see
`tests/test_surface.py`). A module that lost names to a split still
serves them, from their new module on first read (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the suite names `verify.run_suite` accepts; defined here, so that the
# command-line parser can offer them without running `verify`
SUITES = ("thmA", "thmB", "thmC", "thmD", "thm51", "symmetries", "baselines", "all")

# public names by defining submodule
_EXPORTS = {
    "algebra": "ZZ det_fraction_free ExactDivisionError PrecisionError",
    "poly": "Poly q_integer angle_bracket",
    "fields": "QQ prime_field is_prime",
    "qseries": "Series Model metallic_model metallic_series series_of_model",
    "qrational": "q_rational q_rational_pair catalan_series motzkin_series",
    "cfrac": "HFTerm PeriodicHFraction",
    "artin": "greedy_hfraction RegularCF artin_expand hf_to_artin artin_to_hf",
    "hfrac": "AlgStepResult alg_step hfraction_of_quadratic metallic_step_cap "
             "shift_model shifted_metallic_model shifted_model_chain",
    "template": "expected_hfraction hfraction_of_shift SupportProfile "
                "support_profile hankel_values_from_hfraction",
    "oracle": "leading_minors hankel_bruteforce_values hankel_window",
    "explicit": "explicit_delta explicit_support_index explicit_delta_sequence "
                "support_membership support_sets",
    "reports": "CheckResult HankelReport ModpReport ScanReport "
               "hankel_formula_values hankel_sequence conjecture_scan",
    "verify": "check_value_set_and_periodicity gale_robinson_check "
              "check_contiguity check_hfraction_shape run_suite",
    "crosschecks": "check_explicit_reconstruction check_delta_symmetry "
                   "check_support_membership check_profile_identities "
                   "check_stream_symmetries baseline_catalan_motzkin",
    "modp": "modp_analysis",
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


# `commands`, the subcommands of `cli`, exports no name but is lazy too
globals().update({name: _lazy(name) for name in (*_EXPORTS, "commands")})


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
