"""Exact arithmetic for q-deformed metallic numbers.

The package computes the power series of q-metallic numbers, expands
quadratic power series into periodic Hankel continued fractions, evaluates
Hankel determinants both by closed formula and by literal determinant
computation, and cross-checks the structural identities relating them.
All arithmetic is exact: integers, rationals, or prime fields. No floats.
"""

from .algebra import (
    ZZ,
    QQ,
    prime_field,
    Poly,
    Series,
    det_fraction_free,
    leading_minors,
    ExactDivisionError,
    PrecisionError,
)
from .cfrac import (
    HFTerm,
    PeriodicHFraction,
    greedy_hfraction,
    RegularCF,
    artin_expand,
    hf_to_artin,
    artin_to_hf,
)
from .hfrac import (
    AlgStepResult,
    alg_step,
    hfraction_of_quadratic,
    expected_hfraction,
    metallic_step_cap,
    shift_model,
    shifted_metallic_model,
    shifted_model_chain,
    truncate_hfraction_stream,
    hfraction_of_shift,
    SupportProfile,
    support_profile,
    hankel_values_from_hfraction,
)
from .verify import (
    CheckResult,
    HankelReport,
    ModpReport,
    ScanReport,
    hankel_formula_values,
    hankel_sequence,
    check_value_set_and_periodicity,
    gale_robinson_check,
    check_contiguity,
    check_hfraction_shape,
    explicit_delta,
    explicit_support_index,
    explicit_delta_sequence,
    check_explicit_reconstruction,
    check_delta_symmetry,
    support_membership,
    check_support_membership,
    support_sets,
    check_profile_identities,
    check_stream_symmetries,
    is_prime,
    modp_analysis,
    conjecture_scan,
    baseline_catalan_motzkin,
    run_suite,
    SUITES,
)
from .oracle import (
    hankel_bruteforce,
    hankel_bruteforce_values,
    hankel_window,
)
from .qseries import (
    q_integer,
    angle_bracket,
    Model,
    metallic_model,
    metallic_series,
    series_of_model,
    q_rational,
    q_rational_pair,
    catalan_series,
    motzkin_series,
)

__version__ = "0.1.0"
