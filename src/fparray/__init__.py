"""Frequency permutation arrays: constructions, verification, and bounds.

A frequency permutation array is a set of words of length n over m
symbols, each symbol appearing exactly lambda times per word, with every
pair of words at Hamming distance at least d.  This package constructs
such arrays from finite-field and design-theoretic ingredients, verifies
every claimed parameter from the raw rows, and computes counting
formulas, volume bounds, and exact maximum sizes on desk-scale instances.
"""

import types

from .bounds import (
    BoundsReport,
    ExactResult,
    bounds_report,
    exact_max_size,
    gv_lower,
    hamming_upper,
    mofs_max,
    multiset_derangements,
    plotkin_upper,
    sphere_volume,
    trivial_upper,
)
from .combinators import (
    SeparableArray,
    compose_columns,
    direct_product,
    expand_to_pa,
    juxtapose,
    pad,
    reduce_mod,
    refine,
    sep_product,
    separable_from_mols,
)
from .constructions import (
    FrequencySquare,
    HadamardMatrix,
    OrthogonalArray,
    ResolvableDesign,
    affine_classes_from_mols,
    fpa_from_ard,
    fpa_from_hadamard,
    fpa_from_linearized,
    fpa_from_mds,
    fpa_from_mofs,
    fpa_from_oa,
    fpa_steiner_848,
    hadamard_matrix,
    mofs_complete,
    mols_from_field,
    oa_from_mols,
    reed_solomon_generator,
)
from .core import (
    FrequencyPermutationArray,
    VerificationReport,
    WorkLimitExceeded,
    all_lambda_permutations,
    canonical_max_distance_fpa,
    count_all,
    is_lambda_permutation,
    min_distance,
    pair_profile,
    verify,
)
from .gf import (
    FiniteField,
    LinearizedPolynomial,
    PermPolyCensus,
    Polynomial,
    associate_matrix,
    census_permutation_polynomials,
    evaluate_whole_field,
    field_of_order,
    linearized_monomial,
    linearized_subfield_kernel,
    linearized_trace,
    make_field,
    matrix_rank,
)

__version__ = "0.1.0"

# every public name imported above, so the list cannot drift from the imports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
