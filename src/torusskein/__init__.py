"""Exact Kauffman bracket skein calculus for torus-knot complements."""

from .algebra import DELTA, Laurent, TracePoly, UniPoly, chebyshev, chebyshev_terms
from .charvariety import (
    AdmissiblePair,
    Component,
    TorusKnotConfig,
    abelian_parametrization,
    admissible_pairs,
    components,
    degree,
    leading_coeff_vector,
    restrict_to_component,
)
from .skein import (
    AnnularTangle,
    BudgetError,
    MalformedTangle,
    Multicurve,
    PlanarityError,
    SkeinElement,
    multicurve_tangle,
    resolve,
    resolve_states,
)
from .sprime import (
    QuotientError,
    basis_tangle,
    closed_basis_element,
    expand_framing_curve,
    normalized_basis_coordinates,
    power_tangle,
    quotient_coordinates,
    reduction_relation,
    rotate,
    rotated_element,
    rotation_exponents,
    rotation_matrix,
    rotation_norm_exponent,
)
from .traces import NumericRep, numeric_rep, series_table, trace_word

__version__ = "0.1.0"
