"""Exact symbolic toolkit for holomorphic foliations on diagonal Hopf manifolds.

Everything is computed over Gaussian rationals; no floats enter any
computation, so every answer is a certificate rather than an estimate.
"""

from .classify import (
    CoordinateLocus,
    FoliationClassification,
    NonsingularityResult,
    RepresentativeKind,
    Side,
    Verdict,
    admissible_conormal_bundles,
    admissible_tangent_bundles,
    monomial_form_from_bundle,
    monomial_vf_from_bundle,
    nonsingularity_check,
    singular_locus_monomial,
    witness_classical_vf,
)
from .errors import UnsupportedComputationError
from .forms import (
    DifferentialForm,
    exterior_derivative,
    homogeneity,
    interior_product,
    radial_field,
    wedge,
)
from .geometry import (
    FixedPointCount,
    HodgeTable,
    InvariantHypersurface,
    ObstructionReport,
    TangentToFibration,
    brunella_alternative,
    cartan_radial_check,
    chern_top,
    fixed_point_count_p1,
    frobenius_defect,
    hodge_numbers,
    is_closed,
    is_integrable,
    isolated_singularity_obstruction,
    leaf_count_classical,
    primitive_of_closed,
)
from .multipliers import (
    BundleParam,
    MultiplierStructure,
    StructureKind,
)
from .polynomials import Polynomial, VectorField
from .rationals import GaussianRational, as_gaussian
from .sections import (
    Predicate,
    SectionSpace,
    SolutionSet,
    dim_h0,
    predicate_existence,
    solution_count_formula,
    solve_sections,
)

__version__ = "0.1.0"

__all__ = [
    "BundleParam",
    "CoordinateLocus",
    "DifferentialForm",
    "FixedPointCount",
    "FoliationClassification",
    "GaussianRational",
    "HodgeTable",
    "InvariantHypersurface",
    "MultiplierStructure",
    "NonsingularityResult",
    "ObstructionReport",
    "Polynomial",
    "Predicate",
    "RepresentativeKind",
    "SectionSpace",
    "Side",
    "SolutionSet",
    "StructureKind",
    "TangentToFibration",
    "UnsupportedComputationError",
    "VectorField",
    "Verdict",
    "admissible_conormal_bundles",
    "admissible_tangent_bundles",
    "as_gaussian",
    "brunella_alternative",
    "cartan_radial_check",
    "chern_top",
    "dim_h0",
    "exterior_derivative",
    "fixed_point_count_p1",
    "frobenius_defect",
    "hodge_numbers",
    "homogeneity",
    "interior_product",
    "is_closed",
    "is_integrable",
    "isolated_singularity_obstruction",
    "leaf_count_classical",
    "monomial_form_from_bundle",
    "monomial_vf_from_bundle",
    "nonsingularity_check",
    "predicate_existence",
    "primitive_of_closed",
    "radial_field",
    "singular_locus_monomial",
    "solution_count_formula",
    "solve_sections",
    "wedge",
    "witness_classical_vf",
]
