"""Exact computer algebra for hom-Lie algebras: representations and
cohomology, O-operators and induced structures, deformations with
obstructions, Nijenhuis elements, and skew r-matrices.

All arithmetic is over the rationals: every scalar is an int when it is
integral and a fractions.Fraction otherwise, never a float; every check
is exact and every reported failure pinpoints the basis tuple that
breaks the law being tested.
"""

from types import ModuleType as _ModuleType

from .linalg import Matrix, Q, format_scalar, parse_scalar
from .cochain import (
    Cochain,
    CohomologyDims,
    coboundary,
    coboundary_matrix,
    cohomology_dims,
    cohomology_table,
    zero_coboundary,
)
from .deformation import (
    EquivalenceReport,
    ExtensionResult,
    FormalDeformationReport,
    InfinitesimalReport,
    LinearDeformationReport,
    NijenhuisElementReport,
    TrivialDeformationResult,
    TruncatedDeformation,
    equivalence_check,
    extend_order,
    extension_steps,
    formal_deformation_check,
    infinitesimal_check,
    linear_deformation_check,
    nijenhuis_element_check,
    obstruction,
    trivial_deformation_from_nijenhuis,
)
from .graded import (
    build_theta,
    check_maurer_cartan,
    circle_product,
    derived_bracket,
    nr_bracket,
)
from .ooperator import (
    HomPreLie,
    build_nt,
    graph_check,
    induced_hom_pre_lie,
    is_o_operator,
    is_rota_baxter,
    nijenhuis_operator_check,
    o_operator_hom_check,
    o_operator_maurer_cartan_check,
    rb_induced_bracket,
    rho_t,
    subadjacent,
    verify_hom_pre_lie,
)
from .rmatrix import (
    cybe_sum,
    graded_bracket_wedge,
    induced_dual_bracket,
    invariant_two_tensor_basis,
    invariant_wedge_basis,
    is_invariant,
    is_r_matrix,
    require_skew,
    rmatrix_deformation_transfer,
    skew_matrix,
    two_tensor_square,
    weak_homomorphism_check,
    wedge_coeffs,
)
from .structures import (
    HomLieAlgebra,
    Representation,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    dual_rep,
    from_lie_with_morphism,
    semidirect_product,
    trivial_rep,
    verify_hom_lie,
    verify_representation,
)

# The public API is every name imported above; the submodules, bound on
# the package by those imports, are not part of it.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
