"""Geodesic upper bounds on Nielsen complexity for oscillator evolution operators.

The package solves the geodesic velocity equations of right-invariant
penalty metrics on small Lie algebras (oscillator group, sp(2,R), coupled
and truncated cubic extensions), matches initial velocities to target
unitaries at leading Dyson order, applies group-periodicity reductions, and
evaluates the resulting complexity-bound curves.  A matrix oracle layer
cross-checks the algebraic results on explicit representations.
"""

__version__ = "0.1.0"

from .algebra import (
    BasisChange,
    KJ_BASIS_CHANGE,
    LieAlgebraSpec,
    ValidationReport,
    builtin,
    builtin_names,
    change_basis,
    table_to_json,
    validate,
)
from .bounds import (
    BoundCurve,
    BoundResult,
    anharm_length,
    bound,
    bound_curve,
    length,
)
from .errors import (
    DegenerateDirection,
    DimMismatch,
    FamilyMismatch,
    NotRegistered,
    NumericBlowup,
    PrecisionLoss,
    QcBoundError,
    SingularBasisChange,
    Unsupported,
    UnsupportedCenterVelocity,
)
from .euler_arnold import (
    ClosedFormFamily,
    PenaltyMatrix,
    VelocitySolution,
    integrate_rk4,
    rhs,
    solve_closed_form,
    solve_numeric,
)
from .geodesic import (
    leading_order_coeffs,
    product_form_coeffs_ho4,
    residual_product_form,
)
from .matching import (
    MatchResult,
    match,
    match_displacement_product_form,
    reduce_periodic_signed,
    verify_match,
)
from .oracle import (
    MatrixRep,
    commutator_closure_residual,
    fock_rep,
    line_element,
    matrix_rep,
    path_ordered_exponential,
    spectrum_period_check,
)
from .systems import TargetSpec
from .verification import run_suite

__all__ = [
    "BasisChange", "KJ_BASIS_CHANGE", "LieAlgebraSpec", "ValidationReport",
    "builtin", "builtin_names", "change_basis", "table_to_json", "validate",
    "BoundCurve", "BoundResult", "anharm_length", "bound",
    "bound_curve", "length",
    "DegenerateDirection", "DimMismatch", "FamilyMismatch", "NotRegistered",
    "NumericBlowup", "PrecisionLoss", "QcBoundError", "SingularBasisChange",
    "Unsupported", "UnsupportedCenterVelocity",
    "ClosedFormFamily", "PenaltyMatrix", "VelocitySolution", "integrate_rk4",
    "rhs", "solve_closed_form", "solve_numeric",
    "leading_order_coeffs", "product_form_coeffs_ho4", "residual_product_form",
    "MatchResult", "TargetSpec", "match", "match_displacement_product_form",
    "reduce_periodic_signed", "verify_match",
    "MatrixRep", "commutator_closure_residual", "fock_rep", "line_element",
    "matrix_rep", "path_ordered_exponential", "spectrum_period_check",
    "run_suite",
]
