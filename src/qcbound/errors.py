"""Exception types shared across the package."""


class QcBoundError(Exception):
    """Base class for all qcbound errors."""


class NotRegistered(QcBoundError):
    """Requested a builtin object (algebra, representation) that does not exist."""


class SingularBasisChange(QcBoundError):
    """Basis-change matrix is not invertible."""


class DimMismatch(QcBoundError):
    """Vector or matrix dimensions do not match the algebra."""


class NumericBlowup(QcBoundError):
    """Numerical integration produced a non-finite state.

    Carries ``s_reached``, the curve parameter at which the state went bad.
    """

    def __init__(self, message: str, s_reached: float):
        super().__init__(message)
        self.s_reached = s_reached


class FamilyMismatch(QcBoundError):
    """Closed-form family does not apply to the given algebra or penalties."""


class UnsupportedCenterVelocity(QcBoundError):
    """Product-form coefficients require a vanishing central velocity."""


class Unsupported(QcBoundError):
    """Unknown target-system tag."""


class DegenerateDirection(QcBoundError):
    """A generator has zero trace norm in the chosen representation."""


class PrecisionLoss(QcBoundError):
    """A periodic reduction was asked of a coordinate whose ulp is at least
    the period, so the reduced value carries no information."""
