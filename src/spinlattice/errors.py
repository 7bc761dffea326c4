"""Exception types shared across the package."""


class SpinLatticeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SpinLatticeError):
    """Matrix dimensions do not conform."""


class NumericError(SpinLatticeError):
    """A numerical routine failed (non-convergence, overflow guard, ...)."""


class NotPositiveDefiniteError(SpinLatticeError):
    """A matrix required to be positive definite is not."""


class SingularMatrixError(SpinLatticeError):
    """A matrix that must be invertible is singular to working precision."""


class SingularEquationError(SpinLatticeError):
    """A matrix equation has no unique solution (overlapping spectra)."""


class SpectrumError(SpinLatticeError):
    """A spectral precondition (e.g. 0 or +/-i not an eigenvalue) fails."""


class PoleError(SpinLatticeError):
    """Evaluation point too close to a pole."""


class ConditioningError(SpinLatticeError):
    """A matrix is too ill-conditioned for the requested operation."""


class DegeneracyError(SpinLatticeError):
    """A spin configuration is degenerate (S ~ +/-I or vanishing denominator)."""


class AdmissibilityError(SpinLatticeError):
    """A parameter triple fails the admissibility requirements."""


class InputError(SpinLatticeError):
    """Malformed input file or argument."""
