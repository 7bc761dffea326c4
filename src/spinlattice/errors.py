"""Exception types shared across the package."""


class SpinLatticeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SpinLatticeError):
    """Matrix dimensions do not conform."""


class NumericError(SpinLatticeError):
    """A numerical routine failed (non-convergence, overflow guard, ...)."""


class NotPositiveDefiniteError(SpinLatticeError):
    """A matrix required to be positive definite is not."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class SingularMatrixError(SpinLatticeError):
    """A matrix that must be invertible is singular to working precision."""


class SingularEquationError(SpinLatticeError):
    """A matrix equation has no unique solution (overlapping spectra)."""


class SpectrumError(SpinLatticeError):
    """A spectral precondition (e.g. 0 or +/-i not an eigenvalue) fails."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class PoleError(SpinLatticeError):
    """Evaluation point too close to a pole."""

    def __init__(self, message, nearest=None):
        super().__init__(message)
        self.nearest = nearest


class ConditioningError(SpinLatticeError):
    """A matrix is too ill-conditioned for the requested operation."""

    def __init__(self, message, index=None, condition=None):
        super().__init__(message)
        self.index = index
        self.condition = condition


class DegeneracyError(SpinLatticeError):
    """A spin configuration is degenerate (S ~ +/-I or vanishing denominator)."""


class AdmissibilityError(SpinLatticeError):
    """A parameter triple fails the admissibility requirements."""


class InputError(SpinLatticeError):
    """Malformed input file or argument."""
