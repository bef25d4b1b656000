"""Exception and warning types shared across the package."""


class StepslabError(Exception):
    """Base class for all package-specific errors."""


class InvalidRangeError(StepslabError, ValueError):
    """A frequency range or window is empty or ill ordered."""


class EdgeDegeneracyError(StepslabError, ArithmeticError):
    """The requested quantity is indeterminate at a degenerate band edge."""


class BandMismatchError(StepslabError, ValueError):
    """A Band object does not satisfy its invariants for the given cell."""


class PoleProximityError(StepslabError, ArithmeticError):
    """The evaluation point is numerically indistinguishable from a pole
    of the reflection coefficient (a resonance)."""

    def __init__(self, lam, message=None):
        self.lam = lam
        super().__init__(message or f"reflection pole at lambda = {lam}")


class RecursionPoleError(StepslabError, ArithmeticError):
    """A denominator of the linear-fractional recursion vanished; the
    point is a pole of the recursion value, not a resonance."""

    def __init__(self, lam, index, message=None):
        self.lam = lam
        self.index = index
        super().__init__(message or f"recursion denominator vanished at lambda={lam}")


class DeterminantOverflowError(StepslabError, OverflowError):
    """The interface-chain determinant exceeded the floating-point range;
    count the resonances with ``find_resonances`` instead."""


class HomogeneousCellError(StepslabError, ValueError):
    """The operation is undefined for a homogeneous cell (b1 == b2)."""


class ContourError(StepslabError, ArithmeticError):
    """A zero-counting contour could not be evaluated reliably."""


class ContourThroughZeroError(ContourError):
    """The integrand nearly vanishes on the counting contour."""


class BoundaryValueWarning(UserWarning):
    """The returned value is an upper-half-plane boundary limit; pointwise
    convergence of the finite-slab coefficient is not guaranteed there."""


class EmptyWindowWarning(UserWarning):
    """A resonance search window intersects no spectral band."""
