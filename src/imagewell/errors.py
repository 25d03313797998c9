"""Exception types shared across the library."""


class ImagewellError(Exception):
    """Base class for all library-specific errors."""


class StackError(ImagewellError, ValueError):
    """Invalid dielectric stack (bad permittivity, geometry, or metal placement)."""


class DomainError(ImagewellError, ValueError):
    """Argument outside the valid domain of an operation."""


class SingularityError(DomainError):
    """Evaluation point too close to a dielectric interface."""


class ConvergenceError(ImagewellError, RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""

    def __init__(self, message, estimate=None, error_bound=None, terms=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.terms = terms


class EigenSearchError(ImagewellError, RuntimeError):
    """The requested number of eigenstates could not be bracketed."""


class GridError(ImagewellError, ValueError):
    """A discretization grid is unusable (too coarse, non-uniform, ...)."""


class MaterialNotFoundError(ImagewellError, KeyError):
    """Lookup of an unknown material name."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


class TableRangeError(ImagewellError, ValueError):
    """Inverse-lookup argument outside the tabulated range."""
