"""Exception types shared across the library, and the argument rules every
public entry checks with them."""

import math
import numbers


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


def require_count(name: str, value, least: int) -> None:
    """``DomainError`` unless ``value`` is an integer (NumPy's too) >= ``least``;
    a float is refused even when it equals an integer."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def require_positive(name: str, value) -> None:
    """``DomainError`` unless ``value`` is finite and > 0 (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


def require_finite(name: str, formula):
    """``formula()`` when it is a finite float; ``DomainError`` when it
    overflows, divides by zero or is not finite, which is where a closed
    form's arguments leave its range."""
    try:
        value = formula()
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"{name} is not a finite float: arguments out of range")
    return value
