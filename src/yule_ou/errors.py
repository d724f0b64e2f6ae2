"""Exception types shared across the package and the domain checks raising them."""

import math
import operator


class YuleOuError(Exception):
    """Base class for all package errors."""


class ParameterError(YuleOuError, ValueError):
    """A parameter is outside its mathematical domain."""


class InsufficientDataError(YuleOuError, ValueError):
    """Not enough observations to evaluate the requested quantity."""


class GridMismatchError(YuleOuError, ValueError):
    """Two paths do not share the same time grid."""


class DegenerateStatisticError(YuleOuError, ValueError):
    """A denominator of the statistic is degenerate (constant path)."""


def check_positive(**named):
    """Reject each value that is not a finite positive number (NaN included)."""
    for name, value in named.items():
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value}")


def check_integer(**named):
    """Reject each value that is not an integer; Python and numpy integers pass."""
    for name, value in named.items():
        try:
            operator.index(value)
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def check_correlation(r):
    """Reject |r| > 1, NaN included."""
    if not abs(r) <= 1.0:
        raise ParameterError(f"|r| must be <= 1, got {r}")


def check_level(alpha):
    """Reject a significance level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
