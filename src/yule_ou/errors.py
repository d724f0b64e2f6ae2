"""Exception types shared across the package and the domain checks raising them."""

import math
import numbers
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


def _is_number(value):
    """A real number that is not a bool: a bool is no number here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive(**named):
    """Reject each value that is not a finite positive number (NaN included)."""
    for name, value in named.items():
        if not (_is_number(value) and 0.0 < value < math.inf):
            raise ParameterError(f"{name} must be positive and finite, got {value}")


def check_count(name, value, low, high=math.inf):
    """Reject a count that is not an integer in [low, high].  Python and
    numpy integers pass; a bool or a float, even an integral one, is refused."""
    try:
        if not isinstance(value, bool) and low <= operator.index(value) <= high:
            return
    except TypeError:
        pass
    raise ParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def check_correlation(r):
    """Reject an r that is not a number, and |r| > 1, NaN included."""
    if not _is_number(r):
        raise ParameterError(f"r must be a number, got {r!r}")
    if not abs(r) <= 1.0:
        raise ParameterError(f"|r| must be <= 1, got {r}")


def check_level(alpha):
    """Reject a significance level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
