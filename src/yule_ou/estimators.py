"""Path functionals: empirical covariance integrals, the correlation
statistic, and the mean-reversion-rate estimator.

All time integrals use the trapezoidal rule on the path's uniform grid,
so the functionals stay exactly bilinear in the path values:

    Y_ab = int_0^T a(u) b(u) du - T * abar * bbar,
    abar = (1/T) int_0^T a(u) du.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatisticError, GridMismatchError, InsufficientDataError


@dataclass(frozen=True)
class PathPair:
    """Two observed paths on a shared grid (no simulation provenance)."""

    x1: object
    x2: object

    def __post_init__(self):
        a, b = self.x1, self.x2
        if a.dt != b.dt or a.t0 != b.t0 or a.values.size != b.values.size:
            raise GridMismatchError("paths are not on the same grid")


@dataclass(frozen=True)
class YuleStatistics:
    """Functionals of a pair: variances y11/y22, cross term y12, correlation
    rho = y12 / sqrt(y11*y22) and the rate estimate; floats for one pair,
    arrays with one entry per replication for a sample (mc.PairSample)."""

    y11: float | np.ndarray
    y22: float | np.ndarray
    y12: float | np.ndarray
    rho: float | np.ndarray
    theta_hat: float | np.ndarray
    horizon_T: float

    def to_dict(self):
        return {"y11": self.y11, "y22": self.y22, "y12": self.y12,
                "rho": self.rho, "theta_hat": self.theta_hat, "T": self.horizon_T}


def trapezoid_weights(n_nodes, dt):
    """Composite trapezoid weights on n_nodes uniform grid points."""
    if n_nodes < 2:
        raise InsufficientDataError("need at least two grid nodes")
    w = np.full(n_nodes, dt, dtype=float)
    w[0] = w[-1] = 0.5 * dt
    return w


def _linear(x, w, scratch=None):
    """Row-wise trapezoidal integral sum_j w_j x_j of paths (..., n_nodes),
    the products formed in `scratch` (an array of x's shape) if one is given."""
    return np.multiply(x, w, out=scratch).sum(axis=-1)


def _quadratic(x, y, w):
    """Row-wise trapezoidal integral sum_j w_j x_j y_j, each row summed in its
    own loop by the three-operand einsum.  A two-operand einsum or `@` would
    go to BLAS, whose dot kernels sum a row differently depending on the
    batch shape."""
    return np.einsum("...j,...j,j->...", x, y, w)


def _variance_and_linear(x, w, T, scratch=None):
    """Y_aa of paths x and their linear term, which Y_ab needs too."""
    s = _linear(x, w, scratch)
    return _quadratic(x, x, w) - s * s / T, s


def cross_functionals(x1, dt, scratch=None):
    """Y11 of paths x1 of shape (..., n_nodes), and a function giving
    (Y22, Y12) of any paths x2 of the same shape beside them.

    x1's linear term is computed once, for every x2 it is given.  Rows are
    reduced one by one, so a row's bits do not depend on the block it sits
    in, nor on the row length of the array the paths are a prefix view of;
    a single pair is a batch of one.  A `scratch` array of the paths' shape
    holds the linear terms' products, which are otherwise allocated; the
    sums have the same bits either way.  It may be an x2 itself, which its
    products then overwrite once its quadratic terms are summed.
    """
    w = trapezoid_weights(x1.shape[-1], dt)
    T = (x1.shape[-1] - 1) * dt
    y11, s1 = _variance_and_linear(x1, w, T, scratch)

    def against(x2):
        q22, q12 = _quadratic(x2, x2, w), _quadratic(x1, x2, w)
        s2 = _linear(x2, w, scratch)
        return q22 - s2 * s2 / T, q12 - s1 * s2 / T
    return y11, against


def functionals(x1, x2=None, dt=None):
    """Centered functionals (Y11, Y22, Y12) of paths of shape (..., n_nodes),
    or (Y11,) of x1 alone when x2 is omitted, with the pair's Y11 bits; the
    reduction of cross_functionals."""
    y11, against = cross_functionals(x1, dt)
    return (y11,) if x2 is None else (y11, *against(x2))


def rate_estimate(y_aa, horizon_T):
    """Mean-reversion rate T/(2 Y_aa) of a path, for scalars or arrays; a
    rate that overflows, as it does for a subnormal Y_aa, is refused."""
    with np.errstate(over="ignore"):
        rate = horizon_T / (2.0 * y_aa)
    if not np.all(np.isfinite(rate)):
        raise DegenerateStatisticError("non-finite rate estimate")
    return rate


def correlation(y11, y22, y12):
    """rho = Y12/sqrt(Y11 Y22), for scalars or arrays."""
    return y12 / (np.sqrt(y11) * np.sqrt(y22))


def _check_not_constant(path):
    if path.values.min() == path.values.max():  # max - min can overflow
        raise DegenerateStatisticError("path is constant; statistic undefined")


def check_functionals(y11, y22=1.0, y12=0.0):
    """Refuse functionals, a pair's floats or a sample's arrays, with a
    variance that is not positive and finite or a cross term that is not
    finite: finite paths can still overflow the reduction to inf or nan."""
    if not np.all((0.0 < y11) & (y11 < math.inf) & (0.0 < y22) & (y22 < math.inf)
                  & np.isfinite(y12)):
        raise DegenerateStatisticError("degenerate or non-finite functional")


def theta_estimator(path):
    """Rate estimate theta_tilde = (1/2) * (Y_xx/T)^{-1}."""
    _check_not_constant(path)
    with np.errstate(over="ignore", invalid="ignore"):
        y = float(functionals(path.values, dt=path.dt)[0])
    check_functionals(y)
    return rate_estimate(y, path.horizon)


def yule_rho(pair, pooled_theta=False):
    """All statistics of a pair, including rho and theta_hat.

    theta_hat comes from x1; with pooled_theta=True it is the average of
    the two marginal estimates.
    """
    _check_not_constant(pair.x1)
    _check_not_constant(pair.x2)
    with np.errstate(over="ignore", invalid="ignore"):
        y11, y22, y12 = map(float, functionals(pair.x1.values, pair.x2.values, pair.x1.dt))
    check_functionals(y11, y22, y12)
    T = pair.x1.horizon
    rho, theta_hat = correlation(y11, y22, y12), rate_estimate(y11, T)
    if pooled_theta:
        theta_hat = 0.5 * theta_hat + 0.5 * rate_estimate(y22, T)  # does not overflow
    return YuleStatistics(y11=y11, y22=y22, y12=y12, rho=float(rho),
                          theta_hat=theta_hat, horizon_T=T)

