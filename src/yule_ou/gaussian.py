"""Standard-normal CDF and upper quantile: the package's one source of
normal quantiles.  The upper quantile is scipy's `-ndtri(alpha)`, which
keeps full precision at small tail levels where `1 - alpha` would round
them away.  The CDF keeps its erfc form, since scipy's `ndtr` differs
from it in the last bit on part of the line.
"""

import numpy as np
from scipy.special import erfc, ndtri

SQRT2 = np.sqrt(2.0)


def norm_cdf(x):
    """Standard normal CDF, Phi(x) = erfc(-x/sqrt(2))/2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / SQRT2)
    return float(out) if out.ndim == 0 else out


def upper_quantile(alpha):
    """Upper quantile of order alpha: the z with P(N > z) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    return -float(ndtri(alpha))
