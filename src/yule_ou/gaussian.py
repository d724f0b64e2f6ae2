"""Standard-normal CDF, density and quantile: the package's one source of
normal quantiles.  The quantile is scipy's `ndtri`; the upper quantile is
`-ndtri(alpha)`, which keeps full precision at small tail levels where
`1 - alpha` would round them away.  The CDF keeps its erfc form, since
scipy's `ndtr` differs from it in the last bit on part of the line.
"""

import numpy as np
from scipy.special import erfc, ndtri

SQRT2 = np.sqrt(2.0)
SQRT2PI = np.sqrt(2.0 * np.pi)


def norm_cdf(x):
    """Standard normal CDF, Phi(x) = erfc(-x/sqrt(2))/2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / SQRT2)
    return float(out) if out.ndim == 0 else out


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT2PI
    return float(out) if out.ndim == 0 else out


def norm_quantile(p):
    """Inverse standard normal CDF on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    x = ndtri(arr)
    return float(x) if x.ndim == 0 else x


def upper_quantile(alpha):
    """Upper quantile of order alpha: the z with P(N > z) = alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    return -float(ndtri(alpha))
