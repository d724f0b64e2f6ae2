"""Standard-normal CDF and upper quantile: the package's one source of
normal quantiles, computed with the standard library alone.

`norm_cdf(x)` is Phi(x) = erfc(-x/sqrt(2))/2 with `math.erfc`, applied
element by element to arrays, so an array's values are bit for bit those
of its elements taken one at a time.  It is within an ulp of Phi for
x >= 0.  Below 0 the rounding of x/sqrt(2) dominates, and the relative
error grows as about x^2 ulps: 1.3e-14 at x = -10 and 2e-13 at x = -37,
where Phi nears the smallest normal double.

`upper_quantile(alpha)` is the z with P(N > z) = alpha, from Wichura's
algorithm AS 241 (Appl. Statist. 37, 1988) as `statistics.NormalDist`
implements it, within 5 ulps on all of (0, 1).  It takes the lower-tail
level alpha directly, so small levels keep full precision where
`1 - alpha` would round them away.
"""

import math
from statistics import NormalDist

import numpy as np

from .errors import check_level

SQRT2 = math.sqrt(2.0)

_STANDARD_NORMAL = NormalDist()
_erfc = np.vectorize(math.erfc, otypes=[float])


def norm_cdf(x):
    """Standard normal CDF, Phi(x) = erfc(-x/sqrt(2))/2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * _erfc(-x / SQRT2)
    return float(out) if out.ndim == 0 else out


def upper_quantile(alpha):
    """Upper quantile of order alpha: the z with P(N > z) = alpha."""
    check_level(alpha)
    return -_STANDARD_NORMAL.inv_cdf(alpha)
