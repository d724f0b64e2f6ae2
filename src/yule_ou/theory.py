"""Closed-form constants and asymptotics of the correlated-pair statistic.

Houses the rotation coefficients c1, c2, the limiting standard deviation
sigma of the scaled cross functional, the limiting variance of the
correlation statistic, cumulant constants and their convolution inner
products, the finite-horizon second moment of the chaos term, kernel
norms, the Edgeworth tail correction, and auxiliary deviation bounds.
Each is a function of plain parameters (theta, r, horizon_T, ...) that
checks its own domain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_correlation, check_positive

MAX_CONVOLUTION_ORDER = 10_000  # largest p of delta_convolution_inner


@dataclass(frozen=True)
class ChaosConstants:
    """Rotation coefficients and the limit scale of the cross functional.

    c1 = r*sqrt(2)/2 + sqrt(1-r^2)/2,  c2 = r*sqrt(2)/2 - sqrt(1-r^2)/2,
    sigma^2 = (1 + r^2) / (4*theta^3).
    """

    c1: float
    c2: float
    sigma: float


def chaos_constants(theta, r):
    check_positive(theta=theta)
    check_correlation(r)
    root = math.sqrt(1.0 - r * r)
    c1 = 0.5 * (r * math.sqrt(2.0) + root)
    c2 = 0.5 * (r * math.sqrt(2.0) - root)
    try:
        sigma = math.sqrt((1.0 + r * r) / (4.0 * theta ** 3))
    except ArithmeticError:  # theta**3 underflows to 0 or overflows
        sigma = 0.0
    if not 0.0 < sigma < math.inf:
        raise ParameterError(f"theta={theta} puts sigma outside the float range")
    return ChaosConstants(c1=c1, c2=c2, sigma=sigma)


def clt_variance_rho(theta, r):
    """The paper's stated constant (1 + r^2)/theta = 4 theta^2 sigma^2.

    This is the limiting variance of the numerator alone on the scale of
    rho. It is the variance of sqrt(T)*(rho(T) - r) only at r = 0; for
    r != 0 see clt_variance_rho_delta.
    """
    check_positive(theta=theta)
    check_correlation(r)
    return (1.0 + r * r) / theta


def clt_variance_rho_delta(theta, r):
    """Limiting variance (1 - r^2)^2/theta of sqrt(T)*(rho(T) - r).

    Delta method for rho = Y12/sqrt(Y11 Y22) on the long-run covariance
    (R_ik R_jl + R_il R_jk)/(4 theta^3) of (Y11, Y22, Y12)/T, where R is
    the correlation matrix [[1, r], [r, 1]]. Agrees with clt_variance_rho
    at r = 0.
    """
    check_positive(theta=theta)
    check_correlation(r)
    return (1.0 - r * r) ** 2 / theta


def cumulant_bound_constants(theta, r):
    """The two cumulant bound constants

    max(16/(9*theta^5) * |c_i|^3, 81/(8*theta^7) * c_i^4),  i = 1, 2,

    which dominate sqrt(T) * max(k3, k4) of the two rotated chaos terms.
    """
    cc = chaos_constants(theta, r)
    out = []
    for c in (cc.c1, cc.c2):
        out.append(max(16.0 / (9.0 * theta ** 5) * abs(c) ** 3,
                       81.0 / (8.0 * theta ** 7) * c ** 4))
    return tuple(out)


# ---------------------------------------------------------------------------
# Convolution inner products of the exponential kernel
# ---------------------------------------------------------------------------

def delta_convolution_inner(p, theta):
    """Inner product <delta^{*(p-1)}, delta> for delta(x) = exp(-theta|x|)/(2*theta).

    The spectral representation (1/pi) * int_0^inf (theta^2 + w^2)^{-p} dw,
    since the Fourier transform of delta is 1/(theta^2 + w^2), integrates
    in closed form to B(1/2, p - 1/2) / (2 pi) * theta^{1-2p}.  The pi
    cancels: B(1/2, p - 1/2) / (2 pi) = C(2p-2, p-1) / 2^{2p-1}, a rational
    whose integer quotient is correctly rounded.

    p is refused above MAX_CONVOLUTION_ORDER: the binomial's cost grows
    almost as p^2 (about 15 ms at p = 10^4, 1 s at 10^5), while the
    constant's use ends far below that order: asymptotic_cumulant
    overflows by p = 172 whatever theta, where (p-1)! leaves the float range.
    """
    if not float(p).is_integer() or not 2 <= p <= MAX_CONVOLUTION_ORDER:
        raise ParameterError(
            f"p must be an integer in [2, {MAX_CONVOLUTION_ORDER}], got {p}")
    check_positive(theta=theta)
    p = int(p)
    # float powers raise OverflowError where numpy would warn and return inf
    return math.comb(2 * p - 2, p - 1) / 2 ** (2 * p - 1) * theta ** (1 - 2 * p)


def asymptotic_cumulant(p, theta, r, horizon_T):
    """Leading-order cumulant k_p of the standardized chaos variable,

    <delta^{*(p-1)}, delta> * 2^{2p-1} * (p-1)! * (c1^p + c2^p) * theta^{3p/2}
        / (T^{p/2-1} * (1+r^2)^{p/2}).
    """
    if not float(p).is_integer() or p < 3:
        raise ParameterError(f"p must be an integer >= 3, got {p}")
    check_positive(theta=theta, horizon_T=horizon_T)
    p = int(p)
    cc = chaos_constants(theta, r)
    inner = delta_convolution_inner(p, theta)
    num = inner * 2.0 ** (2 * p - 1) * math.factorial(p - 1) \
        * (cc.c1 ** p + cc.c2 ** p) * theta ** (1.5 * p)
    return num / (horizon_T ** (0.5 * p - 1) * (1.0 + r * r) ** (0.5 * p))


# ---------------------------------------------------------------------------
# Finite-horizon second moment of the chaos term
# ---------------------------------------------------------------------------

def chaos_base_variance(theta, horizon_T):
    """V(theta, T) = (2/T) * double integral of the squared covariance kernel.

    Re-derived closed form (validated against 2-d quadrature):

        V = 1/(2 theta^3) + e^{-2 theta T}/theta^3
            - (1 - e^{-2 theta T})/(2 theta^4 T)
            - (1 - e^{-4 theta T})/(8 theta^4 T).

    Its terms cancel to order (theta T)^3 / theta^3, so below theta T = 1
    V is the series T^3 sum_{j>=3} (-2)^j (j - 2^(j-1)) / (j+1)! x^(j-3),
    x = theta T (leading terms T^3 (1/3 - 8x/15 + 22x^2/45)).
    """
    check_positive(theta=theta, horizon_T=horizon_T)
    th, T = theta, horizon_T
    x = th * T
    if x < 1.0:
        return T ** 3 * sum((-2.0) ** j * (j - 2.0 ** (j - 1)) / math.factorial(j + 1)
                            * x ** (j - 3) for j in range(3, 40))
    e2 = math.exp(-2.0 * th * T)
    return (0.5 / th ** 3 + e2 / th ** 3
            + math.expm1(-2.0 * th * T) / (2.0 * th ** 4 * T)
            + math.expm1(-4.0 * th * T) / (8.0 * th ** 4 * T))


def exact_second_moment_Ar(theta, r, horizon_T):
    """Exact second moment (c1^2 + c2^2) * V(theta, T) of the chaos term;
    divided by sigma^2 it tends to 1 as T grows."""
    cc = chaos_constants(theta, r)
    return (cc.c1 ** 2 + cc.c2 ** 2) * chaos_base_variance(theta, horizon_T)


# ---------------------------------------------------------------------------
# Kernel norms
# ---------------------------------------------------------------------------

def kernel_h_norm(theta, r, horizon_T):
    """L2 norm of the kernel h_T,

        (1/(2 theta sqrt(T))) * [c1 on [0,T]^2 + c2 on [-T,0]^2] * e^{-theta|t-s|};

    increases to kernel_h_norm_limit as T grows."""
    check_positive(theta=theta, horizon_T=horizon_T)
    check_correlation(r)
    th, T = theta, horizon_T
    csq = (1.0 + r ** 2) / 2.0
    x = 2.0 * th * T
    if x < 3e-4:  # the closed form cancels to noise; its series is T (1 - x/3 + x^2/12)
        integral = T * (1.0 - x / 3.0 + x * x / 12.0)
    else:
        integral = 1.0 / th + math.expm1(-2.0 * th * T) / (2.0 * th * th * T)
    return math.sqrt(csq / (4.0 * th * th) * integral)


def kernel_h_norm_limit(theta, r):
    """Limit sqrt(1+r^2) / (2 sqrt(2) theta^{3/2}) = sigma / sqrt(2)."""
    check_positive(theta=theta)
    check_correlation(r)
    return math.sqrt(1.0 + r * r) / (2.0 * math.sqrt(2.0) * theta ** 1.5)


def kernel_g_norm(theta, r, horizon_T):
    """L2 norm sqrt(r^2+1) * (1 - e^{-2 theta T}) / (4 sqrt(2) theta^2 sqrt(T)) of
    the boundary remainder kernel g_T, h_T with e^{-theta|t-s|} replaced by
    e^{-2 theta T} e^{theta(|t|+|s|)}."""
    check_positive(theta=theta, horizon_T=horizon_T)
    check_correlation(r)
    th, T = theta, horizon_T
    return (math.sqrt(r ** 2 + 1.0) * -math.expm1(-2.0 * th * T)
            / (4.0 * math.sqrt(2.0) * th * th * math.sqrt(T)))


# ---------------------------------------------------------------------------
# Edgeworth tail and deviation bounds
# ---------------------------------------------------------------------------

def eta_constant(theta, r):
    """Edgeworth coefficient

    eta = (<delta^{*2}, delta> / sqrt(pi)) * 4 * theta^{9/2} * r(3 - r^2) / (1+r^2)^{3/2}.
    """
    check_positive(theta=theta)
    check_correlation(r)
    inner = delta_convolution_inner(3, theta)
    return (inner / math.sqrt(math.pi)) * 4.0 * theta ** 4.5 \
        * r * (3.0 - r * r) / (1.0 + r * r) ** 1.5


def edgeworth_tail(z, theta, r, horizon_T):
    """Leading CDF correction eta * (1 - z^2) * e^{-z^2/2} / sqrt(T) at fixed z."""
    check_positive(horizon_T=horizon_T)
    eta, tail = eta_constant(theta, r), math.exp(-0.5 * z * z)
    if tail == 0.0:  # then 1 - z^2 < 0, perhaps -inf: the product is -0.0*eta, not NaN
        return -0.0 * eta
    return eta * (1.0 - z * z) * tail / math.sqrt(horizon_T)


def edgeworth_kolmogorov_bound(theta, r, horizon_T):
    """Uniform bound 2|eta| / sqrt(e*T) on the CDF distance to normal.

    This is the supremum of |eta| (1+z^2) e^{-z^2/2} / sqrt(T), the majorant
    form of the tail correction (attained at z = +-1).
    """
    check_positive(horizon_T=horizon_T)
    return 2.0 * abs(eta_constant(theta, r)) / math.sqrt(math.e * horizon_T)


def major_tail_bound(n, kernel_norm, x, prefactor_C):
    """Deviation bound C * exp(-0.5 * (x / (sqrt(n!) * norm))^{2/n}) for an
    n-th order integral with the given kernel norm."""
    # sqrt(n!) is not a finite float past n = 170
    if not float(n).is_integer() or not 1 <= n <= 170:
        raise ParameterError(f"n must be an integer in [1, 170], got {n}")
    check_positive(kernel_norm=kernel_norm, x=x, prefactor_C=prefactor_C)
    ratio = x / (math.sqrt(math.factorial(int(n))) * kernel_norm)
    return prefactor_C * math.exp(-0.5 * ratio ** (2.0 / n))


def wasserstein_scale_bound(sigma):
    """Bound sqrt(2/pi) * |1 - sigma^2| on the distance of sigma*N to N."""
    check_positive(sigma=sigma)
    return math.sqrt(2.0 / math.pi) * abs(1.0 - sigma * sigma)


def denominator_lp_bound(p, theta):
    """Constant c(p, theta) bounding sqrt(T) * E|2 theta sqrt(Y11 Y22)/T - 1|^p^{1/p}:

    3 * max(2(2p-1)/theta, (p-1) sqrt(2/theta) sqrt(3 + 7/(4 theta)), 1/(2 theta)).
    """
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"p must be finite and >= 1, got {p}")
    check_positive(theta=theta)
    return 3.0 * max(2.0 * (2.0 * p - 1.0) / theta,
                     (p - 1.0) * math.sqrt(2.0 / theta) * math.sqrt(3.0 + 7.0 / (4.0 * theta)),
                     0.5 / theta)


# ---------------------------------------------------------------------------
# Standardizations used by the Monte Carlo harness
# ---------------------------------------------------------------------------

def standardize_rho(rho, theta, r, horizon_T):
    """sqrt(T) * (rho - r) / sqrt((1+r^2)/theta).

    Standard normal in the limit only at r = 0. For r != 0 its limit
    variance is (1-r^2)^2/(1+r^2) (see clt_variance_rho_delta).
    """
    return math.sqrt(horizon_T) * (np.asarray(rho) - r) / math.sqrt(clt_variance_rho(theta, r))


def standardize_numerator(num, theta, r, horizon_T):
    """(Y12/sqrt(T) - r sqrt(T)/(2 theta)) / sigma; standard normal in the limit."""
    cc = chaos_constants(theta, r)
    center = r * math.sqrt(horizon_T) / (2.0 * theta)
    return (np.asarray(num) - center) / cc.sigma


def standardize_theta_hat(theta_hat, theta, horizon_T):
    """sqrt(T) * (theta_hat - theta) / sqrt(2 theta)."""
    return math.sqrt(horizon_T) * (np.asarray(theta_hat) - theta) / math.sqrt(2.0 * theta)


def standardize_ybar(ybar, theta, horizon_T):
    """sqrt(T) * (2 theta Y11/T - 1) / sqrt(2/theta)."""
    return math.sqrt(horizon_T) * (np.asarray(ybar) - 1.0) / math.sqrt(2.0 / theta)
