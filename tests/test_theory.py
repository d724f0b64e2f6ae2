"""Closed-form constants against independent oracles: brute-force grid
convolution, 2-d quadrature of kernels, and algebraic identities."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.signal import fftconvolve

from yule_ou.errors import ParameterError
from yule_ou.sde import ou_covariance
from yule_ou.theory import (MAX_CONVOLUTION_ORDER, asymptotic_cumulant,
                            chaos_base_variance, chaos_constants, clt_variance_rho,
                            clt_variance_rho_delta, cumulant_bound_constants,
                            delta_convolution_inner,
                            edgeworth_kolmogorov_bound, edgeworth_tail,
                            eta_constant, exact_second_moment_Ar, kernel_g_norm,
                            kernel_h_norm, kernel_h_norm_limit, major_tail_bound,
                            denominator_lp_bound, wasserstein_scale_bound)


# ---------------------------------------------------------------------------
# Brute-force oracle: nested grid convolution of the exponential kernel
# ---------------------------------------------------------------------------

def conv_inner_oracle(p, theta, h=2e-3):
    """<delta^{*(p-1)}, delta> by direct convolution on a truncated grid.

    Rectangle-rule sampling on [-L, L] with L = 40/theta (tail ~ e^{-40});
    one Richardson step removes the O(h^2) error.
    """
    def value(step):
        L = 40.0 / theta
        n = int(round(2 * L / step))
        n += n % 2  # odd node count keeps 'same' convolution centered
        x = np.linspace(-L, L, n + 1)
        d = np.exp(-theta * np.abs(x)) / (2.0 * theta)
        u = d.copy()
        for _ in range(p - 2):
            u = fftconvolve(u, d, mode="same") * step
        return float(np.dot(u, d) * step)

    v1, v2 = value(h), value(h / 2)
    return v2 + (v2 - v1) / 3.0


def closed_form_inner(p, theta):
    # optional second oracle: (1/2pi) int (theta^2+w^2)^-p dw in closed form
    return math.comb(2 * p - 2, p - 1) / (2.0 ** (2 * p - 1) * theta ** (2 * p - 1))


# ---------------------------------------------------------------------------
# Rotation coefficients and variances
# ---------------------------------------------------------------------------

def test_chaos_constants_r0():
    cc = chaos_constants(1.0, 0.0)
    assert cc.c1 == pytest.approx(0.5, rel=1e-15)
    assert cc.c2 == pytest.approx(-0.5, rel=1e-15)
    assert cc.sigma == pytest.approx(0.5, rel=1e-15)


def test_chaos_constants_c2_root():
    # c2 vanishes exactly at r = 1/sqrt(3)
    cc = chaos_constants(1.0, 1.0 / math.sqrt(3.0))
    assert abs(cc.c2) < 1e-15
    assert cc.c1 == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    cc_neg = chaos_constants(1.0, -1.0 / math.sqrt(3.0))
    assert abs(cc_neg.c1) < 1e-15


def test_chaos_constants_sum_of_squares_identity():
    for r in np.linspace(-1, 1, 41):
        cc = chaos_constants(2.0, r)
        assert cc.c1 ** 2 + cc.c2 ** 2 == pytest.approx((1 + r * r) / 2, rel=1e-13)


def test_clt_variance_rho_values():
    assert clt_variance_rho(1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert clt_variance_rho(2.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_clt_variance_identity_with_sigma():
    # literal identity (1+r^2)/theta = 2 (c1^2+c2^2)/theta
    for theta in (0.5, 1.0, 3.0):
        for r in (-0.9, -0.3, 0.0, 0.4, 1.0):
            cc = chaos_constants(theta, r)
            assert clt_variance_rho(theta, r) == pytest.approx(
                2.0 * (cc.c1 ** 2 + cc.c2 ** 2) / theta, rel=1e-13)


def test_clt_variance_rho_delta_method():
    # Long-run covariance of (Y11, Y22, Y12)/T: T Cov(Y_ij, Y_kl)/T^2 tends to
    # (R_ik R_jl + R_il R_jk)/(4 theta^3), R = [[1, r], [r, 1]]; the means tend
    # to R_ij/(2 theta).  The delta method for rho = c/sqrt(ab) then gives the
    # limit variance of sqrt(T)(rho - r) as g' Sigma g.
    pairs = ((0, 0), (1, 1), (0, 1))
    for theta in (0.3, 1.0, 2.5):
        for r in (-0.9, -0.5, 0.0, 0.3, 0.5, 0.8, 1.0):
            R = np.array([[1.0, r], [r, 1.0]])
            sigma = np.array([[R[i, k] * R[j, l] + R[i, l] * R[j, k]
                               for k, l in pairs] for i, j in pairs]) / (4.0 * theta ** 3)
            a = b = 1.0 / (2.0 * theta)
            c = r / (2.0 * theta)
            root = math.sqrt(a * b)
            g = np.array([-0.5 * c / (a * root), -0.5 * c / (b * root), 1.0 / root])
            assert g @ sigma @ g == pytest.approx(clt_variance_rho_delta(theta, r),
                                                  rel=1e-12, abs=1e-12)
            if r != 0.0:
                assert clt_variance_rho(theta, r) > g @ sigma @ g
    assert clt_variance_rho_delta(1.0, 0.0) == clt_variance_rho(1.0, 0.0)
    assert clt_variance_rho_delta(1.0, 0.5) == pytest.approx(0.5625, rel=1e-15)
    with pytest.raises(ParameterError):
        clt_variance_rho_delta(0.0, 0.5)
    with pytest.raises(ParameterError):
        clt_variance_rho_delta(1.0, 1.5)


def test_cumulant_bound_constants_values():
    b1, b2 = cumulant_bound_constants(1.0, 0.0)
    assert b1 == pytest.approx(0.6328125, rel=1e-12)  # max(16/9*1/8, 81/8*1/16)
    assert b2 == pytest.approx(0.6328125, rel=1e-12)
    _, b2_root = cumulant_bound_constants(1.0, 1.0 / math.sqrt(3.0))
    assert b2_root < 1e-45
    big = cumulant_bound_constants(50.0, 0.3)
    assert max(big) < 1e-7


# ---------------------------------------------------------------------------
# Convolution inner products
# ---------------------------------------------------------------------------

def test_delta_inner_direct_values():
    assert delta_convolution_inner(2, 1.0) == pytest.approx(0.25, rel=1e-10)
    assert delta_convolution_inner(3, 1.0) == pytest.approx(0.1875, rel=1e-10)
    assert delta_convolution_inner(4, 1.0) == pytest.approx(0.15625, rel=1e-10)


def test_delta_inner_against_grid_convolution_oracle():
    for p in (2, 3, 4, 7):
        for theta in (0.5, 1.0, 2.0):
            got = delta_convolution_inner(p, theta)
            want = conv_inner_oracle(p, theta)
            assert abs(got - want) <= 1e-8 * abs(want)
            assert got == pytest.approx(closed_form_inner(p, theta), rel=1e-10)
    for p, theta in ((8, 9.0), (11, 9.0)):  # the field's mode-3 rate; values ~1e-16
        assert delta_convolution_inner(p, theta) == pytest.approx(
            closed_form_inner(p, theta), rel=1e-10, abs=0.0)


def test_delta_inner_is_the_correctly_rounded_rational():
    # B(1/2, p-1/2)/(2 pi) = C(2p-2, p-1)/2^(2p-1): the pi cancels
    from scipy.special import beta
    for p in range(2, 401):
        exact = Fraction(math.comb(2 * p - 2, p - 1), 2 ** (2 * p - 1))
        got = delta_convolution_inner(p, 1.0)
        assert got == float(exact), p
        # past p = 171, where Gamma(p) overflows, scipy's beta goes through
        # log-gamma and drifts from the exact rational (6.4e-13 at p = 334)
        rel = 1e-13 if p <= 171 else 1e-12
        assert got == pytest.approx(beta(0.5, p - 0.5) / (2.0 * math.pi), rel=rel, abs=0.0)
    assert delta_convolution_inner(3, 1.0) == 0.1875


def test_delta_inner_young_bounds():
    for theta in (0.5, 1.0, 2.0):
        assert delta_convolution_inner(3, theta) <= 2.0 / (9.0 * theta ** 5)
        assert delta_convolution_inner(4, theta) <= 27.0 / (128.0 * theta ** 7)


def test_delta_inner_scaling_law():
    for p in (2, 3, 5):
        base = delta_convolution_inner(p, 1.0)
        for theta in (0.25, 0.8, 3.0):
            got = delta_convolution_inner(p, theta)
            assert got == pytest.approx(theta ** (1 - 2 * p) * base, rel=1e-8)


def test_delta_inner_decreasing_in_p():
    values = [delta_convolution_inner(p, 1.0) for p in range(2, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_delta_inner_domain():
    with pytest.raises(ParameterError):
        delta_convolution_inner(1, 1.0)
    # the binomial's cost grows almost as p^2, so large orders are refused
    assert 0.0 < delta_convolution_inner(MAX_CONVOLUTION_ORDER, 1.0) < 1e-2
    for big in (MAX_CONVOLUTION_ORDER + 1, 1e9):
        with pytest.raises(ParameterError):
            delta_convolution_inner(big, 1.0)
    with pytest.raises(OverflowError):
        delta_convolution_inner(200, 1e-3)


@pytest.mark.parametrize("fn", [chaos_constants, clt_variance_rho, clt_variance_rho_delta,
                                eta_constant, kernel_h_norm_limit])
def test_rate_and_correlation_checked_at_entry(fn):
    for theta, r in ((1.0, math.nan), (1.0, 1.5), (1.0, -3.0), (math.nan, 0.5),
                     (math.inf, 0.5), (0.0, 0.5)):
        with pytest.raises(ParameterError):
            fn(theta, r)
    for norm in (kernel_h_norm, kernel_g_norm):
        for theta, r, T in ((1.0, math.nan, 1.0), (1.0, 2.0, 1.0), (0.0, 0.5, 1.0),
                            (1.0, 0.5, 0.0), (1.0, 0.5, math.inf)):
            with pytest.raises(ParameterError):
                norm(theta, r, T)


# ---------------------------------------------------------------------------
# Asymptotic cumulants
# ---------------------------------------------------------------------------

def test_asymptotic_cumulant_odd_parity_at_root():
    r = 1.0 / math.sqrt(3.0)
    plus = asymptotic_cumulant(3, 1.0, r, 100.0)
    minus = asymptotic_cumulant(3, 1.0, -r, 100.0)
    assert minus == pytest.approx(-plus, rel=1e-12)
    # even order: sign invariant
    assert asymptotic_cumulant(4, 1.0, -r, 100.0) == pytest.approx(
        asymptotic_cumulant(4, 1.0, r, 100.0), rel=1e-12)


def test_asymptotic_cumulant_T_scaling():
    # p=4: T * k4 independent of T; p=3: sqrt(T) * k3 independent of T
    for Ta, Tb in ((50.0, 400.0), (10.0, 1000.0)):
        assert Ta * asymptotic_cumulant(4, 1.0, 0.5, Ta) == pytest.approx(
            Tb * asymptotic_cumulant(4, 1.0, 0.5, Tb), rel=1e-12)
        assert math.sqrt(Ta) * asymptotic_cumulant(3, 1.0, 0.5, Ta) == pytest.approx(
            math.sqrt(Tb) * asymptotic_cumulant(3, 1.0, 0.5, Tb), rel=1e-12)


def test_asymptotic_cumulant_zero_skew_at_r0():
    assert asymptotic_cumulant(3, 1.0, 0.0, 100.0) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Finite-horizon second moment
# ---------------------------------------------------------------------------

def _base_variance_quadrature(theta, T):
    f = lambda s, t: ou_covariance(theta, s, t) ** 2
    val, _ = dblquad(f, 0, T, 0, lambda t: t, epsabs=1e-13, epsrel=1e-12)
    return 4.0 * val / T


def test_second_moment_matches_quadrature():
    for theta in (0.5, 1.0, 2.0):
        for T in (5.0, 20.0, 80.0):
            got = chaos_base_variance(theta, T)
            want = _base_variance_quadrature(theta, T)
            assert abs(got - want) <= 1e-8 * abs(want)


def _base_variance_decimal(theta, T):
    """The closed form of chaos_base_variance in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        th, T = decimal.Decimal(theta), decimal.Decimal(T)
        e2, e4 = (-2 * th * T).exp(), (-4 * th * T).exp()
        return float(1 / (2 * th ** 3) + e2 / th ** 3 - (1 - e2) / (2 * th ** 4 * T)
                     - (1 - e4) / (8 * th ** 4 * T))


def test_second_moment_small_theta_T():
    # the closed form cancels as theta*T -> 0 (it gave 131072.0 at theta=1e-7,
    # T=1); 50 digits resolve it down to theta*T = 1e-7
    assert chaos_base_variance(1e-7, 1.0) == pytest.approx(0.33333328, rel=1e-12)
    for theta in (1e-7, 1e-3, 0.5, 3.0):
        for x in np.logspace(-7, 1.5, 60):
            want = _base_variance_decimal(theta, x / theta)
            assert chaos_base_variance(theta, x / theta) == pytest.approx(want, rel=1e-13)


def test_second_moment_limit_and_rate():
    theta, r = 1.0, 0.5
    sigma2 = chaos_constants(theta, r).sigma ** 2
    gaps = []
    for T in (10.0, 20.0, 40.0, 80.0, 160.0, 320.0):
        gaps.append((T, abs(exact_second_moment_Ar(theta, r, T) - sigma2)))
    # |value - sigma^2| * T bounded, log-log slope -1
    scaled = [T * g for T, g in gaps]
    assert max(scaled) / min(scaled) < 1.3
    from yule_ou.mc import rate_fit
    slope, _ = rate_fit(gaps)
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_second_moment_standardized_tends_to_one():
    # deviation is the exact 1/T term: (5/4)/(theta*T) in sigma units
    sigma_sq = chaos_constants(2.0, 0.3).sigma ** 2
    assert exact_second_moment_Ar(2.0, 0.3, 500.0) / sigma_sq == pytest.approx(
        1.0 - 1.25 / 1000.0, rel=1e-9)
    assert exact_second_moment_Ar(2.0, 0.3, 2e5) / sigma_sq == pytest.approx(
        1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# Kernel norms
# ---------------------------------------------------------------------------

def kernel_h_value(theta, r, T, t, s):
    """h_T(t, s): exponential kernel on the two diagonal squares.

    (1/(2 theta sqrt(T))) * [c1 on [0,T]^2 + c2 on [-T,0]^2] * e^{-theta|t-s|}.
    """
    return _on_diagonal_squares(theta, r, T, t, s, math.exp(-theta * abs(t - s)))


def kernel_g_value(theta, r, T, t, s):
    """g_T(t, s): the boundary remainder kernel.

    (1/(2 theta sqrt(T))) * [c1 on [0,T]^2 + c2 on [-T,0]^2]
        * e^{-2 theta T} * e^{theta(|t|+|s|)}.
    """
    return _on_diagonal_squares(theta, r, T, t, s,
                                math.exp(-2.0 * theta * T + theta * (abs(t) + abs(s))))


def _on_diagonal_squares(theta, r, T, t, s, factor):
    cc = chaos_constants(theta, r)
    base = factor / (2.0 * theta * math.sqrt(T))
    if 0.0 <= t <= T and 0.0 <= s <= T:
        return cc.c1 * base
    if -T <= t <= 0.0 and -T <= s <= 0.0:
        return cc.c2 * base
    return 0.0


def _kernel_norm_quadrature(value_fn, theta, r, T):
    # both kernels are symmetric in (t, s); integrate the s < t triangle of
    # each diagonal square and double, keeping the |t-s| kink off the domain
    pos, _ = dblquad(lambda s, t: value_fn(theta, r, T, t, s) ** 2,
                     0, T, 0, lambda t: t, epsabs=1e-13, epsrel=1e-12)
    neg, _ = dblquad(lambda s, t: value_fn(theta, r, T, t, s) ** 2,
                     -T, 0, -T, lambda t: t, epsabs=1e-13, epsrel=1e-12)
    return math.sqrt(2.0 * (pos + neg))


def test_kernel_h_norm_limit_value():
    assert kernel_h_norm_limit(1.0, 0.0) == pytest.approx(1.0 / (2 * math.sqrt(2)),
                                                          rel=1e-12)
    # equals sigma / sqrt(2)
    for theta, r in ((0.5, 0.3), (2.0, -0.8)):
        cc = chaos_constants(theta, r)
        assert kernel_h_norm_limit(theta, r) == pytest.approx(cc.sigma / math.sqrt(2),
                                                              rel=1e-12)
    assert kernel_h_norm_limit(1.3, 1.0) == pytest.approx(kernel_h_norm_limit(1.3, -1.0),
                                                          rel=1e-15)


def test_kernel_h_norm_monotone_below_limit():
    for theta, r in ((1.0, 0.0), (0.7, 0.5)):
        limit = kernel_h_norm_limit(theta, r)
        prev = 0.0
        for T in (1.0, 2.0, 5.0, 20.0, 100.0):
            val = kernel_h_norm(theta, r, T)
            assert prev < val < limit
            prev = val


def test_kernel_h_norm_against_quadrature():
    for spec in ((1.0, 0.0, 2.0), (0.5, 0.6, 4.0)):
        want = _kernel_norm_quadrature(kernel_h_value, *spec)
        assert kernel_h_norm(*spec) == pytest.approx(want, rel=1e-8)


def test_kernel_h_norm_small_theta_T():
    # ||h_T||^2 -> (1+r^2)/2 * T / (4 theta^2) as theta*T -> 0, where the
    # closed form cancels and can turn negative
    for theta in (1e-12, 3.9e-54):
        want = math.sqrt((1.0 + 0.3 ** 2) / 2.0 * 9.0 / (4.0 * theta * theta))
        assert kernel_h_norm(theta, 0.3, 9.0) == pytest.approx(want, rel=1e-10)
    # continuous across the switch to the series at 2 theta T = 3e-4
    below, above = (kernel_h_norm(1.5e-4 * f, 0.3, 1.0) for f in (1 - 1e-9, 1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-8)


def test_kernel_g_norm_value_and_quadrature():
    spec = (1.0, 0.0, 1.0)
    assert kernel_g_norm(*spec) == pytest.approx((1 - math.exp(-2)) / (4 * math.sqrt(2)),
                                                 rel=1e-12)
    assert kernel_g_norm(*spec) == pytest.approx(0.152853, abs=1e-6)
    for s in (spec, (2.0, -0.4, 1.5)):
        want = _kernel_norm_quadrature(kernel_g_value, *s)
        assert kernel_g_norm(*s) == pytest.approx(want, rel=1e-8)


def test_kernel_g_norm_large_T_scaling():
    theta, r = 1.0, 0.3
    for T in (1e3, 1e5):
        val = kernel_g_norm(theta, r, T)
        assert math.sqrt(T) * val == pytest.approx(
            math.sqrt(r * r + 1) / (4 * math.sqrt(2) * theta ** 2), rel=1e-9)


# ---------------------------------------------------------------------------
# Edgeworth tail
# ---------------------------------------------------------------------------

def test_eta_values():
    assert eta_constant(1.0, 0.0) == 0.0
    # composition with the p=3 inner product value 0.1875
    want = (0.1875 / math.sqrt(math.pi)) * 4.0 * (1.0 * 2.0) / 2.0 ** 1.5
    assert eta_constant(1.0, 1.0) == pytest.approx(want, rel=1e-10)
    assert eta_constant(1.0, 1.0) == pytest.approx(0.29920, abs=2e-5)


def test_eta_odd_in_r():
    for r in (0.2, 0.7, 1.0):
        assert eta_constant(1.0, -r) == pytest.approx(-eta_constant(1.0, r), rel=1e-12)


def test_edgeworth_tail_structure():
    theta, r, T = 1.0, 0.5, 100.0
    assert edgeworth_tail(1.0, theta, r, T) == 0.0
    assert edgeworth_tail(-1.0, theta, r, T) == 0.0
    assert edgeworth_tail(0.0, theta, r, T) == pytest.approx(
        eta_constant(theta, r) / math.sqrt(T), rel=1e-12)


def test_edgeworth_kolmogorov_bound_dominates():
    theta, r, T = 1.0, 0.5, 50.0
    eta = eta_constant(theta, r)
    bound = edgeworth_kolmogorov_bound(theta, r, T)
    # equality with the (1+z^2) majorant's supremum, attained at z = +-1
    majorant = max(abs(eta) * (1 + z * z) * math.exp(-0.5 * z * z) / math.sqrt(T)
                   for z in np.linspace(-6, 6, 2401))
    assert bound == pytest.approx(2 * abs(eta) / math.sqrt(math.e * T), rel=1e-12)
    assert bound == pytest.approx(majorant, rel=1e-6)
    # and it dominates the pointwise correction everywhere
    for z in np.linspace(-6, 6, 241):
        assert abs(edgeworth_tail(z, theta, r, T)) <= bound + 1e-15


# ---------------------------------------------------------------------------
# Deviation bounds
# ---------------------------------------------------------------------------

def test_major_tail_bound_values():
    # n=2 with sqrt(2)*norm = 1 and x=2 -> C * exp(-1)
    assert major_tail_bound(2, 1 / math.sqrt(2), 2.0, 3.0) == pytest.approx(
        3.0 * math.exp(-1.0), rel=1e-12)
    # n=1: Gaussian-type exponent x^2/(2 norm^2)
    assert major_tail_bound(1, 0.5, 1.0, 1.0) == pytest.approx(
        math.exp(-0.5 * (1.0 / 0.5) ** 2), rel=1e-12)


def test_major_tail_bound_order_range():
    # sqrt(n!) is a finite float up to n = 170 only
    assert 0.0 < major_tail_bound(170, 1e-100, 1.0, 1.0) <= 1.0
    for n in (0, 171, 1e6, math.inf, math.nan):
        with pytest.raises(ParameterError):
            major_tail_bound(n, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("prefactor", [-1.0, 0.0, math.nan, math.inf])
def test_major_tail_bound_refuses_a_prefactor_that_is_not_positive(prefactor):
    with pytest.raises(ParameterError, match="prefactor_C"):
        major_tail_bound(2, 1.0, 1.0, prefactor)


def test_major_tail_bound_monotone_in_x():
    vals = [major_tail_bound(2, 1.0, x, 1.0) for x in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_wasserstein_scale_bound():
    assert wasserstein_scale_bound(1.0) == 0.0
    assert wasserstein_scale_bound(2.0) == pytest.approx(3 * math.sqrt(2 / math.pi),
                                                         rel=1e-12)


def test_denominator_lp_bound_values():
    assert denominator_lp_bound(1.0, 1.0) == pytest.approx(6.0, rel=1e-12)
    # p=1, theta=1: 3*max(2, 0, 0.5)
    assert denominator_lp_bound(2.0, 1.0) == pytest.approx(
        3.0 * max(6.0, math.sqrt(2) * math.sqrt(3.75), 0.5), rel=1e-12)


def test_denominator_bound_mc():
    # E|2 theta sqrt(Y11 Y22)/T - 1| <= c(1,theta)/sqrt(T)
    from yule_ou.mc import pair_sample
    for T in (100.0, 400.0):
        s = pair_sample(1.0, 0.0, T, replications=500, base_seed=77)
        val = np.abs(2.0 * np.sqrt(s.y11 * s.y22) / T - 1.0).mean()
        assert val <= denominator_lp_bound(1.0, 1.0) / math.sqrt(T)
