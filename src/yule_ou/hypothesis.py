"""Independence tests for the pair, confidence intervals for r, the field
test's per-mode level and product bound, and explicit type-II error bounds.

Each test variant has one two-sided rejection rule, with
q = upper_quantile(alpha/2):

    rho, known theta:      |sqrt(T) rho|     > q / sqrt(theta)
    rho, estimated theta:  |sqrt(T that) rho| > q
    numerator:             |Y12 / sqrt(T)|   > q / (2 theta^{3/2})

`variant_statistic`, `critical_value` and `decide` hold it for one pair's
YuleStatistics and a Monte Carlo PairSample's arrays alike.  Ties never
reject (a measure-zero event, resolved deterministically).  The field test
applies the rule to each Fourier mode k at theta = k^2 and rejects on any
mode; it lives in `mc.spde_family_rejections`, beside the engine that
simulates the modes.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateStatisticError, ParameterError, check_level, check_positive
from .gaussian import upper_quantile
from .theory import chaos_constants


class TestVariant(str, Enum):
    RHO_KNOWN_THETA = "rho_known_theta"
    RHO_ESTIMATED_THETA = "rho_estimated_theta"
    NUMERATOR_KNOWN_THETA = "numerator_known_theta"

    @classmethod
    def _missing_(cls, value):
        raise ParameterError(f"unknown test variant {value!r}")


class ThetaMode(str, Enum):
    KNOWN = "known"
    ESTIMATED = "estimated"


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    threshold: float
    alpha: float
    reject: bool
    variant: TestVariant

    def to_dict(self):
        return {"statistic": self.statistic, "threshold": self.threshold,
                "alpha": self.alpha, "reject": self.reject,
                "variant": self.variant.value}


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    alpha: float
    theta_mode: ThetaMode

    def contains(self, value):
        return self.lower <= value <= self.upper

    def to_dict(self):
        return {"lower": self.lower, "upper": self.upper,
                "alpha": self.alpha, "theta_mode": self.theta_mode.value}


def variant_statistic(stats, variant):
    """The variant's statistic from an object with horizon_T, rho, theta_hat, y12."""
    variant = TestVariant(variant)
    if variant is TestVariant.RHO_KNOWN_THETA:
        return math.sqrt(stats.horizon_T) * stats.rho
    if variant is TestVariant.RHO_ESTIMATED_THETA:
        if not np.all((stats.theta_hat > 0) & np.isfinite(stats.theta_hat)):
            raise DegenerateStatisticError("degenerate theta estimate")
        return np.sqrt(stats.horizon_T * stats.theta_hat) * stats.rho
    return stats.y12 / math.sqrt(stats.horizon_T)


def critical_value(variant, alpha, theta=None):
    """The variant's threshold at level alpha; theta is the known rate."""
    check_level(alpha)
    variant = TestVariant(variant)
    q = upper_quantile(alpha / 2.0)
    if variant is TestVariant.RHO_ESTIMATED_THETA:
        return q
    if theta is None:
        raise ParameterError("theta must be given for this variant")
    check_positive(theta=theta)
    if variant is TestVariant.RHO_KNOWN_THETA:
        return q / math.sqrt(theta)
    return q / (2.0 * theta ** 1.5)


def decide(statistic, variant, alpha, theta=None):
    """(threshold, rejection flags) of the variant for a statistic or an array of them."""
    threshold = critical_value(variant, alpha, theta)
    return threshold, np.abs(statistic) > threshold


def _outcome(statistic, variant, alpha, theta):
    threshold, reject = decide(statistic, variant, alpha, theta)
    return TestOutcome(statistic=float(statistic), threshold=float(threshold),
                       alpha=alpha, reject=bool(reject), variant=TestVariant(variant))


# ---------------------------------------------------------------------------
# Single-pair tests
# ---------------------------------------------------------------------------

def apply_test(stats, variant, alpha, theta=None):
    """TestOutcome of the variant on one pair's YuleStatistics."""
    return _outcome(variant_statistic(stats, variant), variant, alpha, theta)


def rho_test(stats, theta, alpha):
    """Known-rate test on sqrt(T)*rho against q_{alpha/2}/sqrt(theta)."""
    return apply_test(stats, TestVariant.RHO_KNOWN_THETA, alpha, theta)


def rho_test_estimated_theta(stats, alpha):
    """Plug-in test on sqrt(T*theta_hat)*rho against q_{alpha/2}."""
    return apply_test(stats, TestVariant.RHO_ESTIMATED_THETA, alpha)


def numerator_test(num_stat, theta, alpha):
    """Test on the scaled cross functional Y12/sqrt(T) itself."""
    return _outcome(num_stat, TestVariant.NUMERATOR_KNOWN_THETA, alpha, theta)


def confidence_interval_r(stats, alpha, theta_mode=ThetaMode.ESTIMATED, theta=None):
    """Asymptotic level-(1-alpha) interval rho +- q sqrt(1+rho^2)/sqrt(theta T)."""
    check_level(alpha)
    mode = ThetaMode(theta_mode)
    if mode is ThetaMode.KNOWN:
        if theta is None:
            raise ParameterError("known mode requires a positive theta")
        check_positive(theta=theta)
        scale = theta
    else:
        scale = stats.theta_hat
        if not scale > 0 or not math.isfinite(scale):
            raise DegenerateStatisticError("degenerate theta estimate")
    half = upper_quantile(alpha / 2.0) * math.sqrt(1.0 + stats.rho ** 2) \
        / math.sqrt(scale * stats.horizon_T)
    return ConfidenceInterval(lower=stats.rho - half, upper=stats.rho + half,
                              alpha=alpha, theta_mode=mode)


# ---------------------------------------------------------------------------
# Field test level
# ---------------------------------------------------------------------------

def sidak_level(alpha, n_modes):
    """Per-mode level 1 - (1-alpha)^(1/N) equalizing the family rate to alpha."""
    check_level(alpha)
    if not float(n_modes).is_integer() or n_modes < 1:
        raise ParameterError(f"n_modes must be an integer >= 1, got {n_modes}")
    return 1.0 - (1.0 - alpha) ** (1.0 / n_modes)


# ---------------------------------------------------------------------------
# Type-II error bounds
# ---------------------------------------------------------------------------

def type2_bound_rho(theta, r, alpha, horizon_T, berry_constant):
    """Bound on the miss probability of the known-rate rho test.

    Sum of the explicit Gaussian-tail term

        (2 c / (sigma sqrt(2 pi))) * exp(-((c - |r| sqrt(T)) / sigma)^2 / 2),
        c = q_{alpha/2} / sqrt(theta),

    and the caller-calibrated normal-approximation term berry_constant * T^{-1/4}.
    """
    if r == 0.0:
        raise ParameterError("bound is defined under the alternative (r != 0)")
    check_positive(horizon_T=horizon_T)
    if not 0.0 <= berry_constant < math.inf:
        raise ParameterError("berry_constant must be nonnegative and finite")
    sigma = chaos_constants(theta, r).sigma
    c = critical_value(TestVariant.RHO_KNOWN_THETA, alpha, theta)
    z = (c - abs(r) * math.sqrt(horizon_T)) / sigma
    tail = 2.0 * c / (sigma * math.sqrt(2.0 * math.pi)) * math.exp(-0.5 * z * z)
    return tail + berry_constant * horizon_T ** -0.25


def type2_bound_numerator(theta, r, alpha, horizon_T, berry_constant):
    """Bound on the miss probability of the numerator test.

    Gaussian-tail term sqrt(2/pi) * (c/sigma) * exp(-((c - |r| sqrt(T)/(2 theta))/sigma)^2/2)
    with c = q_{alpha/2}/(2 theta^{3/2}), plus berry_constant * ln(T)/sqrt(T).
    Requires T > e so the log factor exceeds one.
    """
    if r == 0.0:
        raise ParameterError("bound is defined under the alternative (r != 0)")
    if not math.e < horizon_T < math.inf:
        raise ParameterError("horizon_T must exceed e and be finite")
    if not 0.0 <= berry_constant < math.inf:
        raise ParameterError("berry_constant must be nonnegative and finite")
    sigma = chaos_constants(theta, r).sigma
    c = critical_value(TestVariant.NUMERATOR_KNOWN_THETA, alpha, theta)
    z = (c - abs(r) * math.sqrt(horizon_T) / (2.0 * theta)) / sigma
    tail = math.sqrt(2.0 / math.pi) * (c / sigma) * math.exp(-0.5 * z * z)
    return tail + berry_constant * math.log(horizon_T) / math.sqrt(horizon_T)


def numerator_bound_valid_from(theta, r, alpha):
    """Horizon 4 theta^2 c_alpha^2 / r^2 past which the numerator tail term applies."""
    if r == 0.0:
        raise ParameterError("undefined at r = 0")
    c = critical_value(TestVariant.NUMERATOR_KNOWN_THETA, alpha, theta)
    return 4.0 * theta * theta * c * c / (r * r)


def calibrate_berry_constant(kind, theta, r, alpha, horizon_T, empirical_beta):
    """Fit berry_constant from one empirical miss rate at a small horizon.

    Solves tail(T) + berry * rate(T) = empirical_beta for berry, floored at 0.
    kind is "rho" (rate T^{-1/4}) or "numerator" (rate ln(T)/sqrt(T)).
    """
    if kind == "rho":
        tail = type2_bound_rho(theta, r, alpha, horizon_T, 0.0)
        rate = horizon_T ** -0.25
    elif kind == "numerator":
        tail = type2_bound_numerator(theta, r, alpha, horizon_T, 0.0)
        rate = math.log(horizon_T) / math.sqrt(horizon_T)
    else:
        raise ParameterError(f"unknown bound kind {kind!r}")
    return max(0.0, (empirical_beta - tail) / rate)


def spde_type2_bound(per_mode_bounds):
    """Product of per-mode miss bounds, each clamped to at most one."""
    bounds = [float(b) for b in per_mode_bounds]
    if not bounds:
        raise ParameterError("empty bound sequence")
    if any(b < 0 for b in bounds):
        raise ParameterError("bounds must be nonnegative")
    product = 1.0
    for b in bounds:
        product *= min(b, 1.0)
    return product


def write_outcomes_csv(fileobj, rows, header_comment=None):
    """Write batch test outcomes as `variant,alpha,theta,r,T,statistic,threshold,reject`.

    Each row is (variant, alpha, theta, r, T, outcome).
    """
    if header_comment:
        fileobj.write(f"# {header_comment}\n")
    fileobj.write("variant,alpha,theta,r,T,statistic,threshold,reject\n")
    for variant, alpha, theta, r, horizon_T, out in rows:
        name = TestVariant(variant).value
        fileobj.write(f"{name},{alpha:.17g},{theta:.17g},{r:.17g},{horizon_T:.17g},"
                      f"{out.statistic:.17g},{out.threshold:.17g},{int(out.reject)}\n")
