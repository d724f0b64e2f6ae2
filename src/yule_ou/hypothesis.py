"""Independence tests for the pair, confidence intervals for r, the field
test's per-mode level and product bound, and explicit type-II error bounds.

Each test variant has one two-sided rejection rule, with
q = upper_quantile(alpha/2):

    rho, known theta:      |sqrt(T) rho|     > q / sqrt(theta)
    rho, estimated theta:  |sqrt(T that) rho| > q
    numerator:             |Y12 / sqrt(T)|   > q / (2 theta^{3/2})

`variant_statistic` reads the statistic from a YuleStatistics and
`critical_value` gives the threshold; `decide` is the only code that
compares them.  Its TestOutcome holds scalars for one pair and arrays,
one entry per replication, for a Monte Carlo PairSample (a YuleStatistics
batch).  Ties never reject (a measure-zero event, resolved
deterministically).  The field test applies the rule to each Fourier
mode k at theta = k^2 and rejects on any mode; it lives in
`mc.spde_family_rejections`, beside the engine that simulates the modes.

The two known-rate variants have a type-II bound, one formula
sqrt(2/pi) (c/sigma) exp(-((c - shift)/sigma)^2/2) + berry * rate(T) at
each test's threshold c, centre shift under the alternative and
approximation rate; `calibrate_berry_constant` names its test by the
TestVariant, as every other entry point does.
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


@dataclass(frozen=True)
class TestOutcome:
    """A test's decision: statistic and reject are a float and a bool for
    one pair, arrays with one entry per replication for a sample."""

    statistic: float | np.ndarray
    threshold: float
    alpha: float
    reject: bool | np.ndarray
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


def variant_statistic(stats, variant):
    """The variant's statistic from a YuleStatistics, a pair's or a sample's."""
    variant = TestVariant(variant)
    if stats.rho is None:
        raise ParameterError("the tests read x2, which a one-path sample lacks")
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
    """TestOutcome of the variant for one statistic or an array of them."""
    threshold = critical_value(variant, alpha, theta)
    reject = np.abs(statistic) > threshold
    if np.ndim(statistic) == 0:
        statistic, reject = float(statistic), bool(reject)
    return TestOutcome(statistic=statistic, threshold=float(threshold), alpha=alpha,
                       reject=reject, variant=TestVariant(variant))


# ---------------------------------------------------------------------------
# Single-pair tests
# ---------------------------------------------------------------------------

def apply_test(stats, variant, alpha, theta=None):
    """TestOutcome of the variant on a YuleStatistics, a pair's or a sample's."""
    return decide(variant_statistic(stats, variant), variant, alpha, theta)


def rho_test(stats, theta, alpha):
    """Known-rate test on sqrt(T)*rho against q_{alpha/2}/sqrt(theta)."""
    return apply_test(stats, TestVariant.RHO_KNOWN_THETA, alpha, theta)


def rho_test_estimated_theta(stats, alpha):
    """Plug-in test on sqrt(T*theta_hat)*rho against q_{alpha/2}."""
    return apply_test(stats, TestVariant.RHO_ESTIMATED_THETA, alpha)


def numerator_test(num_stat, theta, alpha):
    """Test on the scaled cross functional Y12/sqrt(T) itself."""
    return decide(num_stat, TestVariant.NUMERATOR_KNOWN_THETA, alpha, theta)


def confidence_interval_r(stats, alpha, theta=None):
    """Asymptotic level-(1-alpha) interval rho +- q sqrt(1+rho^2)/sqrt(theta T),
    at the known rate theta, or at stats.theta_hat when theta is None."""
    check_level(alpha)
    if theta is None:
        theta = stats.theta_hat
        if not theta > 0 or not math.isfinite(theta):
            raise DegenerateStatisticError("degenerate theta estimate")
    else:
        check_positive(theta=theta)
    half = upper_quantile(alpha / 2.0) * math.sqrt(1.0 + stats.rho ** 2) \
        / math.sqrt(theta * stats.horizon_T)
    return ConfidenceInterval(lower=stats.rho - half, upper=stats.rho + half, alpha=alpha)


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

def _type2_bound(variant, theta, r, alpha, horizon_T, berry_constant):
    """(bound, rate) of the variant's miss-probability bound

        sqrt(2/pi) (c/sigma) exp(-((c - shift)/sigma)^2 / 2) + berry_constant * rate,

    with c the test's threshold, shift the centre of its statistic under
    the alternative and rate that of its normal approximation.  Only the
    known-rate variants have one.
    """
    variant = TestVariant(variant)
    if r == 0.0:
        raise ParameterError("bound is defined under the alternative (r != 0)")
    if variant is TestVariant.RHO_KNOWN_THETA:
        check_positive(horizon_T=horizon_T)
        shift, rate = abs(r) * math.sqrt(horizon_T), horizon_T ** -0.25
    elif variant is TestVariant.NUMERATOR_KNOWN_THETA:
        if not math.e < horizon_T < math.inf:
            raise ParameterError("horizon_T must exceed e and be finite")
        shift = abs(r) * math.sqrt(horizon_T) / (2.0 * theta)
        rate = math.log(horizon_T) / math.sqrt(horizon_T)
    else:
        raise ParameterError(f"{variant.value} has no type-II bound")
    if not 0.0 <= berry_constant < math.inf:
        raise ParameterError("berry_constant must be nonnegative and finite")
    sigma = chaos_constants(theta, r).sigma
    c = critical_value(variant, alpha, theta)
    z = (c - shift) / sigma
    tail = math.sqrt(2.0 / math.pi) * (c / sigma) * math.exp(-0.5 * z * z)
    return tail + berry_constant * rate, rate


def type2_bound_rho(theta, r, alpha, horizon_T, berry_constant):
    """Bound on the miss probability of the known-rate rho test: the tail at
    c = q_{alpha/2}/sqrt(theta) and shift |r| sqrt(T), plus berry_constant * T^{-1/4}.
    A bound of 1 or more is vacuous; it is returned as computed."""
    return _type2_bound(TestVariant.RHO_KNOWN_THETA, theta, r, alpha, horizon_T,
                        berry_constant)[0]


def type2_bound_numerator(theta, r, alpha, horizon_T, berry_constant):
    """Bound on the miss probability of the numerator test: the tail at
    c = q_{alpha/2}/(2 theta^{3/2}) and shift |r| sqrt(T)/(2 theta), plus
    berry_constant * ln(T)/sqrt(T).  Requires T > e so the log factor exceeds one.
    A bound of 1 or more is vacuous; it is returned as computed.
    """
    return _type2_bound(TestVariant.NUMERATOR_KNOWN_THETA, theta, r, alpha, horizon_T,
                        berry_constant)[0]


def numerator_bound_valid_from(theta, r, alpha):
    """Horizon 4 theta^2 c_alpha^2 / r^2 past which the numerator tail term applies."""
    if r == 0.0:
        raise ParameterError("undefined at r = 0")
    c = critical_value(TestVariant.NUMERATOR_KNOWN_THETA, alpha, theta)
    return 4.0 * theta * theta * c * c / (r * r)


def calibrate_berry_constant(variant, theta, r, alpha, horizon_T, empirical_beta):
    """Fit berry_constant from one empirical miss rate at a small horizon.

    Solves tail(T) + berry * rate(T) = empirical_beta for berry, floored at 0.
    variant is "rho_known_theta" (rate T^{-1/4}) or "numerator_known_theta"
    (rate ln(T)/sqrt(T)).  empirical_beta is a miss rate, so it must lie in
    [0, 1].  A horizon whose tail alone is 1 or more is refused: there the
    bound is vacuous and every miss rate would floor the constant at 0.
    """
    if not 0.0 <= empirical_beta <= 1.0:
        raise ParameterError(f"empirical_beta must lie in [0, 1], got {empirical_beta}")
    tail, rate = _type2_bound(variant, theta, r, alpha, horizon_T, 0.0)
    if not tail < 1.0:
        raise ParameterError(f"the tail term alone is {tail:.6g} >= 1 at horizon_T = "
                             f"{horizon_T}: the bound is vacuous there")
    return max(0.0, (empirical_beta - tail) / rate)


def spde_type2_bound(per_mode_bounds):
    """Product of per-mode miss bounds, each clamped to at most one."""
    bounds = [float(b) for b in per_mode_bounds]
    if not bounds:
        raise ParameterError("empty bound sequence")
    if not all(0.0 <= b < math.inf for b in bounds):
        raise ParameterError("bounds must be nonnegative and finite")
    product = 1.0
    for b in bounds:
        product *= min(b, 1.0)
    return product


def write_outcomes_csv(fileobj, columns):
    """Write test outcomes as `variant,alpha,theta,r,T,statistic,threshold,reject`.

    Each column is (theta, r, T, outcome).  A pair's outcome gives one row
    and a sample's one row per replication; the rows go replication by
    replication, through the columns in turn.
    """
    fileobj.write("variant,alpha,theta,r,T,statistic,threshold,reject\n")
    fixed = [(f"{out.variant.value},{out.alpha:.17g},{theta:.17g},{r:.17g},{horizon_T:.17g}",
              f"{out.threshold:.17g}") for theta, r, horizon_T, out in columns]
    series = [zip(np.atleast_1d(out.statistic).tolist(), np.atleast_1d(out.reject).tolist())
              for *_, out in columns]
    for row in zip(*series):
        for (head, threshold), (statistic, reject) in zip(fixed, row):
            fileobj.write(f"{head},{statistic:.17g},{threshold},{int(reject)}\n")
