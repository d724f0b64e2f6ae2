"""Independence tests: thresholds, decision logic, intervals, the
multi-mode field test (mc.spde_family_rejections on engine samples), and
the explicit type-II bounds."""

import io
import math

import numpy as np
import pytest

from yule_ou.errors import ParameterError
from yule_ou.estimators import PathPair, YuleStatistics, yule_rho
from yule_ou.hypothesis import (TestVariant, calibrate_berry_constant,
                                confidence_interval_r, critical_value, decide,
                                numerator_bound_valid_from, numerator_test, rho_test,
                                rho_test_estimated_theta, sidak_level, spde_type2_bound,
                                type2_bound_numerator, type2_bound_rho, variant_statistic,
                                write_outcomes_csv)
from yule_ou.mc import rejections, spde_family_rejections, spde_mode_samples
from yule_ou.sde import CorrelatedPairConfig, SamplePath, simulate_correlated_pair

Q975 = 1.959963984540054


def _stats(rho=0.2, theta_hat=1.0, T=100.0):
    scale = T / (2.0 * theta_hat)
    return YuleStatistics(y11=scale, y22=scale, y12=rho * scale, rho=rho,
                          theta_hat=theta_hat, horizon_T=T)


# ---------------------------------------------------------------------------
# Thresholds and basic decisions
# ---------------------------------------------------------------------------

def test_rho_test_threshold():
    out = rho_test(_stats(), theta=4.0, alpha=0.05)
    assert out.threshold == pytest.approx(Q975 / 2.0, abs=1e-9)
    assert out.threshold == pytest.approx(0.979982, abs=1e-6)
    assert out.statistic == pytest.approx(math.sqrt(100.0) * 0.2, rel=1e-12)


def test_rho_test_zero_never_rejects():
    for alpha in (0.9, 0.5, 0.05, 1e-6):
        assert not rho_test(_stats(rho=0.0), theta=1.0, alpha=alpha).reject


def test_tie_does_not_reject():
    stats = _stats(rho=0.1, T=100.0)
    out = rho_test(stats, theta=1.0, alpha=0.05)
    tie = YuleStatistics(y11=stats.y11, y22=stats.y22, y12=stats.y12,
                         rho=out.threshold / 10.0, theta_hat=1.0, horizon_T=100.0)
    assert not rho_test(tie, theta=1.0, alpha=0.05).reject


def test_alpha_monotonicity():
    stats = _stats(rho=0.15, T=200.0)
    rejected = False
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.3, 0.6):
        now = rho_test(stats, theta=1.0, alpha=alpha).reject
        assert now or not rejected  # raising alpha never flips reject -> accept
        rejected = rejected or now


def test_estimated_theta_threshold_and_equivalence():
    out = rho_test_estimated_theta(_stats(theta_hat=3.0), alpha=0.05)
    assert out.threshold == pytest.approx(1.959964, abs=1e-6)
    # when theta_hat equals the true theta the two regions agree
    for rho in (-0.4, 0.01, 0.18, 0.6):
        stats = _stats(rho=rho, theta_hat=2.5, T=150.0)
        a = rho_test(stats, theta=2.5, alpha=0.05)
        b = rho_test_estimated_theta(stats, alpha=0.05)
        assert a.reject == b.reject


def test_numerator_test_threshold():
    out = numerator_test(0.1, theta=1.0, alpha=0.05)
    assert out.threshold == pytest.approx(0.979982, abs=1e-6)
    assert not numerator_test(0.0, theta=2.0, alpha=0.05).reject


@pytest.mark.parametrize("variant", list(TestVariant))
def test_decide_on_an_array_is_decide_on_each_element(variant):
    threshold = critical_value(variant, 0.05, 4.0)
    above = np.nextafter(threshold, np.inf)
    values = np.array([0.0, -3.0, 3.0, 0.1, -0.1, threshold, -threshold, above, -above])
    batch = decide(values, variant, 0.05, 4.0)
    assert batch.reject.dtype == bool and batch.reject.shape == values.shape
    for j, value in enumerate(values):
        one = decide(float(value), variant, 0.05, 4.0)
        assert type(one.statistic) is float and type(one.reject) is bool
        assert (one.statistic, one.threshold, one.reject, one.alpha, one.variant) == \
            (batch.statistic[j], batch.threshold, batch.reject[j], batch.alpha, batch.variant)
    # a tie never rejects; the next double up does
    assert batch.reject[5:].tolist() == [False, False, True, True]


def test_invalid_alpha():
    for alpha in (0.0, 1.0, -1.0):
        with pytest.raises(ParameterError):
            rho_test(_stats(), theta=1.0, alpha=alpha)
        with pytest.raises(ParameterError):
            numerator_test(0.1, theta=1.0, alpha=alpha)


def test_scale_invariance_of_known_theta_decision():
    cfg = CorrelatedPairConfig(theta=1.0, r=0.5, horizon_T=50.0, dt=0.05, seed=2)
    pair = simulate_correlated_pair(cfg)
    base = rho_test(yule_rho(pair), theta=1.0, alpha=0.05)
    for a, c in ((2.0, 3.0), (0.1, 7.0), (5.0, 0.2)):
        scaled = PathPair(x1=SamplePath(0.0, pair.x1.dt, a * pair.x1.values),
                          x2=SamplePath(0.0, pair.x2.dt, c * pair.x2.values))
        out = rho_test(yule_rho(scaled), theta=1.0, alpha=0.05)
        assert out.reject == base.reject
        assert out.statistic == pytest.approx(base.statistic, rel=1e-10)


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def test_ci_half_width_known_theta():
    ci = confidence_interval_r(_stats(rho=0.0, T=400.0), alpha=0.05, theta=1.0)
    half = (ci.upper - ci.lower) / 2.0
    assert half == pytest.approx(Q975 / 20.0, rel=1e-9)
    assert half == pytest.approx(0.097998, abs=1e-6)
    assert (ci.lower + ci.upper) / 2.0 == pytest.approx(0.0, abs=1e-15)


def test_ci_width_scales_with_rho():
    flat = confidence_interval_r(_stats(rho=0.0), 0.05, theta=1.0)
    peak = confidence_interval_r(_stats(rho=1.0), 0.05, theta=1.0)
    ratio = (peak.upper - peak.lower) / (flat.upper - flat.lower)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_ci_estimated_theta_uses_theta_hat():
    stats = _stats(rho=0.1, theta_hat=4.0, T=100.0)
    known = confidence_interval_r(stats, 0.05, theta=4.0)
    est = confidence_interval_r(stats, 0.05)
    assert known.lower == pytest.approx(est.lower, rel=1e-12)
    assert known.upper == pytest.approx(est.upper, rel=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
def test_ci_refuses_a_known_theta_outside_its_domain(theta):
    with pytest.raises(ParameterError, match="theta must be positive and finite"):
        confidence_interval_r(_stats(), 0.05, theta=theta)


def test_ci_coverage_mc():
    """Empirical coverage of the known-theta interval.

    At r=0 the interval is asymptotically exact (coverage -> 0.95).  Under
    the alternative the sqrt(1+rho^2) width is conservative: the true
    sampling sd of rho is (1-r^2)/sqrt(theta T), so coverage approaches
    2*Phi(q*sqrt(1+r^2)/(1-r^2)) - 1 ~= 0.9965 at r=0.5.
    """
    from yule_ou.mc import pair_sample
    from yule_ou.gaussian import norm_cdf
    reps = 1000
    for r, lo_expect, hi_expect in ((0.0, 0.93, 0.97), (0.5, 0.985, 1.0)):
        s = pair_sample(1.0, r, 500.0, replications=reps, base_seed=101)
        half = Q975 * np.sqrt(1.0 + s.rho ** 2) / math.sqrt(1.0 * s.horizon_T)
        covered = np.mean(np.abs(s.rho - r) <= half)
        assert lo_expect <= covered <= hi_expect, (r, covered)
    # sanity: the r=0.5 prediction itself
    predicted = 2 * norm_cdf(Q975 * math.sqrt(1.25) / 0.75) - 1
    assert predicted == pytest.approx(0.9965, abs=5e-4)


# ---------------------------------------------------------------------------
# Multi-mode test
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def field():
    """Three engine modes (theta = 1, 4, 9) under a weak alternative, r = 0.1,
    so every mode has both outcomes."""
    return spde_mode_samples(3, 0.1, 10.0, replications=100, base_seed=6)


def test_multimode_single_mode_reduction(field):
    (outcome,), family = spde_family_rejections(field[:1], 0.05)
    flags = rejections(field[0], "rho_known_theta", 0.05)
    assert outcome.reject.shape == (100,)
    np.testing.assert_array_equal(outcome.reject, flags)
    np.testing.assert_array_equal(family, flags)
    # each replication's flag is the single-pair test on its statistics
    for j in range(100):
        stats = YuleStatistics(y11=float(field[0].y11[j]), y22=float(field[0].y22[j]),
                               y12=float(field[0].y12[j]), rho=float(field[0].rho[j]),
                               theta_hat=float(field[0].theta_hat[j]),
                               horizon_T=field[0].horizon_T)
        assert rho_test(stats, theta=1.0, alpha=0.05).reject == flags[j]


def test_multimode_thresholds_scale_as_inverse_k(field):
    got = [critical_value("rho_known_theta", 0.05, s.theta) for s in field]
    np.testing.assert_allclose(got, [Q975, Q975 / 2, Q975 / 3], rtol=1e-9)
    np.testing.assert_allclose(got, [1.959964, 0.979982, 0.653321], atol=1e-6)
    outcomes, _ = spde_family_rejections(field, 0.05)
    for sample, threshold, out in zip(field, got, outcomes):
        stat = variant_statistic(sample, "rho_known_theta")
        assert out.threshold == threshold and out.alpha == 0.05
        np.testing.assert_array_equal(out.statistic, stat)
        np.testing.assert_array_equal(out.reject, np.abs(stat) > threshold)


def test_multimode_reject_any_logic(field):
    outcomes, family = spde_family_rejections(field, 0.05)
    per_mode = np.stack([out.reject for out in outcomes])
    np.testing.assert_array_equal(family, per_mode.any(axis=0))
    # both outcomes occur, and some family rejection rests on one higher mode
    assert family.any() and not family.all()
    assert (per_mode[1:].any(axis=0) & ~per_mode[0]).any()


@pytest.mark.parametrize("n_modes", [0, -1, 2.5, math.nan])
def test_sidak_level_refuses_a_mode_count_that_is_not_a_positive_integer(n_modes):
    with pytest.raises(ParameterError, match="n_modes"):
        sidak_level(0.05, n_modes)


def test_multimode_sidak_level(field):
    assert sidak_level(0.05, 3) == pytest.approx(1 - 0.95 ** (1 / 3), rel=1e-12)
    level = sidak_level(0.05, 3)
    plain, plain_any = spde_family_rejections(field, 0.05)
    strict, strict_any = spde_family_rejections(field, level)
    plain, strict = (np.stack([out.reject for out in outs]) for outs in (plain, strict))
    assert all(critical_value("rho_known_theta", level, s.theta)
               > critical_value("rho_known_theta", 0.05, s.theta) for s in field)
    assert np.all(plain[strict]) and np.all(plain_any[strict_any])
    assert strict.sum() < plain.sum()


def test_multimode_empty_errors():
    for alpha in (0.05, sidak_level(0.05, 3)):
        with pytest.raises(ParameterError):
            spde_family_rejections([], alpha=alpha)


def test_multimode_numerator_variant(field):
    # mode-k threshold q/(2 k^3)
    got = [critical_value("numerator_known_theta", 0.05, s.theta) for s in field[:2]]
    np.testing.assert_allclose(got, [Q975 / 2.0, Q975 / 16.0], rtol=1e-9)
    outcomes, _ = spde_family_rejections(field[:2], 0.05, "numerator_known_theta")
    for sample, threshold, out in zip(field, got, outcomes):
        numerator = sample.y12 / math.sqrt(sample.horizon_T)
        assert out.variant is TestVariant.NUMERATOR_KNOWN_THETA
        np.testing.assert_array_equal(out.reject, np.abs(numerator) > threshold)


# ---------------------------------------------------------------------------
# Type-II bounds
# ---------------------------------------------------------------------------

def test_type2_rho_tail_term_value():
    # independent recomputation of the implemented half-exponent formula
    theta, r, alpha, T = 1.0, 0.5, 0.05, 100.0
    sigma = math.sqrt((1 + r * r) / (4 * theta ** 3))
    c = Q975 / math.sqrt(theta)
    z = (c - abs(r) * math.sqrt(T)) / sigma
    want = 2 * c / (sigma * math.sqrt(2 * math.pi)) * math.exp(-0.5 * z * z)
    got = type2_bound_rho(theta, r, alpha, T, berry_constant=0.0)
    assert got == pytest.approx(want, rel=1e-12)
    # decomposition: prefactor ~2.797, exponent ~-14.79
    assert 2 * c / (sigma * math.sqrt(2 * math.pi)) == pytest.approx(2.797, abs=2e-3)
    assert -0.5 * z * z == pytest.approx(-14.787, abs=2e-3)


def test_type2_rho_vanishes_in_T():
    vals = [type2_bound_rho(1.0, 0.5, 0.05, T, 0.1) for T in (50, 100, 400, 1600)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def test_type2_rho_domain():
    with pytest.raises(ParameterError):
        type2_bound_rho(1.0, 0.0, 0.05, 100.0, 0.0)


def test_type2_numerator_values():
    # validity horizon T > 4 theta^2 c^2 / r^2
    assert numerator_bound_valid_from(1.0, 0.5, 0.05) == pytest.approx(15.37, abs=0.01)
    # berry term ln(1e4)/100
    got = type2_bound_numerator(1.0, 0.5, 0.05, 1e4, berry_constant=1.0)
    tail = type2_bound_numerator(1.0, 0.5, 0.05, 1e4, berry_constant=0.0)
    assert got - tail == pytest.approx(math.log(1e4) / 100.0, rel=1e-12)
    assert got - tail == pytest.approx(0.0921, abs=1e-4)
    with pytest.raises(ParameterError):
        type2_bound_numerator(1.0, 0.5, 0.05, 2.0, 0.0)  # T <= e


@pytest.mark.parametrize("variant,bound", [
    pytest.param("rho_known_theta", type2_bound_rho, id="rho-type2_bound_rho"),
    pytest.param("numerator_known_theta", type2_bound_numerator,
                 id="numerator-type2_bound_numerator")])
def test_calibrated_constant_inverts_its_bound(variant, bound):
    vacuous = []
    for theta, r, alpha, T in ((1.0, 0.5, 0.05, 50.0), (2.0, -0.3, 0.01, 20.0),
                               (0.5, 0.8, 0.1, 5.0)):
        tail = bound(theta, r, alpha, T, 0.0)
        if tail >= 1.0:
            # a vacuous tail has no constant to fit: refused, naming the tail
            vacuous.append((theta, r, alpha, T))
            for beta in (0.0, 0.5, 1.0):
                with pytest.raises(ParameterError, match=f"tail term alone is {tail:.6g}"):
                    calibrate_berry_constant(variant, theta, r, alpha, T, beta)
            continue
        for beta in (b for b in (tail + 1e-3, tail + 0.3, 1.0) if tail < b <= 1.0):
            berry = calibrate_berry_constant(variant, theta, r, alpha, T, beta)
            assert berry > 0
            assert bound(theta, r, alpha, T, berry) == pytest.approx(beta, rel=0, abs=1e-12)
        # a miss rate under the tail alone floors the constant at zero
        assert calibrate_berry_constant(variant, theta, r, alpha, T, 0.5 * tail) == 0.0
    # the numerator's tail at theta=2, r=-0.3, alpha=0.01, T=20 is 1.594
    assert vacuous == ([(2.0, -0.3, 0.01, 20.0)] if bound is type2_bound_numerator else [])
    # the test is named by its TestVariant, as at every other entry point;
    # the plug-in variant has no bound
    assert calibrate_berry_constant(TestVariant(variant), 1.0, 0.5, 0.05, 50.0, 0.9) == \
        calibrate_berry_constant(variant, 1.0, 0.5, 0.05, 50.0, 0.9)
    with pytest.raises(ParameterError, match="unknown test variant 'rho'"):
        calibrate_berry_constant("rho", 1.0, 0.5, 0.05, 50.0, 0.5)
    with pytest.raises(ParameterError, match="rho_estimated_theta has no type-II bound"):
        calibrate_berry_constant("rho_estimated_theta", 1.0, 0.5, 0.05, 50.0, 0.5)
    # a miss rate outside [0, 1] is refused, not floored to 0 or fitted
    for beta in (math.nan, 7.0, -0.1, math.inf):
        with pytest.raises(ParameterError, match="empirical_beta"):
            calibrate_berry_constant(variant, 1.0, 0.5, 0.05, 50.0, beta)


def test_type2_bounds_dominate_empirical_beta():
    # calibrate on the engine's miss rate at one horizon, check domination at
    # larger ones: the rho test at T=50, the numerator test at T=100, where
    # its tail (0.912) is below 1; at T=50 its tail is 1.480 and refused
    from yule_ou.mc import pair_sample, rejections
    theta, alpha, reps = 1.0, 0.05, 2000

    def beta_hat(r, T, variant):
        s = pair_sample(theta, r, T, replications=reps, base_seed=303)
        return 1.0 - rejections(s, variant, alpha).mean()

    with pytest.raises(ParameterError, match="tail term alone is 1.48"):
        calibrate_berry_constant("numerator_known_theta", theta, 0.3, alpha, 50.0,
                                 beta_hat(0.3, 50.0, "numerator_known_theta"))
    for r, variant, bound, T0 in ((0.5, "rho_known_theta", type2_bound_rho, 50.0),
                                  (0.3, "numerator_known_theta", type2_bound_numerator, 100.0)):
        berry = calibrate_berry_constant(variant, theta, r, alpha, T0, beta_hat(r, T0, variant))
        for T in (2 * T0, 4 * T0):
            emp, b = beta_hat(r, T, variant), bound(theta, r, alpha, T, berry)
            assert emp <= b + 2 * math.sqrt(0.25 / reps), (r, T, emp, b)


def test_spde_type2_bound_products():
    assert spde_type2_bound([0.42]) == pytest.approx(0.42, rel=1e-15)
    assert spde_type2_bound([0.5, 0.0, 0.9]) == 0.0
    assert spde_type2_bound([0.1, 0.1, 0.1]) == pytest.approx(1e-3, rel=1e-12)
    assert spde_type2_bound([2.5, 0.5]) == pytest.approx(0.5, rel=1e-12)  # clamped
    with pytest.raises(ParameterError):
        spde_type2_bound([])
    for bad in ([0.5, math.nan], [math.inf, 0.5], [0.5, -0.1]):
        with pytest.raises(ParameterError):
            spde_type2_bound(bad)


def test_outcomes_csv_schema():
    out = rho_test(_stats(rho=0.5, T=100.0), theta=1.0, alpha=0.05)
    buf = io.StringIO()
    write_outcomes_csv(buf, [(1.0, 0.5, 100.0, out)])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "variant,alpha,theta,r,T,statistic,threshold,reject"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "rho_known_theta"
    assert fields[-1] == "1"


def test_outcomes_csv_of_a_sample_is_the_rows_of_its_replications(field):
    """A sample's rows are its replications' single-pair rows, replication
    by replication through the modes."""
    outcomes, _ = spde_family_rejections(field, 0.05)
    batch = io.StringIO()
    write_outcomes_csv(batch, [(s.theta, 0.1, 10.0, out) for s, out in zip(field, outcomes)])
    rows = io.StringIO()
    for j in range(100):
        for sample, out in zip(field, outcomes):
            one = decide(float(out.statistic[j]), out.variant, out.alpha, sample.theta)
            write_outcomes_csv(rows, [(sample.theta, 0.1, 10.0, one)])
    header = "variant,alpha,theta,r,T,statistic,threshold,reject\n"
    assert batch.getvalue() == header + rows.getvalue().replace(header, "")
