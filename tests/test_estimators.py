"""Path functionals: quadrature exactness, bilinearity, equivariance,
degenerate-input handling, and a consistency Monte Carlo."""

import math

import numpy as np
import pytest

from yule_ou.errors import (DegenerateStatisticError, GridMismatchError,
                            InsufficientDataError)
from yule_ou.estimators import (PathPair, check_functionals, functionals, rate_estimate,
                                theta_estimator, trapezoid_weights, yule_rho)
from yule_ou.sde import (CorrelatedPairConfig, SamplePath, mean_functional_variance,
                         simulate_correlated_pair, stream)


def _path(values, dt=0.1):
    return SamplePath(t0=0.0, dt=dt, values=np.asarray(values, dtype=float))


def _random_pair(seed, theta=1.0, r=0.3, T=20.0, dt=0.05):
    cfg = CorrelatedPairConfig(theta=theta, r=r, horizon_T=T, dt=dt, seed=seed)
    return simulate_correlated_pair(cfg)


def _time_average(path):
    """(1/T) int_0^T X(u) du by the trapezoid weights the functionals use."""
    return float(trapezoid_weights(path.values.size, path.dt) @ path.values) / path.horizon


def _cross(path_a, path_b):
    """The centered product functional Y_ab of two paths on one grid."""
    pair = PathPair(path_a, path_b)  # refuses paths on different grids
    return float(functionals(pair.x1.values, pair.x2.values, pair.x1.dt)[2])


# ---------------------------------------------------------------------------
# Time average
# ---------------------------------------------------------------------------

def test_time_average_constant():
    assert _time_average(_path([3.25] * 11)) == pytest.approx(3.25, rel=1e-14)


def test_time_average_linear_ramp():
    # trapezoid is exact on affine functions
    path = _path(np.linspace(0.0, 1.0, 11))
    assert _time_average(path) == pytest.approx(0.5, rel=1e-14)


def test_an_integer_step_weights_the_end_nodes_by_half():
    # an int dt used to give integer weights, truncating the end nodes' dt/2 to 0
    x = stream(12).standard_normal((2, 6))
    pair = lambda dt: PathPair(_path(x[0], dt), _path(x[1], dt))
    assert yule_rho(pair(1)) == yule_rho(pair(1.0))
    assert _time_average(_path(np.linspace(0.0, 1.0, 11), dt=1)) == pytest.approx(0.5)


def test_time_average_needs_two_nodes():
    with pytest.raises(InsufficientDataError):
        _time_average(_path([1.0]))


def test_time_average_squared_matches_closed_form():
    # E[mean^2] over 1e4 replications vs mean_functional_variance, 4 SE
    theta, T, dt, reps = 1.0, 100.0, 0.05, 10000
    from yule_ou.sde import ar1_paths, grid_size, innovation_variance, transition_factor
    n = grid_size(T, dt)
    z = stream(17).standard_normal((reps, n))
    xi = math.sqrt(innovation_variance(theta, dt)) * z
    x = ar1_paths(transition_factor(theta, dt), np.insert(xi, 0, 0.0, axis=1))
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    means = (x @ w) / T
    sq = means ** 2
    target = mean_functional_variance(theta, T)
    se = sq.std(ddof=1) / math.sqrt(reps)
    assert abs(sq.mean() - target) < 4 * se


# ---------------------------------------------------------------------------
# Covariance functional
# ---------------------------------------------------------------------------

def test_cov_functional_self_nonnegative():
    pair = _random_pair(1)
    y11 = _cross(pair.x1, pair.x1)
    assert y11 > 0.0


def test_cov_functional_negation():
    pair = _random_pair(2)
    y11 = _cross(pair.x1, pair.x1)
    neg = SamplePath(t0=0.0, dt=pair.x1.dt, values=-pair.x1.values)
    assert _cross(pair.x1, neg) == pytest.approx(-y11, rel=1e-12)


def test_cov_functional_constants_vanish():
    a = _path([2.0] * 21)
    b = _path([-7.5] * 21)
    assert _cross(a, b) == pytest.approx(0.0, abs=1e-12)


def test_cov_functional_symmetry():
    pair = _random_pair(3)
    ab = _cross(pair.x1, pair.x2)
    ba = _cross(pair.x2, pair.x1)
    assert ab == pytest.approx(ba, rel=1e-14)


def test_cov_functional_grid_mismatch():
    a = _path(np.arange(5.0), dt=0.1)
    b = _path(np.arange(5.0), dt=0.2)
    with pytest.raises(GridMismatchError):
        _cross(a, b)
    c = _path(np.arange(6.0), dt=0.1)
    with pytest.raises(GridMismatchError):
        _cross(a, c)


# ---------------------------------------------------------------------------
# Correlation statistic
# ---------------------------------------------------------------------------

def test_rho_perfect_correlation():
    pair = _random_pair(4)
    same = PathPair(x1=pair.x1, x2=pair.x1)
    stats = yule_rho(same)
    assert stats.rho == pytest.approx(1.0, abs=1e-12)


def test_rho_negative_affine():
    pair = _random_pair(5)
    flipped = SamplePath(0.0, pair.x1.dt, -2.5 * pair.x1.values + 0.7)
    stats = yule_rho(PathPair(x1=pair.x1, x2=flipped))
    assert stats.rho == pytest.approx(-1.0, abs=1e-10)


def test_rho_fields_consistent():
    stats = yule_rho(_random_pair(6))
    assert stats.rho == pytest.approx(
        stats.y12 / math.sqrt(stats.y11 * stats.y22), rel=1e-12)
    assert stats.y11 > 0 and stats.y22 > 0
    assert abs(stats.rho) <= 1.0 + 1e-12


def test_rho_bounded_on_random_pairs():
    for seed in range(20):
        stats = yule_rho(_random_pair(seed, r=0.8, T=5.0))
        assert abs(stats.rho) <= 1.0


def test_rho_scale_shift_equivariance():
    pair = _random_pair(7)
    base = yule_rho(pair).rho
    for a, b, c, d in ((2.0, 1.0, 3.0, -2.0), (-1.5, 0.0, 2.0, 5.0),
                       (-0.3, 1.2, -4.0, 0.1)):
        x1 = SamplePath(0.0, pair.x1.dt, a * pair.x1.values + b)
        x2 = SamplePath(0.0, pair.x2.dt, c * pair.x2.values + d)
        got = yule_rho(PathPair(x1=x1, x2=x2)).rho
        assert got == pytest.approx(math.copysign(1.0, a * c) * base, abs=1e-10)


def test_rho_rejects_constant_paths():
    flat = _path([1.0] * 11)
    wiggly = _path(np.sin(np.arange(11.0)))
    with pytest.raises(DegenerateStatisticError):
        yule_rho(PathPair(x1=flat, x2=wiggly))
    with pytest.raises(DegenerateStatisticError):
        yule_rho(PathPair(x1=wiggly, x2=flat))


def test_overflowing_functionals_are_refused():
    # finite values whose Y11 overflows to inf and Y22, Y12 to nan; then
    # positive subnormal Y11 and Y22, whose rate T/(2 Y_aa) overflows to inf
    for v1, v2 in (([1e308, -1e308, 1e308], [1e308, 1e308, -1e308]),
                   ([1e-155, -1e-155, 1e-155], [1e-155, 2e-155, -1e-155])):
        x1, x2 = _path(v1, dt=1.0), _path(v2, dt=1.0)
        for pooled in (False, True):
            with pytest.raises(DegenerateStatisticError, match="non-finite"):
                yule_rho(PathPair(x1=x1, x2=x2), pooled_theta=pooled)
        with pytest.raises(DegenerateStatisticError, match="non-finite"):
            theta_estimator(x1)


@pytest.mark.parametrize("row, refusal", [
    ((2.0, 3.0, 0.5), None),
    ((0.0, 3.0, 0.5), "non-finite functional"),
    ((2.0, -1.0, 0.5), "non-finite functional"),
    ((math.inf, 3.0, 0.5), "non-finite functional"),
    ((2.0, 3.0, math.nan), "non-finite functional"),
    ((1e-310, 1.0, 0.0), "non-finite rate"),  # T/(2 Y11) overflows
])
def test_functional_and_rate_refusals_are_one_rule_for_a_pair_and_a_batch(row, refusal):
    # a row alone and a batch holding it beside a valid row meet the same rule
    batch = [np.array([2.0, v]) for v in row]
    for y11, y22, y12 in (row, batch):
        try:
            check_functionals(y11, y22, y12)
            rate_estimate(y11, 1.0)
        except DegenerateStatisticError as exc:
            assert refusal is not None and refusal in str(exc), (row, y11)
        else:
            assert refusal is None, (row, y11)


def test_rho_grid_refinement_stability():
    # exact skeleton: subsampling a fine path gives the coarse-path law, so
    # rho differences across refinements are pure quadrature error, O(dt)
    cfg = CorrelatedPairConfig(theta=1.0, r=0.4, horizon_T=50.0, dt=0.0125, seed=23)
    fine = simulate_correlated_pair(cfg)

    def coarsen(path, k):
        return SamplePath(0.0, path.dt * k, path.values[::k])

    rho_fine = yule_rho(fine).rho
    rho_mid = yule_rho(PathPair(coarsen(fine.x1, 2), coarsen(fine.x2, 2))).rho
    rho_coarse = yule_rho(PathPair(coarsen(fine.x1, 4), coarsen(fine.x2, 4))).rho
    assert abs(rho_coarse - rho_mid) < 0.05
    assert abs(rho_mid - rho_fine) < 0.025


# ---------------------------------------------------------------------------
# Rate estimator and numerator
# ---------------------------------------------------------------------------

def test_theta_estimator_formula_inversion():
    pair = _random_pair(8)
    y11 = _cross(pair.x1, pair.x1)
    T = pair.x1.horizon
    scale = math.sqrt(0.5 * T / y11)  # makes Y11/T exactly 0.5
    scaled = SamplePath(0.0, pair.x1.dt, scale * pair.x1.values)
    assert theta_estimator(scaled) == pytest.approx(1.0, rel=1e-12)


def test_theta_estimator_rejects_constant():
    with pytest.raises(DegenerateStatisticError):
        theta_estimator(_path([2.0] * 5))


def test_theta_estimator_consistency_mc():
    # theta=2, T=200: mean over 200 replications within 0.1 of 2
    from yule_ou.mc import pair_sample
    sample = pair_sample(2.0, 0.0, 200.0, replications=200, base_seed=31)
    assert abs(sample.theta_hat.mean() - 2.0) < 0.1


def test_pooled_theta_estimate():
    pair = _random_pair(9)
    stats = yule_rho(pair, pooled_theta=True)
    t1 = theta_estimator(pair.x1)
    t2 = theta_estimator(pair.x2)
    assert stats.theta_hat == pytest.approx(0.5 * (t1 + t2), rel=1e-12)


def test_numerator_zero_paths():
    zero = _path(np.zeros(11))
    assert _cross(zero, zero) == 0.0


def test_numerator_perfect_pair_limit():
    # x2 = x1: Y12/T = Y11/T -> 1/(2 theta); fixed seed, generous band
    pair = _random_pair(10, theta=1.0, r=0.0, T=200.0)
    value = _cross(pair.x1, pair.x1) / pair.x1.horizon
    assert abs(value - 0.5) < 0.15


def test_statistics_json_keys():
    stats = yule_rho(_random_pair(11))
    assert set(stats.to_dict()) == {"y11", "y22", "y12", "rho", "theta_hat", "T"}
