"""Exact-transition simulation: closed-form checks, determinism, and
small Monte Carlo validations against the covariance formulas."""

import decimal
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from yule_ou import sde
from yule_ou.errors import ParameterError
from yule_ou.mc import pair_sample, spde_mode_samples
from yule_ou.sde import (MAX_STEPS, CorrelatedPairConfig, SamplePath,
                         ar1_paths, correlated_paths, default_dt, grid_size,
                         innovation_variance, mean_functional_variance, ou_covariance,
                         read_pair_csv, simulate_correlated_pair, simulate_ou,
                         stream, transition_factor, write_pair_csv)
from row_oracle import row_normals


def _nodes(xi, node0=0.0):
    """Innovations of shape (..., n) as an ar1_paths buffer (..., n+1)."""
    return np.insert(xi, 0, node0, axis=-1)


def _endpoint_matrix(theta, horizon_T, dt, reps, seed):
    """Law-exact batch of paths as a (reps, nodes) matrix from one stream."""
    n = grid_size(horizon_T, dt)
    z = stream(seed).standard_normal((reps, n))
    sd = math.sqrt(innovation_variance(theta, dt))
    return ar1_paths(transition_factor(theta, dt), _nodes(sd * z))


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def _seed_sequence_stream(seed, *key):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=key)))


_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1)
_REPS = (0, 1, 17, 2 ** 32 - 1)


@pytest.mark.parametrize("seed", _SEEDS)
def test_row_streams_are_the_key_stream_advanced_by_the_row_index(seed):
    # row j is row j % G of group j // G, the key's Philox advanced by the
    # group; one generator draws the groups in any order
    w = 41  # groups of 1598 rows
    per_group = sde.group_rows(w)
    for cell in (0, 7, 2 ** 32 + 5):
        for process in (0, 1, 5):
            gen = stream(seed, cell, process)
            for rep in _REPS:
                g, i = divmod(rep, per_group)
                rows = sde.draw_group(gen, g * per_group, np.empty((i + 1, w)))
                assert np.array_equal(rows[i], row_normals(seed, cell, process, [rep], w)[0])


def test_stream_draws_the_seed_sequence_numbers():
    for seed, key in ((5, ()), (2 ** 64 - 1, (3,)), (91, (3, 4, 1))):
        assert np.array_equal(stream(seed, *key).standard_normal(300),
                              _seed_sequence_stream(seed, *key).standard_normal(300))


def test_row_streams_draw_each_row_from_its_own_stream_over_ragged_tiles():
    # width 6554 makes groups of 9 rows.  25 rows from a group boundary (0,
    # 18, or 9*477218585, the group of the last rows below 2**32) are two
    # whole groups and a ragged one of 7 rows, drawn last group first
    seed, cell, process, w = 2 ** 40 + 3, 7, 1, 6554
    gen = stream(seed, cell, process)
    for first in (0, 18, 9 * 477218585):
        drawn = np.empty((25, w))
        for a in (18, 9, 0):
            sde.draw_group(gen, first + a, drawn[a:a + 9])
        reps = range(first, first + 25)
        assert np.array_equal(drawn, row_normals(seed, cell, process, reps, w)), first


def test_group_draw_refuses_a_mid_group_start_more_than_a_group_or_a_strided_buffer():
    gen, w = stream(3, 0, 0), 20_000  # groups of 3 rows
    buf = np.empty((4, w))
    for first in (1, 2, 4, 2 ** 32):
        with pytest.raises(ParameterError):  # a start inside a group
            sde.draw_group(gen, first, buf[:1])
    with pytest.raises(ParameterError):  # four rows are more than one group
        sde.draw_group(gen, 3, buf)
    with pytest.raises(ParameterError):  # rows must be whole and contiguous
        sde.draw_group(gen, 3, np.empty((3, w + 1))[:, 1:])
    assert np.shares_memory(sde.draw_group(gen, 3, buf[:3]), buf)  # a whole group


def test_stream_refuses_negative_key_parts_and_index_arrays():
    with pytest.raises(ParameterError):
        stream(1, -1)
    with pytest.raises(TypeError):  # a key is integers alone
        stream(1, 0, np.arange(2), 0)


def test_first_filter_calls_on_two_pool_threads_at_once(tmp_path):
    # a fresh interpreter runs its first blocks on two pool threads at once
    # and must match jobs=1 bit for bit; simulate and spde then run without
    # loading scipy.signal or scipy.stats, which ar1_paths used to pull in
    src = Path(sde.__file__).resolve().parents[1]
    code = f"""
import contextlib, io, sys
import numpy as np
from yule_ou import cli, mc, sde
sde._GROUP_ELEMS = 1  # one-row groups, so 4 blocks of 10 rows
mc._BLOCK_ELEMS = 10 * sde.grid_size(5.0, sde.default_dt(1.0, 5.0))
two = mc.pair_sample(1.0, 0.3, 5.0, replications=40, base_seed=3, jobs=2)
one = mc.pair_sample(1.0, 0.3, 5.0, replications=40, base_seed=3)
same = all(np.array_equal(getattr(one, k), getattr(two, k)) for k in ('y11', 'y22', 'y12'))
with contextlib.redirect_stdout(io.StringIO()):
    codes = (cli.main(['simulate', '--theta', '1', '--r', '0.5', '--T', '5', '--dt', '0.01',
                       '--seed', '1', '--out', {str(tmp_path / "pair.csv")!r}]),
             cli.main(['spde', '--N', '2', '--r', '0', '--T', '5', '--reps', '20',
                       '--seed', '1', '--jobs', '2']))
print(same, codes, sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                          timeout=120)
    assert proc.stdout.strip() == "True (0, 0) []"


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter imports the package and its exact module, then
    # runs every command that reaches the normal CDF, the quantile or the
    # convolution constant: none may import scipy
    src = Path(sde.__file__).resolve().parents[1]
    pair = str(tmp_path / "pair.csv")
    code = f"""
import contextlib, io, sys
import yule_ou
import yule_ou.exact
from yule_ou import cli
argvs = [
    ['simulate', '--theta', '1', '--r', '0.5', '--T', '5', '--dt', '0.01', '--seed', '1',
     '--out', {pair!r}],
    ['stat', '--input', {pair!r}],
    ['test', '--variant', 'rho', '--theta', '1', '--input', {pair!r}],
    ['test', '--variant', 'rho-est', '--input', {pair!r}],
    ['test', '--variant', 'num', '--theta', '1', '--input', {pair!r}],
    ['theory', '--quantity', 'delta_inner', '--p', '3', '--theta', '1'],
    ['theory', '--quantity', 'edgeworth_tail', '--z', '1', '--theta', '1', '--r', '0.5',
     '--T', '10'],
    ['theory', '--quantity', 'type2_bound_rho', '--theta', '1', '--r', '0.5', '--alpha',
     '0.05', '--T', '10', '--berry', '1'],
    ['mc', '--thetas', '1', '--rs', '0,0.5', '--Ts', '5', '--reps', '20', '--seed', '1',
     '--statistic', 'rho_centered'],
    ['spde', '--N', '2', '--r', '0', '--T', '5', '--reps', '20', '--seed', '1',
     '--jobs', '2'],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                          timeout=120)
    assert proc.stdout.strip() == f"{[0] * 10} []", proc.stderr


def _sequential_ar1(factor, innovations):
    """X_k = factor*X_{k-1} + xi_k in long double, one step at a time."""
    xi = np.asarray(innovations, dtype=np.longdouble)
    x = np.zeros(xi.shape[:-1] + (xi.shape[-1] + 1,), dtype=np.longdouble)
    for k in range(xi.shape[-1]):
        x[..., k + 1] = np.longdouble(factor) * x[..., k] + xi[..., k]
    return x


@pytest.mark.parametrize("theta_dt", [0.05, 0.05 / 9, 1e-6, 0.0])
def test_ar1_paths_matches_the_sequential_recursion(theta_dt):
    factor = math.exp(-theta_dt)  # exactly 1.0 at theta_dt = 0
    chunk = sde._CHUNK_STEPS
    if theta_dt:
        chunk = min(chunk, int(sde._CHUNK_DECAY / -math.log(factor)))
    sd = math.sqrt(innovation_variance(1.0, theta_dt)) if theta_dt else 1.0
    gen = stream(11, 0)
    for n in (1, chunk, chunk + 1, 3 * chunk + 7):
        for shape in ((n,), (3, n)):
            xi = sd * gen.standard_normal(shape)
            exact = _sequential_ar1(factor, xi)
            rms = float(np.sqrt(np.mean(exact ** 2)))
            # the filter works in place and overwrites whatever node 0 held
            for node0 in (0.0, math.nan):
                buf = _nodes(xi, node0)
                x = ar1_paths(factor, buf)
                assert x is buf and x.shape == exact.shape and np.all(x[..., 0] == 0.0)
                assert float(np.max(np.abs(x - exact))) <= 1e-12 * rms
                if xi.ndim == 2:
                    assert all(np.array_equal(x[i], ar1_paths(factor, _nodes(xi[i], node0)))
                               for i in range(3))


def test_ar1_paths_refuses_a_factor_outside_the_unit_interval():
    for factor in (-0.5, 1.5, math.nan):
        with pytest.raises(ParameterError):
            ar1_paths(factor, np.ones(4))
    assert np.array_equal(ar1_paths(0.0, np.arange(9.0, -3.0, -3.0)), [0.0, 6.0, 3.0, 0.0])


# ---------------------------------------------------------------------------
# Transition and closed-form moments
# ---------------------------------------------------------------------------

def test_transition_at_log2():
    assert transition_factor(1.0, math.log(2)) == pytest.approx(0.5, rel=1e-15)
    sd = math.sqrt(innovation_variance(1.0, math.log(2)))
    assert sd == pytest.approx(0.6123724356957945, rel=1e-12)


def test_degenerate_step():
    assert transition_factor(2.0, 0.0) == 1.0
    assert innovation_variance(2.0, 0.0) == 0.0


def test_two_step_composition_identity():
    # transition over dt twice == transition over 2*dt, as a variance identity
    for theta in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for dt in (1e-4, 1e-3, 0.01, 0.05, 0.3, 1.0):
            v1 = innovation_variance(theta, dt)
            a = transition_factor(theta, dt)
            lhs = v1 * (1.0 + a * a)
            rhs = innovation_variance(theta, 2 * dt)
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_ou_covariance_values():
    assert ou_covariance(1.0, 1.0, 1.0) == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-14)
    assert ou_covariance(1.0, 0.0, 3.0) == 0.0
    assert ou_covariance(1.0, 2.0, 0.0) == 0.0
    # exp(-3)(e^2 - 1)/2, cross-checked against the |t-s| form
    expected = math.exp(-1.0) * (1 - math.exp(-2.0)) / 2.0
    assert ou_covariance(1.0, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)
    assert ou_covariance(1.0, 1.0, 2.0) == pytest.approx(0.159046, abs=1e-6)


def test_correlated_paths_mixes_in_place_with_the_formula_bits():
    # z1 and z0 become the paths filtered from the innovations sd*z1 and
    # r*(sd*z1) + sqrt(1-r^2)*(sd*z0) bit for bit, with or without a scratch,
    # and node 0 (here NaN) is never read
    theta, r, dt = 1.3, -0.7, 0.02
    gen = stream(5, 0)
    z1, z0 = gen.standard_normal((3, 400)), gen.standard_normal((3, 400))
    sd = math.sqrt(innovation_variance(theta, dt))
    xi1 = sd * z1
    xi2 = r * xi1 + math.sqrt(1.0 - r * r) * (sd * z0)
    factor = transition_factor(theta, dt)
    for scratch in (None, np.full((3, 401), math.nan)):
        b1, b0 = _nodes(z1, math.nan), _nodes(z0, math.nan)
        x1, x2 = correlated_paths(theta, r, dt, b1, b0, scratch=scratch)
        assert x1 is b1 and x2 is b0
        assert np.array_equal(x1, ar1_paths(factor, _nodes(xi1)))
        assert np.array_equal(x2, ar1_paths(factor, _nodes(xi2)))


def test_mean_functional_variance_against_quadrature():
    from scipy.integrate import quad
    for theta, T in ((1.0, 10.0), (0.5, 4.0), (2.0, 30.0)):
        num, _ = quad(lambda u: (1 - math.exp(-theta * (T - u))) ** 2, 0, T)
        assert mean_functional_variance(theta, T) == pytest.approx(
            num / (theta * T) ** 2, rel=1e-10)
    assert mean_functional_variance(1.0, 10.0) == pytest.approx(0.0850009, abs=1e-7)


def _mean_functional_variance_decimal(theta, T):
    """The closed form of mean_functional_variance in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        th, T = decimal.Decimal(theta), decimal.Decimal(T)
        e1, e2 = (-th * T).exp(), (-2 * th * T).exp()
        return float((T - 2 * (1 - e1) / th + (1 - e2) / (2 * th)) / (th * T) ** 2)


def test_mean_functional_variance_small_theta_T():
    # the closed form cancels as theta*T -> 0, where the value tends to T/3
    assert mean_functional_variance(1e-7, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-6)
    for theta in (1e-7, 1e-3, 0.5, 3.0):
        for x in np.logspace(-7, 1.5, 60):
            want = _mean_functional_variance_decimal(theta, x / theta)
            assert mean_functional_variance(theta, x / theta) == pytest.approx(want, rel=1e-13)


def test_mean_functional_variance_bound_and_limit():
    for theta in (0.25, 1.0, 3.0):
        for T in (1.0, 10.0, 100.0):
            assert mean_functional_variance(theta, T) <= 1.0 / (theta ** 2 * T) + 1e-15
    # T * value -> 1/theta^2
    assert 1e4 * mean_functional_variance(2.0, 1e4) == pytest.approx(0.25, rel=1e-3)


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------

def test_simulate_ou_grid_and_start():
    path = simulate_ou(1.0, 2.0, 0.05, stream(3))
    assert path.values.size == 41
    assert path.values[0] == 0.0
    assert path.horizon == pytest.approx(2.0, rel=1e-12)


def test_simulate_ou_domain_errors():
    with pytest.raises(ParameterError):
        simulate_ou(-1.0, 1.0, 0.1, stream(0))
    with pytest.raises(ParameterError):
        simulate_ou(1.0, 1.0, -0.1, stream(0))
    with pytest.raises(ParameterError):
        simulate_ou(1.0, 1.0, 0.3, stream(0))  # 0.3 does not divide 1.0


def test_marginal_variance_mc():
    # Var[X(1)] over 2e4 replications vs the covariance formula, 4 SE band
    theta, dt, reps = 1.0, 0.05, 20000
    x = _endpoint_matrix(theta, 1.0, dt, reps, seed=11)[:, -1]
    target = ou_covariance(theta, 1.0, 1.0)
    est = x.var(ddof=1)
    se = target * math.sqrt(2.0 / (reps - 1))
    assert abs(est - target) < 4 * se


def test_sample_covariance_mc():
    # Cov(X(s), X(t)) vs ou_covariance on an unequal-time cell
    theta, dt, reps = 2.0, 0.025, 20000
    paths = _endpoint_matrix(theta, 3.0, dt, reps, seed=12)
    i, j = grid_size(0.5, dt), grid_size(3.0, dt)
    xs, xt = paths[:, i], paths[:, j]
    prod = xs * xt
    est = prod.mean() - xs.mean() * xt.mean()
    se = prod.std(ddof=1) / math.sqrt(reps)
    assert abs(est - ou_covariance(theta, 0.5, 3.0)) < 4 * se


# ---------------------------------------------------------------------------
# Correlated pairs
# ---------------------------------------------------------------------------

def test_pair_r_one_identical():
    cfg = CorrelatedPairConfig(theta=1.0, r=1.0, horizon_T=5.0, dt=0.05, seed=5)
    pair = simulate_correlated_pair(cfg)
    np.testing.assert_array_equal(pair.x1.values, pair.x2.values)


def test_pair_r_minus_one_mirrored():
    cfg = CorrelatedPairConfig(theta=1.0, r=-1.0, horizon_T=5.0, dt=0.05, seed=5)
    pair = simulate_correlated_pair(cfg)
    np.testing.assert_allclose(pair.x2.values, -pair.x1.values, atol=0)


def test_pair_r_zero_increment_independence():
    cfg = CorrelatedPairConfig(theta=1.0, r=0.0, horizon_T=50.0, dt=0.05, seed=8)
    pair = simulate_correlated_pair(cfg)
    a = transition_factor(cfg.theta, cfg.dt)
    inc1 = pair.x1.values[1:] - a * pair.x1.values[:-1]
    inc2 = pair.x2.values[1:] - a * pair.x2.values[:-1]
    corr = np.corrcoef(inc1, inc2)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(inc1.size)


def test_pair_cross_correlation_mc():
    # Corr(X1(t), X2(t)) ~= r at t=5 (equal-time correlation is exactly r)
    theta, r, dt, reps = 1.0, 0.5, 0.05, 20000
    n = grid_size(5.0, dt)
    g1 = stream(13, 0)
    g0 = stream(13, 1)
    sd = math.sqrt(innovation_variance(theta, dt))
    xi1 = sd * g1.standard_normal((reps, n))
    xi0 = sd * g0.standard_normal((reps, n))
    xi2 = r * xi1 + math.sqrt(1 - r * r) * xi0
    a = transition_factor(theta, dt)
    x1 = ar1_paths(a, _nodes(xi1))[:, -1]
    x2 = ar1_paths(a, _nodes(xi2))[:, -1]
    est = np.corrcoef(x1, x2)[0, 1]
    se = (1 - r * r) / math.sqrt(reps)
    assert abs(est - r) < 4 * se


def test_pair_config_refuses_a_one_step_grid():
    # on two nodes rho is exactly +-1; theta*T <= STEP_CAP gives dt = T
    with pytest.raises(ParameterError, match="one step"):
        CorrelatedPairConfig(theta=0.01, r=0.5, horizon_T=2.0, dt=default_dt(0.01, 2.0),
                             seed=1)
    assert CorrelatedPairConfig(theta=0.01, r=0.5, horizon_T=2.0, dt=1.0, seed=1).n_steps == 2
    with pytest.raises(ParameterError, match="one step"):
        pair_sample(0.01, 0.5, 2.0, replications=6, base_seed=1)


def test_pair_determinism():
    cfg = CorrelatedPairConfig(theta=2.0, r=0.3, horizon_T=4.0, dt=0.025, seed=99)
    p1 = simulate_correlated_pair(cfg)
    p2 = simulate_correlated_pair(cfg)
    np.testing.assert_array_equal(p1.x1.values, p2.x1.values)
    np.testing.assert_array_equal(p1.x2.values, p2.x2.values)
    p3 = simulate_correlated_pair(CorrelatedPairConfig(
        theta=2.0, r=0.3, horizon_T=4.0, dt=0.025, seed=100))
    assert not np.array_equal(p1.x1.values, p3.x1.values)


def test_config_validation():
    with pytest.raises(ParameterError):
        CorrelatedPairConfig(theta=1.0, r=1.5, horizon_T=1.0, dt=0.05, seed=0)
    with pytest.raises(ParameterError):
        CorrelatedPairConfig(theta=1.0, r=math.nan, horizon_T=1.0, dt=0.05, seed=0)
    with pytest.raises(ParameterError):
        CorrelatedPairConfig(theta=1.0, r=0.0, horizon_T=1.0, dt=0.2, seed=0)  # cap
    with pytest.raises(ParameterError):
        CorrelatedPairConfig(theta=-1.0, r=0.0, horizon_T=1.0, dt=0.05, seed=0)


# ---------------------------------------------------------------------------
# Field modes (the engine's spde_mode_samples)
# ---------------------------------------------------------------------------

def test_spde_mode_rates():
    samples = spde_mode_samples(3, 0.2, 2.0, replications=4, base_seed=21)
    assert [s.theta for s in samples] == [1.0, 4.0, 9.0]
    for k, sample in enumerate(samples, start=1):
        assert sample.dt <= sde.STEP_CAP / k ** 2 + 1e-15
        assert sample.y11.size == 4 and sample.horizon_T == 2.0


def test_spde_single_mode_matches_pair_law():
    # mode 1 is the plain theta = 1 cell: same streams, same bits
    mode = spde_mode_samples(1, 0.5, 2.0, replications=4, base_seed=33)[0]
    cell = pair_sample(1.0, 0.5, 2.0, replications=4, base_seed=33)
    assert mode.theta == 1.0
    for name in ("y11", "y22", "y12", "rho", "theta_hat"):
        np.testing.assert_array_equal(getattr(mode, name), getattr(cell, name))


def test_spde_mode_stability_under_extension():
    # adding modes must not perturb earlier ones (per-mode streams)
    small = spde_mode_samples(1, 0.2, 2.0, replications=4, base_seed=44)[0]
    large = spde_mode_samples(3, 0.2, 2.0, replications=4, base_seed=44)[0]
    for name in ("y11", "y22", "y12"):
        assert np.array_equal(getattr(small, name), getattr(large, name)), name


def test_spde_cross_mode_independence():
    reps = 400
    one, two = spde_mode_samples(2, 0.0, 10.0, replications=reps, base_seed=55)
    for name in ("rho", "y11", "y12"):
        corr = np.corrcoef(getattr(one, name), getattr(two, name))[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(reps), name


def test_spde_errors():
    for n_modes in (0, -2):
        with pytest.raises(ParameterError, match="n_modes"):
            spde_mode_samples(n_modes, 0.1, 1.0, replications=4, base_seed=0)


def test_grid_size_refuses_grids_beyond_max_steps():
    assert grid_size(MAX_STEPS * 0.5, 0.5) == MAX_STEPS
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        grid_size((MAX_STEPS + 1) * 0.5, 0.5)
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        CorrelatedPairConfig(theta=1.0, r=0.0, horizon_T=1e9, dt=0.01, seed=0)


def test_default_dt_policy():
    dt = default_dt(9.0, 50.0)
    assert dt <= sde.STEP_CAP / 9.0 + 1e-15
    assert 50.0 / (grid_size(50.0, dt) - 1) > sde.STEP_CAP / 9.0  # the largest such dt
    assert grid_size(50.0, dt) * dt == pytest.approx(50.0, rel=1e-12)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_pair_csv_round_trip():
    cfg = CorrelatedPairConfig(theta=1.0, r=0.4, horizon_T=1.0, dt=0.05, seed=3)
    pair = simulate_correlated_pair(cfg)
    buf = io.StringIO()
    write_pair_csv(pair, buf)
    assert buf.getvalue().startswith("t,x1,x2\n")
    buf.seek(0)
    t, x1, x2 = read_pair_csv(buf)
    np.testing.assert_array_equal(x1, pair.x1.values)
    np.testing.assert_array_equal(x2, pair.x2.values)
    np.testing.assert_allclose(t, pair.x1.times(), rtol=0, atol=0)


def test_pair_csv_reader_skips_blank_and_comment_lines():
    text = "\n# a\n  # b\n T, X1 ,x2\n\n0,1.5,-2\n   \n\t# c\n0.5, 3e-320 ,nan\n# d"
    t, x1, x2 = read_pair_csv(io.StringIO(text))
    np.testing.assert_array_equal(t, [0.0, 0.5])
    np.testing.assert_array_equal(x1, [1.5, 3e-320])
    np.testing.assert_array_equal(x2, [-2.0, np.nan])


def test_pair_csv_reader_reads_the_bits_float_reads():
    values = np.random.default_rng(4).standard_normal((200, 3)) * 10.0 ** np.arange(-150, 150, 100)
    text = "t,x1,x2\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values)
    t, x1, x2 = read_pair_csv(iter(text.splitlines(keepends=True)))  # lines only, no file API
    np.testing.assert_array_equal(np.stack([t, x1, x2], axis=1), values)


@pytest.mark.parametrize("text", [
    "",                                # no header
    "# only a comment\n\n",            # no header
    "t,x1,x2\n",                       # no row
    "t,x1,x2\n# a comment\n  \n",      # no row
    "t,x,y\n0,1,2\n",                  # wrong header
    "0,1,2\nt,x1,x2\n",                # header not first
    "t,x1,x2\n0,1\n",                  # two fields
    "t,x1,x2\n0,1,2,3\n",              # four fields
    "t,x1,x2\n0,1,2\n1,2\n",           # a short row after a full one
    "t,x1,x2\n0,1,a\n",                # a field that is not a number
    "t,x1,x2\n0,1,\n",                 # an empty field
    "t,x1,x2\n0,1,2 # note\n",         # a trailing comment
])
def test_pair_csv_reader_refuses_malformed_files(text):
    with pytest.raises(ValueError):
        read_pair_csv(io.StringIO(text))


def test_sample_path_validation():
    with pytest.raises(ParameterError):
        SamplePath(t0=0.0, dt=0.0, values=np.zeros(3))
    with pytest.raises(ParameterError):
        SamplePath(t0=0.0, dt=0.1, values=np.array([0.0, np.inf]))
    with pytest.raises(ParameterError):
        SamplePath(t0=0.0, dt=0.1, values=np.empty(0))
