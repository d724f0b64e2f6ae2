"""Replication engine and diagnostics: k-statistics, Kolmogorov distance,
Wilson intervals, rate fits, grid runs, and reproducibility."""

import collections
import dataclasses
import math
import multiprocessing
import os
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from yule_ou.errors import DegenerateStatisticError, InsufficientDataError, ParameterError
from yule_ou import mc, sde
from yule_ou.estimators import PathPair, functionals, rate_estimate, yule_rho
from yule_ou.gaussian import upper_quantile
from yule_ou.mc import (ExperimentGrid, error_rates, k_statistics,
                        kolmogorov_distance, pair_sample, rate_fit, rejections,
                        run_grid, spde_family_rejections, spde_mode_samples,
                        summarize_cell, wilson_interval, write_reports_csv)
from yule_ou.sde import (CorrelatedPairConfig, SamplePath, default_dt, grid_size,
                         simulate_correlated_pair, simulate_ou, stream)
from row_oracle import row_normals

#: steps of theta=1, T=5 on the default grid; block sizes below are rows times this
_STEPS_1_5 = grid_size(5.0, default_dt(1.0, 5.0))


# ---------------------------------------------------------------------------
# k-statistics
# ---------------------------------------------------------------------------

def test_k_statistics_symmetric_sample():
    k2, k3, k4 = k_statistics([-1.0, 0.0, 1.0, 0.0])
    assert k3 == pytest.approx(0.0, abs=1e-15)
    assert k2 == pytest.approx(np.var([-1, 0, 1, 0], ddof=1), rel=1e-14)


def test_k_statistics_gaussian_sample():
    n = 100000
    z = stream(5).standard_normal(n)
    k2, k3, k4 = k_statistics(z)
    assert abs(k2 - 1.0) < 4 * math.sqrt(2.0 / n)
    assert abs(k3) < 0.03     # ~4 SE with SE ~= sqrt(6/n)
    assert abs(k4) < 0.06     # ~4 SE with SE ~= sqrt(24/n)


def test_k_statistics_cumulant_homogeneity():
    x = stream(6).standard_normal(2000) ** 3  # skewed sample
    k2, k3, k4 = k_statistics(x)
    a, b = -2.5, 1.75
    s2, s3, s4 = k_statistics(a * x + b)
    assert s2 == pytest.approx(a ** 2 * k2, rel=1e-10)
    assert s3 == pytest.approx(a ** 3 * k3, rel=1e-10)
    assert s4 == pytest.approx(a ** 4 * k4, rel=1e-9)


def test_k_statistics_needs_four():
    with pytest.raises(InsufficientDataError):
        k_statistics([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def test_kolmogorov_single_point():
    assert kolmogorov_distance([0.0]) == pytest.approx(0.5, rel=1e-12)


def test_kolmogorov_quantile_midpoints():
    n = 1000
    samples = np.array([-upper_quantile((i - 0.5) / n) for i in range(1, n + 1)])
    d = kolmogorov_distance(samples)
    assert 1.0 / (2 * n) - 1e-12 <= d <= 1.0 / (2 * n) + 6e-4


def test_kolmogorov_disjoint_support():
    z = stream(7).standard_normal(500) + 10.0
    assert kolmogorov_distance(z) > 1.0 - 1e-6


def test_kolmogorov_permutation_invariant_and_positive():
    z = stream(8).standard_normal(400)
    d = kolmogorov_distance(z)
    assert d == kolmogorov_distance(z[::-1])
    assert d > 0.0


# ---------------------------------------------------------------------------
# Error rates and rate fits
# ---------------------------------------------------------------------------

def test_error_rates_wilson_values():
    rate, lo, hi = error_rates([True] * 500 + [False] * 9500)
    assert rate == pytest.approx(0.05, rel=1e-12)
    assert lo == pytest.approx(0.0459, abs=2e-4)
    assert hi == pytest.approx(0.0545, abs=2e-4)


def test_error_rates_edge_cases():
    rate, lo, hi = error_rates([True] * 10)
    assert rate == 1.0 and hi == 1.0
    rate, lo, hi = error_rates([False] * 100)
    assert rate == 0.0 and lo == 0.0
    with pytest.raises(ParameterError):
        error_rates([])


def test_error_rates_ci_shrinks():
    widths = []
    for n in (100, 400, 1600):
        _, lo, hi = error_rates([True] * (n // 10) + [False] * (9 * n // 10))
        widths.append(hi - lo)
    assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.1)
    assert widths[1] / widths[2] == pytest.approx(2.0, rel=0.1)


def test_wilson_interval_contains_rate():
    for k, n in ((0, 50), (1, 50), (25, 50), (50, 50)):
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi
    for k, n in ((5, 3), (-1, 3), (math.nan, 3)):
        with pytest.raises(ParameterError, match="successes"):
            wilson_interval(k, n)


def test_rate_fit_exact_power_laws():
    ts = np.array([10.0, 20.0, 40.0, 80.0])
    exp_, icept = rate_fit(list(zip(ts, ts ** -0.5)))
    assert exp_ == pytest.approx(-0.5, abs=1e-12)
    exp_, icept = rate_fit(list(zip(ts, 3.0 * ts ** -1.0)))
    assert exp_ == pytest.approx(-1.0, abs=1e-12)
    assert icept == pytest.approx(math.log(3.0), rel=1e-10)


def test_rate_fit_domain():
    with pytest.raises(InsufficientDataError):
        rate_fit([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ParameterError):
        rate_fit([(1.0, 1.0), (2.0, 0.5), (3.0, -0.1)])
    for bad in ((20, math.nan), (20, math.inf), (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0)):
        with pytest.raises(ParameterError):
            rate_fit([(10, 1), bad, (40, 0.3)])


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _assert_same_bits(sample, rep, stats):
    for name in ("y11", "y22", "y12", "rho", "theta_hat"):
        assert getattr(sample, name)[rep] == getattr(stats, name), name


def _row(seed, cell, rep, process, n):
    """The n+1 normals of row `rep` of the engine's stream (seed, cell, process);
    the filter overwrites node 0 with the zero start."""
    return row_normals(seed, cell, process, [rep], n + 1)[0]


def _pair_paths(theta, r, dt, z1, z0):
    """x1 and x2 of the pair driven by normals z1 and z0, filtered in place
    and mixed by the package's own rules."""
    x1, x0 = sde.filtered_paths(theta, dt, z1, z0)
    return x1, sde.mix_paths(r, x1, x0, np.empty_like(x1))


def test_engine_matches_single_path_route():
    # a single pair is a batch of one: same simulation core, same reduction;
    # the second cell has 10 001 nodes, where BLAS dot sums differ by batch
    for theta, r, T, dt, seed, cell in ((1.5, 0.4, 10.0, 0.025, 91, 3),
                                        (1.0, -0.6, 500.0, 0.05, 92, 1)):
        sample = pair_sample(theta, r, T, dt=dt, replications=5, base_seed=seed,
                             cell_index=cell)
        n = grid_size(T, dt)
        for rep in range(5):
            x1, x2 = _pair_paths(theta, r, dt, _row(seed, cell, rep, 0, n),
                                 _row(seed, cell, rep, 1, n))
            pair = PathPair(x1=SamplePath(0.0, dt, x1), x2=SamplePath(0.0, dt, x2))
            _assert_same_bits(sample, rep, yule_rho(pair))


def test_field_mode_rows_are_addressed_streams():
    # row j of mode k is row j of the streams (seed, 0, 2(k-1)) and (seed, 0, 2k-1)
    seed, reps, r, T = 17, 4, 0.3, 2.0
    samples = spde_mode_samples(3, r, T, replications=reps, base_seed=seed)
    for k, sample in enumerate(samples, start=1):
        n = grid_size(T, sample.dt)
        for j in range(reps):
            x1, x2 = _pair_paths(sample.theta, r, sample.dt,
                                 _row(seed, 0, j, 2 * (k - 1), n),
                                 _row(seed, 0, j, 2 * k - 1, n))
            y11, y22, y12 = functionals(x1, x2, sample.dt)
            assert (sample.y11[j], sample.y22[j], sample.y12[j]) == (y11, y22, y12)


def test_every_simulated_path_is_drawn_and_filtered_by_draw_paths(monkeypatch):
    # a pair, a single path, each engine row group and each field mode make
    # one draw_paths call, which names its rows' key and the shape it fills
    calls = []
    draw = sde.draw_paths

    def recording(theta, dt, first, out, seed, cell, process=0):
        calls.append((out.shape, first, seed, cell, process))
        return draw(theta, dt, first, out, seed, cell, process)
    monkeypatch.setattr(sde, "draw_paths", recording)
    simulate_correlated_pair(CorrelatedPairConfig(theta=1.0, r=0.5, horizon_T=5.0,
                                                  dt=0.05, seed=3))
    assert calls == [((2, 1, 101), 0, 3, 0, 0)]
    calls.clear()
    simulate_ou(1.0, 5.0, 0.05, 3)
    assert calls == [((1, 1, 101), 0, 3, 0, 0)]
    calls.clear()
    samples = spde_mode_samples(2, 0.3, 2.0, replications=3, base_seed=5)
    assert calls == [((2, 3, grid_size(2.0, s.dt) + 1), 0, 5, 0, 2 * k)
                     for k, s in enumerate(samples)]
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 4 * (_STEPS_1_5 + 1))  # groups of 4 rows
    for paths in (1, 2):
        calls.clear()
        pair_sample(1.0, (0.0, 0.5), 5.0, replications=10, base_seed=9, cell_index=4,
                    process_offset=6, paths=paths)
        assert calls == [((paths, rows, _STEPS_1_5 + 1), first, 9, 4, 6)
                         for first, rows in ((0, 4), (4, 4), (8, 2))], paths


def test_engine_block_size_invariance(monkeypatch):
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 1)  # one-row groups
    a = pair_sample(1.0, 0.2, 5.0, replications=64, base_seed=4, cell_index=0)
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 1000)  # force many blocks
    b = pair_sample(1.0, 0.2, 5.0, replications=64, base_seed=4, cell_index=0)
    assert len(mc._cell_blocks(64, _STEPS_1_5)) == 4
    np.testing.assert_array_equal(a.rho, b.rho)


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_rows_are_the_oracle_rows_over_whole_group_blocks(monkeypatch, jobs):
    # at the real group size rows of 20 001 normals make groups of 3 rows;
    # a budget of one row more than 1, 2 and 3 groups rounds down to blocks
    # of whole groups, which cut 23 replications into 8, 4 and 3 blocks,
    # the last one ragged (2, 5 and 5 rows), and every row is the oracle's
    # row of its stream
    theta, r, T, dt, seed, cell, reps = 1.0, 0.4, 100.0, 0.005, 21, 2, 23
    n = grid_size(T, dt)
    assert sde.group_rows(n + 1) == 3
    z1, z0 = (row_normals(seed, cell, p, range(reps), n + 1) for p in (0, 1))
    expected = functionals(*_pair_paths(theta, r, dt, z1, z0), dt)
    for groups, last in ((1, 2), (2, 5), (3, 5)):
        monkeypatch.setattr(mc, "_BLOCK_ELEMS", (groups * 3 + 1) * n)
        blocks = mc._cell_blocks(reps, n)
        assert {b - a for a, b in blocks[:-1]} == {3 * groups}, groups
        assert blocks[-1][1] - blocks[-1][0] == last and blocks[-1][1] == reps
        got = pair_sample(theta, r, T, dt=dt, replications=reps, base_seed=seed,
                          cell_index=cell, jobs=jobs)
        for name, want in zip(("y11", "y22", "y12"), expected):
            assert np.array_equal(getattr(got, name), want), (groups, name)


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_path_cell_keeps_the_pair_bits(monkeypatch, jobs):
    # a one-path cell draws process 0 alone, and its Y11 is the pair's
    # whatever the blocks, ragged ones included; groups of 3 rows make
    # blocks of 1, 2, 3 and 8 groups (the last covering all 23 rows)
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 3 * (_STEPS_1_5 + 1))
    reps = 23
    cell = dict(theta=1.0, r=0.6, horizon_T=5.0, replications=reps, base_seed=1316,
                cell_index=2)
    pair = pair_sample(**cell)
    for groups in (1, 2, 3, 8):
        monkeypatch.setattr(mc, "_BLOCK_ELEMS", groups * 3 * _STEPS_1_5)
        one = pair_sample(**cell, jobs=jobs, paths=1)
        for name in ("y11", "theta_hat"):
            assert np.array_equal(getattr(one, name), getattr(pair, name)), (groups, name)
        assert (one.rho, one.y22, one.y12) == (None, None, None)
    for statistic in ("rho_centered", "numerator_centered"):
        with pytest.raises(ParameterError, match="x2"):
            summarize_cell(one, statistic, 0.05)
    for variant in ("rho_known_theta", "rho_estimated_theta", "numerator_known_theta"):
        with pytest.raises(ParameterError, match="x2"):
            rejections(one, variant, 0.05)
        with pytest.raises(ParameterError, match="x2"):
            spde_family_rejections([pair, one], 0.05, variant)
    with pytest.raises(ParameterError, match="unknown statistic"):
        summarize_cell(pair, "nope", 0.05)
    with pytest.raises(ParameterError, match="paths"):
        pair_sample(**cell, paths=3)


_SAMPLE_FIELDS = ("y11", "y22", "y12", "rho", "theta_hat")


def _same_samples(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in _SAMPLE_FIELDS)


@pytest.mark.parametrize("paths", [1, 2])
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_tuple_of_r_gives_each_r_as_run_alone(monkeypatch, jobs, paths):
    # one draw of the group serves every r: each r's sample is the one-r
    # call's, bit for bit, over many small groups and blocks and at real
    # sizes, in the tuple's order, repeated values included
    rs = (0.3, -1.0, 0.0, 1.0, 0.3, -0.55)
    cell = dict(theta=1.0, horizon_T=5.0, replications=23, base_seed=19, cell_index=4,
                jobs=jobs, paths=paths)
    for group_elems, block_elems in ((3 * (_STEPS_1_5 + 1), 2 * 3 * _STEPS_1_5),
                                     (sde._GROUP_ELEMS, mc._BLOCK_ELEMS)):
        monkeypatch.setattr(sde, "_GROUP_ELEMS", group_elems)
        monkeypatch.setattr(mc, "_BLOCK_ELEMS", block_elems)
        shared = pair_sample(r=rs, **cell)
        assert [s.r for s in shared] == list(rs)
        for r, got in zip(rs, shared):
            alone = pair_sample(r=r, **cell)
            assert _same_samples(got, alone) and (got.theta, got.r, got.dt) == (
                alone.theta, alone.r, alone.dt), (group_elems, r)
    assert pair_sample(r=(0.3,), **cell)[0].r == 0.3  # a one-element tuple gives a list
    for bad in ((), (0.3, 1.5), (0.3, math.nan)):
        with pytest.raises(ParameterError):
            pair_sample(r=bad, **cell)


def test_r_of_minus_one_zero_and_one_mixes_to_minus_x1_x0_and_x1():
    # mix_paths is exact at the ends and the middle of [-1, 1], so the
    # engine's functionals there follow from Y11 and x0's own Y00
    theta, T, dt, seed, reps = 1.0, 5.0, default_dt(1.0, 5.0), 8, 6
    n = grid_size(T, dt)
    x1, x0 = sde.filtered_paths(theta, dt, *(row_normals(seed, 0, p, range(reps), n + 1)
                                             for p in (0, 1)))
    for r, want in ((-1.0, -x1), (0.0, x0), (1.0, x1)):
        assert np.array_equal(sde.mix_paths(r, x1, x0, np.empty_like(x1)), want), r
    minus, zero, plus = pair_sample(theta, (-1.0, 0.0, 1.0), T, replications=reps,
                                    base_seed=seed)
    y11, = functionals(x1, dt=dt)
    y00, = functionals(x0, dt=dt)
    assert np.array_equal(minus.y11, y11) and np.array_equal(zero.y22, y00)
    assert np.array_equal(minus.y22, y11) and np.array_equal(minus.y12, -y11)
    assert np.array_equal(plus.y22, y11) and np.array_equal(plus.y12, y11)


def test_a_simulated_pair_is_replication_0_of_each_r_of_group_0():
    # a pair simulated at r is entry 0 of that r's sample in a group of
    # several r, as it is of a one-r cell 0
    theta, T, dt, seed, rs = 1.0, 5.0, 0.05, 7, (0.0, -0.4, 0.8)
    samples = pair_sample(theta, rs, T, dt, replications=3, base_seed=seed)
    for r, sample in zip(rs, samples):
        pair = sde.simulate_correlated_pair(sde.CorrelatedPairConfig(
            theta=theta, r=r, horizon_T=T, dt=dt, seed=seed))
        _assert_same_bits(sample, 0, yule_rho(pair))


@pytest.mark.parametrize("paths", [1, 2])
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_tuple_of_T_reduces_a_prefix_of_the_longest_T_rows(monkeypatch, jobs, paths):
    # every T of a tuple sharing dt 0.1 is reduced from the first n_T + 1
    # nodes of the rows of the longest T (5.0: 51 nodes), bit for bit, over
    # many small groups and blocks and at real sizes, in the tuple's order,
    # a repeated T included; the longest T's entry is the one-T call's
    theta, rs, Ts, seed, cell, reps = 1.0, (0.3, -1.0), (2.5, 5.0, 1.0, 2.5), 19, 4, 23
    dt, width = 0.1, 51
    for group_elems, block_elems in ((3 * width, 2 * 3 * (width - 1)),
                                     (sde._GROUP_ELEMS, mc._BLOCK_ELEMS)):
        monkeypatch.setattr(sde, "_GROUP_ELEMS", group_elems)
        monkeypatch.setattr(mc, "_BLOCK_ELEMS", block_elems)
        z1, z0 = np.empty((2, reps, width))
        for p, z in enumerate((z1, z0)):  # the rows of T = 5.0, a group at a time
            for a in range(0, reps, sde.group_rows(width)):
                sde.draw_group(a, z[a:a + sde.group_rows(width)], seed, cell, p)
        x1, x0 = sde.filtered_paths(theta, dt, z1.copy(), z0.copy())
        shared = pair_sample(theta, rs, Ts, replications=reps, base_seed=seed,
                             cell_index=cell, jobs=jobs, paths=paths)
        assert len(shared) == len(Ts)
        for T, per_r in zip(Ts, shared):
            k = grid_size(T, dt)
            prefix = np.ascontiguousarray(x1[:, :k + 1])
            assert np.array_equal(sde.filtered_paths(theta, dt, z1[:, :k + 1].copy())[0], prefix)
            y11, = functionals(prefix, dt=dt)
            for r, got in zip(rs, per_r):
                assert (got.theta, got.r, got.dt, got.horizon_T) == (theta, r, dt, k * dt)
                assert np.array_equal(got.y11, y11), (group_elems, T)
                assert np.array_equal(got.theta_hat, rate_estimate(y11, k * dt))
                if paths == 1:
                    assert (got.y22, got.y12, got.rho) == (None, None, None)
                    continue
                x2 = sde.mix_paths(r, x1, x0, np.empty_like(x1))[:, :k + 1]
                want = functionals(prefix, np.ascontiguousarray(x2), dt)
                for name, value in zip(("y11", "y22", "y12"), want):
                    assert np.array_equal(getattr(got, name), value), (group_elems, T, r, name)
                assert np.array_equal(got.rho, mc.correlation(*want))
        alone = pair_sample(theta, rs, 5.0, replications=reps, base_seed=seed, cell_index=cell,
                            jobs=jobs, paths=paths)
        assert all(map(_same_samples, shared[1], alone))
        one = pair_sample(theta, rs[0], Ts, replications=reps, base_seed=seed,
                          cell_index=cell, jobs=jobs, paths=paths)
        assert all(map(_same_samples, one, (per_r[0] for per_r in shared)))


def test_a_tuple_of_T_refuses_each_T_that_its_dt_does_not_serve():
    # a T the dt does not divide, or leaves one step, gets its error in its
    # place and the others are simulated as without it; alone, it raises
    cell = dict(theta=1.0, dt=0.1, replications=12, base_seed=3, cell_index=1)
    got = pair_sample(r=(0.0, 0.5), horizon_T=(5.0, 5.05, 0.1, 2.5), **cell)
    want = pair_sample(r=(0.0, 0.5), horizon_T=(5.0, 2.5), **cell)
    assert all(map(_same_samples, got[0] + got[3], want[0] + want[1]))
    assert "not an integer multiple" in str(got[1]) and "one step" in str(got[2])
    assert isinstance(pair_sample(r=0.5, horizon_T=(5.0, 0.1), **cell)[1], ParameterError)
    assert all(isinstance(s, ParameterError) for s in pair_sample(r=0.5, horizon_T=(0.1,), **cell))
    for T in (5.05, 0.1):
        with pytest.raises(ParameterError):
            pair_sample(r=0.5, horizon_T=T, **cell)
    # horizons with different default steps have no common dt
    with pytest.raises(ParameterError, match="no common default dt"):
        pair_sample(1.0, 0.5, (5.0, 0.15), replications=12)


@pytest.mark.parametrize("bad", [[0.1, 0.2], "0.1", None, np.array([0.1])])
def test_an_r_or_T_that_is_not_a_number_is_refused(bad):
    # a list where the tuple form is expected, a string or None is named in
    # a ParameterError, not a TypeError from abs() or a comparison
    with pytest.raises(ParameterError, match="r must be a number"):
        pair_sample(1.0, bad, 5.0, replications=4)
    with pytest.raises(ParameterError, match="r must be a number"):
        pair_sample(1.0, (0.1, bad), 5.0, replications=4)
    with pytest.raises(ParameterError, match="horizon_T must be positive"):
        pair_sample(1.0, 0.1, bad, dt=0.1, replications=4)
    with pytest.raises(ParameterError, match="horizon_T must be positive"):
        pair_sample(1.0, 0.1, (5.0, bad), replications=4)
    with pytest.raises(ParameterError, match="need at least one"):
        pair_sample(1.0, 0.1, (), replications=4)


def test_a_simulated_pair_is_replication_0_of_cell_0_of_a_grid_of_T_and_2T(monkeypatch):
    # cell 0 (theta0, r0, T0) is row 0 of group 0, whose rows are as long as
    # 2*T0's: their first n0 + 1 nodes are the first normals of the stream,
    # which simulate draws, and the filter gives that prefix the bits of
    # the path of n0 steps
    theta, r, T, seed = 1.0, 0.4, 5.0, 13
    seen = []
    real = mc.summarize_cell

    def recording(sample, statistic, alpha):
        seen.append(sample)
        return real(sample, statistic, alpha)
    monkeypatch.setattr(mc, "summarize_cell", recording)
    grid = ExperimentGrid(thetas=(theta,), rs=(r, 0.0), horizons=(T, 2 * T),
                          replications=3, base_seed=seed, statistic="rho_centered")
    run_grid(grid, progress=lambda msg: None)
    cell0, = (s for s in seen if (s.r, s.horizon_T) == (r, T))
    pair = sde.simulate_correlated_pair(sde.CorrelatedPairConfig(
        theta=theta, r=r, horizon_T=T, dt=cell0.dt, seed=seed))
    _assert_same_bits(cell0, 0, yule_rho(pair))


def test_a_refused_T_skips_only_its_cells_and_a_refused_theta_its_group():
    # at the fixed dt 0.1, T = 5.05 is no multiple and T = 0.1 one step, so
    # only their cells are skipped; theta = 2 breaks the step cap, so every
    # cell of its group is; the others report as the grid without them
    grid = ExperimentGrid(thetas=(1.0, 2.0), rs=(0.0, 0.5), horizons=(5.0, 5.05, 0.1, 2.5),
                          replications=30, base_seed=6, dt_policy=0.1,
                          statistic="numerator_centered")
    messages = []
    reports = run_grid(grid, progress=messages.append)
    assert [(rep.theta, rep.r, rep.horizon_T) for rep in reports] == [
        (1.0, r, T) for r in (0.0, 0.5) for T in (5.0, 2.5)]
    assert [rep.csv_row() for rep in reports] == [rep.csv_row() for rep in run_grid(
        dataclasses.replace(grid, thetas=(1.0,), horizons=(5.0, 2.5)), progress=len)]
    skipped = [m for m in messages if "skipped" in m]
    assert len(skipped) == 12 and len(messages) == 16
    assert sum("not an integer multiple" in m for m in skipped) == 2
    assert sum("one step" in m for m in skipped) == 2
    assert sum("theta=2.0" in m and "step cap" in m for m in skipped) == 8


@pytest.mark.parametrize("statistic", mc.STATISTICS)
def test_draws_and_filters_do_not_grow_with_the_r_axis(monkeypatch, statistic):
    # a grid draws and filters each (theta, dt) group once, however many r
    # and T it has: Ts 25, 50 and 100 share dt at each theta, so they draw
    # the rows of T = 100 alone (one group of 40 rows at theta = 1, two of
    # 32 rows at theta = 2)
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(sde, name, call)
    counted("draw_group", sde.draw_group)
    counted("ar1_paths", sde.ar1_paths)
    grid = ExperimentGrid(thetas=(1.0, 2.0), rs=(0.0,), horizons=(100.0,),
                          replications=40, base_seed=5, statistic=statistic)
    run_grid(grid, progress=lambda m: None)
    once = dict(counts)
    assert once["draw_group"] == 3 * mc._STATISTICS[statistic][0]
    for more in (dict(rs=(0.0, 0.3, 0.5)), dict(horizons=(25.0, 50.0, 100.0)),
                 dict(rs=(0.0, 0.5), horizons=(50.0, 100.0, 25.0))):
        counts.clear()
        run_grid(dataclasses.replace(grid, **more), progress=lambda m: None)
        assert dict(counts) == once, more


@pytest.mark.parametrize("statistic", mc.STATISTICS)
def test_a_multi_r_grid_reports_each_r_as_its_one_r_grid(statistic):
    # the stream key is the (theta, T) group, so a cell's report does not
    # depend on the other r of its grid, nor on the worker count
    grid = ExperimentGrid(thetas=(1.0, 4.0), rs=(0.5, -1.0, 0.0), horizons=(5.0, 2.5),
                          replications=60, base_seed=23, statistic=statistic)
    quiet = lambda msg: None
    serial = run_grid(grid, progress=quiet)
    assert [(rep.theta, rep.r, rep.horizon_T) for rep in serial] == grid.cells()
    assert [rep.csv_row() for rep in run_grid(grid, jobs=2, progress=quiet)] == [
        rep.csv_row() for rep in serial]
    for r in grid.rs:
        alone = run_grid(dataclasses.replace(grid, rs=(r,)), progress=quiet)
        assert [rep.csv_row() for rep in alone] == [
            rep.csv_row() for rep in serial if rep.r == r], r


def test_a_group_failure_skips_its_cells_and_an_r_failure_only_its_cell(monkeypatch):
    # dt = 0.05 breaks the step cap at theta = 9, so all three of its cells
    # are skipped; at theta = 1 the r = 0.3 mix overflows (its Y22 is inf)
    # and the r = 0.5 summary is refused, and only r = 0 is reported
    mix = sde.mix_paths

    def overflowing(r, x1, x0, out):
        mix(r, x1, x0, out)
        if r == 0.3:
            out *= 1e300
        return out
    real_summary = mc.summarize_cell

    def refusing(sample, statistic, alpha):
        if sample.r == 0.5:
            raise ParameterError("refused here")
        return real_summary(sample, statistic, alpha)
    monkeypatch.setattr(sde, "mix_paths", overflowing)
    monkeypatch.setattr(mc, "summarize_cell", refusing)
    grid = ExperimentGrid(thetas=(1.0, 9.0), rs=(0.0, 0.3, 0.5), horizons=(5.0,),
                          replications=20, base_seed=2, dt_policy=0.05,
                          statistic="rho_centered")
    messages = []
    reports = run_grid(grid, progress=messages.append)
    assert [(rep.theta, rep.r) for rep in reports] == [(1.0, 0.0)]
    assert reports[0].csv_row() == run_grid(dataclasses.replace(
        grid, rs=(0.0,), thetas=(1.0,)), progress=lambda m: None)[0].csv_row()
    assert messages[:3] == [
        "cell 1/6 theta=1.0 r=0.0 T=5.0: done",
        "cell 2/6 theta=1.0 r=0.3 T=5.0: skipped (degenerate or non-finite functional)",
        "cell 3/6 theta=1.0 r=0.5 T=5.0: skipped (refused here)"]
    assert [m.split(":")[0] for m in messages[3:]] == [
        f"cell {i}/6 theta=9.0 r={r} T=5.0" for i, r in ((4, 0.0), (5, 0.3), (6, 0.5))]
    assert all("skipped (dt=0.05 exceeds step cap" in m for m in messages[3:])
    shared = pair_sample(1.0, grid.rs, 5.0, dt=0.05, replications=20, base_seed=2)
    assert isinstance(shared[1], DegenerateStatisticError)
    assert [type(s) for s in (shared[0], shared[2])] == [mc.PairSample] * 2
    with pytest.raises(DegenerateStatisticError, match="non-finite functional"):
        pair_sample(1.0, 0.3, 5.0, dt=0.05, replications=20, base_seed=2)


@pytest.mark.parametrize("paths", [1, 2])
def test_a_block_holds_one_tile_array_per_path_plus_one_scratch(paths):
    # over four row groups of 32 rows (the last ragged) a block's traced
    # peak stays below one array of (32, n+1) float64 per path (x1; x1 and
    # x0 of a pair) and one more (x2 and the reductions' products),
    # whatever the number of r and T, plus its output and a slack under
    # one such array for the iteration buffers numpy's ufuncs and einsum
    # take (about 245 kB here).  A block that also serves T = 50 holds no
    # more than one serving T = 100 alone, up to a few kB of Python objects
    n_steps, m = 2000, 120  # theta=1, T=100 at dt 0.05
    tile = sde.group_rows(n_steps + 1)
    tile_bytes, slack = 8 * tile * (n_steps + 1), 3 * 2 ** 17
    assert slack < tile_bytes
    for rs in ((0.5,), (0.0, 0.5, 1.0)):
        held = {}
        for steps in ((n_steps,), (n_steps // 2, n_steps)):
            block = (1.0, rs, steps, 0.05, 7, 0, 0, m, 0, paths)
            mc._simulate_block(*block)  # warm-up
            tracemalloc.start()
            try:
                out = mc._simulate_block(*block)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == (len(steps), 1 + 2 * len(rs) if paths == 2 else 1, m)
            held[steps] = peak - out.nbytes
            assert held[steps] < (paths + 1) * tile_bytes + slack, (rs, steps, peak / tile_bytes)
        assert held[(n_steps // 2, n_steps)] <= held[(n_steps,)] + 2 ** 12, (rs, held)


@pytest.mark.parametrize("paths", [1, 2])
def test_each_draw_names_the_shape_it_fills(monkeypatch, paths):
    # a benchmark tracer counts prod(size) normals per draw on a stream, so
    # every draw passes size == out.shape, over whole C-contiguous rows.  A
    # block of 93 rows from group 1 is one draw per group and path, and
    # its generators write exactly 93 rows of n+1 normals each: none is
    # drawn and dropped, and a second r draws nothing more
    n_steps, start, stop = 2000, 32, 125  # groups of 32 rows of 2001
    draws, written, keyed = [], [], sde.stream

    class Recording:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            return getattr(self._gen, name)

        def standard_normal(self, size=None, out=None):
            draws.append((tuple(size), out.shape, out.flags.c_contiguous))
            written.append(out.size)
            return self._gen.standard_normal(size, out=out)
    monkeypatch.setattr(sde, "stream", lambda *key: Recording(keyed(*key)))
    mc._simulate_block(1.0, (0.0, 0.5), (n_steps,), 0.05, 7, 0, start, stop, 0, paths)
    assert draws == [((k, n_steps + 1), (k, n_steps + 1), True)
                     for k in (32, 32, 29) for _ in range(paths)]
    assert sum(written) == paths * (stop - start) * (n_steps + 1)


class _RecordingPool(ThreadPoolExecutor):
    """The engine's thread pool, recording the size of every pool started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


def test_pool_never_exceeds_the_block_count(monkeypatch):
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 1)  # one-row groups
    serial = pair_sample(1.0, 0.2, 5.0, replications=40, base_seed=4)
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 10 * _STEPS_1_5)  # 4 blocks of 10 rows
    monkeypatch.setattr(mc, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    for jobs in (64, 4, 2, 1):
        pooled = pair_sample(1.0, 0.2, 5.0, replications=40, base_seed=4, jobs=jobs)
        np.testing.assert_array_equal(pooled.rho, serial.rho)
    assert _RecordingPool.sizes == [4, 4, 2]  # jobs=1 runs inline, with no pool


def test_spde_runs_one_pool_per_multi_block_mode(monkeypatch):
    # T=5: modes 1, 2, 3 take 1, 4 and 9 times _STEPS_1_5 steps; at 18 times
    # that a block, 13 replications are 1, 4 and 7 blocks (ragged ones last)
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 1)  # one-row groups
    serial = spde_mode_samples(3, 0.4, 5.0, replications=13, base_seed=8)
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 18 * _STEPS_1_5)
    monkeypatch.setattr(mc, "ThreadPoolExecutor", _RecordingPool)
    for jobs, sizes in ((64, [4, 7]), (3, [3, 3]), (1, [])):
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        pooled = spde_mode_samples(3, 0.4, 5.0, replications=13, base_seed=8, jobs=jobs)
        assert _RecordingPool.sizes == sizes, jobs  # mode 1, one block, runs inline
        for a, b in zip(serial, pooled):
            for name in ("y11", "y22", "y12", "rho", "theta_hat"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (jobs, name)


def test_more_threads_than_cores_keep_the_bits(monkeypatch):
    # blocks share no state, so a short switch interval and more threads
    # than cores change no bit
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 1)  # one-row groups
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 3 * _STEPS_1_5)  # 14 blocks of <= 3 rows
    serial = pair_sample(1.0, 0.2, 5.0, replications=40, base_seed=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = pair_sample(1.0, 0.2, 5.0, replications=40, base_seed=6, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    for name in ("y11", "y22", "y12"):
        assert np.array_equal(getattr(pooled, name), getattr(serial, name)), name


def test_jobs_start_no_child_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started a child process")
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 1)  # one-row groups
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 10 * _STEPS_1_5)  # 4 blocks per mode-1 cell
    serial = pair_sample(1.0, 0.2, 5.0, replications=40, base_seed=4)
    pooled = pair_sample(1.0, 0.2, 5.0, replications=40, base_seed=4, jobs=2)
    np.testing.assert_array_equal(pooled.rho, serial.rho)
    modes = spde_mode_samples(2, 0.2, 5.0, replications=40, base_seed=4, jobs=2)
    np.testing.assert_array_equal(modes[0].rho, serial.rho)


def test_jobs_below_one_are_refused(monkeypatch):
    def draw(*args):
        raise AssertionError("drew random numbers before refusing the input")
    monkeypatch.setattr(mc.sde, "stream", draw)
    grid = ExperimentGrid(thetas=(1.0,), rs=(0.0,), horizons=(5.0,), replications=10,
                          base_seed=0)
    for jobs in (0, -3):
        with pytest.raises(ParameterError, match="jobs"):
            pair_sample(1.0, 0.0, 5.0, replications=10, jobs=jobs)
        with pytest.raises(ParameterError, match="jobs"):
            run_grid(grid, jobs=jobs, progress=lambda m: None)


def test_engine_parallel_identical():
    a = pair_sample(1.0, 0.0, 20.0, replications=300, base_seed=10, jobs=1)
    b = pair_sample(1.0, 0.0, 20.0, replications=300, base_seed=10, jobs=2)
    np.testing.assert_array_equal(a.rho, b.rho)
    np.testing.assert_array_equal(a.y12, b.y12)


def test_rejections_variants():
    s = pair_sample(1.0, 0.0, 50.0, replications=200, base_seed=12)
    for variant in ("rho_known_theta", "rho_estimated_theta", "numerator_known_theta"):
        flags = rejections(s, variant, 0.05)
        assert flags.shape == (200,)
        assert 0.0 <= flags.mean() <= 0.2
    with pytest.raises(ParameterError):
        rejections(s, "bogus", 0.05)
    for alpha in (0.0, 1.5, math.nan):
        with pytest.raises(ParameterError):
            rejections(s, "rho_known_theta", alpha)


# ---------------------------------------------------------------------------
# Grid runs
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ParameterError):
        ExperimentGrid(thetas=(), rs=(0.0,), horizons=(10.0,), replications=10,
                       base_seed=0)
    with pytest.raises(ParameterError):
        ExperimentGrid(thetas=(1.0,), rs=(0.0,), horizons=(10.0,), replications=10,
                       base_seed=0, statistic="nope")
    # grid-wide inputs fail up front instead of skipping every cell
    good = dict(thetas=(1.0,), rs=(0.0,), horizons=(10.0,), replications=10, base_seed=0)
    for bad in ({"rs": (0.0, math.nan)}, {"rs": (1.5,)}, {"base_seed": -1},
                {"base_seed": 2 ** 64}, {"thetas": (-1.0,)}, {"horizons": (math.inf,)},
                {"dt_policy": 0.0}, {"dt_policy": -0.01}, {"dt_policy": math.nan},
                {"dt_policy": math.inf}):
        with pytest.raises(ParameterError):
            ExperimentGrid(**{**good, **bad})


def test_replications_beyond_32_bits_are_refused_before_simulating(monkeypatch):
    import yule_ou.sde as sde_mod

    def stream(*args):
        raise AssertionError("drew random numbers before refusing the input")
    monkeypatch.setattr(sde_mod, "stream", stream)
    good = dict(thetas=(1.0,), rs=(0.0,), horizons=(10.0,), base_seed=0)
    assert ExperimentGrid(replications=2 ** 32, **good).replications == 2 ** 32
    for reps in (2 ** 32 + 1, 0):
        with pytest.raises(ParameterError, match="replications"):
            ExperimentGrid(replications=reps, **good)
        with pytest.raises(ParameterError, match="replications"):
            pair_sample(1.0, 0.0, 10.0, replications=reps)


_GRID = dict(thetas=(1.0,), rs=(0.0,), horizons=(5.0,), replications=4, base_seed=1)
_PAIR = dict(theta=1.0, r=0.0, horizon_T=5.0, dt=0.05, seed=1)


@pytest.mark.parametrize("call", [
    lambda: pair_sample(True, 0.5, 5.0, replications=4),
    lambda: pair_sample(1.0, True, 5.0, replications=4),
    lambda: pair_sample(1.0, (0.0, False), 5.0, replications=4),
    lambda: pair_sample(1.0, 0.5, True, dt=0.05, replications=4),
    lambda: pair_sample(0.05, 0.5, 5.0, dt=True, replications=4),
    lambda: pair_sample(1.0, 0.5, 5.0, replications=True),
    lambda: pair_sample(1.0, 0.5, 5.0, replications=4, base_seed=False),
    lambda: pair_sample(1.0, 0.5, 5.0, replications=4, jobs=True),
    lambda: pair_sample(1.0, 0.5, 5.0, replications=4, paths=True),
    lambda: pair_sample(True, True, 5.0, replications=True, base_seed=False),
    lambda: spde_mode_samples(True, 0.0, 5.0, 4, 1),
    lambda: mc.hyp.sidak_level(0.05, True),
    lambda: CorrelatedPairConfig(**{**_PAIR, "theta": True}),
    lambda: CorrelatedPairConfig(**{**_PAIR, "r": False}),
    lambda: CorrelatedPairConfig(**{**_PAIR, "seed": True}),
    lambda: CorrelatedPairConfig(theta=True, r=False, horizon_T=5.0, dt=0.05, seed=True),
    lambda: ExperimentGrid(**{**_GRID, "thetas": (True,)}),
    lambda: ExperimentGrid(**{**_GRID, "rs": (True,)}),
    lambda: ExperimentGrid(**{**_GRID, "horizons": (True,)}),
    lambda: ExperimentGrid(**{**_GRID, "replications": True}),
    lambda: ExperimentGrid(**{**_GRID, "base_seed": False}),
    lambda: ExperimentGrid(**{**_GRID, "dt_policy": True}),
    lambda: run_grid(ExperimentGrid(**_GRID), jobs=True),
])
def test_a_bool_is_no_number(monkeypatch, call):
    # True and False are Python integers, but no count, rate, horizon or
    # correlation is given as one: each is refused before anything is drawn
    def stream(*args):
        raise AssertionError("drew random numbers before refusing the input")
    monkeypatch.setattr(sde, "stream", stream)
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("axis, bad", [("thetas", "1"), ("rs", "0.1"), ("horizons", "5"),
                                       ("rs", None), ("horizons", [5.0])])
def test_a_grid_checks_each_axis_value_before_converting_it(axis, bad):
    # float() turned '1' into 1.0, so a grid ran what pair_sample refuses;
    # the grid refuses it too, with pair_sample's message
    args = {"thetas": (bad, 0.0, 5.0), "rs": (1.0, bad, 5.0), "horizons": (1.0, 0.0, bad)}
    with pytest.raises(ParameterError) as direct:
        pair_sample(*args[axis], dt=0.05, replications=4)
    with pytest.raises(ParameterError, match=re.escape(str(direct.value))):
        ExperimentGrid(**{**_GRID, axis: (bad,)})


def test_a_grid_converts_its_numbers_to_floats():
    grid = ExperimentGrid(**{**_GRID, "thetas": (1, np.float32(2.0)), "rs": (0, np.int64(1)),
                             "horizons": (5,)})
    assert (grid.thetas, grid.rs, grid.horizons) == ((1.0, 2.0), (0.0, 1.0), (5.0,))
    assert all(type(v) is float for v in grid.thetas + grid.rs + grid.horizons)


def test_seeds_counts_and_workers_must_be_integers(monkeypatch):
    # int() used to truncate a float seed to another seed's numbers, and a
    # float count failed in range() with a TypeError; numpy integers pass
    want = pair_sample(1.0, 0.0, 5.0, replications=10, base_seed=2)
    got = pair_sample(1.0, 0.0, 5.0, replications=np.int64(10), base_seed=np.uint64(2),
                      jobs=np.int32(2))
    assert all(np.array_equal(getattr(want, k), getattr(got, k)) for k in ("y11", "y12"))

    def stream(*args):
        raise AssertionError("drew random numbers before refusing the input")
    monkeypatch.setattr(sde, "stream", stream)
    good = dict(replications=10, base_seed=2)
    grid = dict(thetas=(1.0,), rs=(0.0,), horizons=(5.0,))
    for key, bad in (("base_seed", 2.5), ("base_seed", np.float64(2.0)),
                     ("replications", 2.5), ("replications", 10.0)):
        name = key.removeprefix("base_")
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            pair_sample(1.0, 0.0, 5.0, **{**good, key: bad})
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            ExperimentGrid(**grid, **{**good, key: bad})
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            spde_mode_samples(2, 0.0, 5.0, **{**good, key: bad})
    with pytest.raises(ParameterError, match="jobs must be an integer"):
        pair_sample(1.0, 0.0, 5.0, jobs=2.5, **good)
    with pytest.raises(ParameterError, match="jobs must be an integer"):
        run_grid(ExperimentGrid(**grid, **good), jobs=2.5)
    with pytest.raises(ParameterError, match="n_modes must be an integer"):
        spde_mode_samples(2.5, 0.0, 5.0, 10, 1)
    with pytest.raises(ParameterError, match="seed must be an integer"):
        sde.CorrelatedPairConfig(theta=1.0, r=0.0, horizon_T=5.0, dt=0.1, seed=2.5)


def test_run_grid_basic_and_deterministic():
    grid = ExperimentGrid(thetas=(1.0,), rs=(0.0,), horizons=(20.0,),
                          replications=400, base_seed=3,
                          statistic="rho_centered")
    quiet = lambda msg: None
    reports = run_grid(grid, progress=quiet)
    again = run_grid(grid, progress=quiet)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.n == 400
    assert abs(rep.mean) < 0.2
    assert abs(rep.variance - 1.0) < 0.35
    assert rep.to_dict() == again[0].to_dict()


def test_run_grid_parallel_matches_serial():
    grid = ExperimentGrid(thetas=(1.0,), rs=(0.3,), horizons=(10.0,),
                          replications=600, base_seed=8,
                          statistic="numerator_centered")
    quiet = lambda msg: None
    serial = run_grid(grid, jobs=1, progress=quiet)
    parallel = run_grid(grid, jobs=2, progress=quiet)
    assert serial[0].csv_row() == parallel[0].csv_row()


@pytest.mark.parametrize("statistic", mc.STATISTICS)
def test_run_grid_rows_equal_the_pair_summary(statistic):
    # a grid simulates only the paths its statistic reads; its rows are the
    # summaries of the full pair on the same cell index
    grid = ExperimentGrid(thetas=(1.0, 4.0), rs=(0.5,), horizons=(5.0,),
                          replications=200, base_seed=21, statistic=statistic)
    reports = run_grid(grid, progress=lambda msg: None)
    assert len(reports) == 2
    for index, ((theta, r, T), rep) in enumerate(zip(grid.cells(), reports)):
        pair = pair_sample(theta, r, T, replications=200, base_seed=21, cell_index=index)
        assert rep.csv_row() == summarize_cell(pair, statistic, grid.alpha).csv_row()


def test_y11_grids_never_key_the_second_process(monkeypatch):
    # (cell, process) of every stream a grid keys, one per process and group
    keys = []
    keyed = mc.sde.stream

    def recording(seed, cell, process, group):
        assert group == 0  # 30 replications are one group
        keys.append((cell, process))
        return keyed(seed, cell, process, group)
    monkeypatch.setattr(mc.sde, "stream", recording)
    # T = 5 and T = 10 share dt 0.1, so they are one group, keyed once
    for statistic, expected in (("ybar_centered", [(0, 0)]),
                                ("theta_hat_centered", [(0, 0)]),
                                ("rho_centered", [(0, 0), (0, 1)]),
                                ("numerator_centered", [(0, 0), (0, 1)])):
        keys.clear()
        grid = ExperimentGrid(thetas=(1.0,), rs=(0.5,), horizons=(5.0, 10.0),
                              replications=30, base_seed=3, statistic=statistic)
        run_grid(grid, progress=lambda msg: None)
        assert keys == expected, statistic


def test_run_grid_skips_invalid_cell():
    # fixed dt violates the step cap at theta=9 but not theta=1
    grid = ExperimentGrid(thetas=(1.0, 9.0), rs=(0.0,), horizons=(10.0,),
                          replications=8, base_seed=0, dt_policy=0.05,
                          statistic="rho_centered")
    messages = []
    reports = run_grid(grid, progress=messages.append)
    assert len(reports) == 1
    assert any("skipped" in m for m in messages)
    # a grid with no cell left to run is refused, not reported empty
    with pytest.raises(ParameterError, match="every cell"):
        run_grid(dataclasses.replace(grid, thetas=(9.0,)), progress=lambda m: None)


def test_single_replication_flags_variance_undefined():
    grid = ExperimentGrid(thetas=(1.0,), rs=(0.0,), horizons=(5.0,),
                          replications=1, base_seed=1, statistic="rho_centered")
    rep = run_grid(grid, progress=lambda m: None)[0]
    assert math.isnan(rep.variance)
    assert math.isnan(rep.k3)
    assert rep.n == 1


def test_summarize_cell_refuses_k_statistics_that_overflow():
    # theta_hat near 1 at theta = 1e-300 standardizes to about 1e150, whose k4 overflows
    y11 = np.array([1.0, 0.5, 0.25, 2.0])
    sample = mc.PairSample(y11=y11, y22=None, y12=None, rho=None,
                           theta_hat=rate_estimate(y11, 2.0), horizon_T=2.0,
                           theta=1e-300, r=0.0, dt=1.0)
    with pytest.raises(ParameterError, match="k-statistics are not finite"):
        summarize_cell(sample, "theta_hat_centered", 0.05)


def test_report_csv_layout():
    import io
    sample = pair_sample(1.0, 0.0, 10.0, replications=50, base_seed=2)
    rep = summarize_cell(sample, "rho_centered", 0.05)
    buf = io.StringIO()
    write_reports_csv(buf, [rep])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "theta,r,T,n,mean,var,k3,k4,d_kol,reject_rate,ci_lo,ci_hi"
    assert len(lines) == 2 and len(lines[1].split(",")) == 12


# ---------------------------------------------------------------------------
# Multi-mode replications
# ---------------------------------------------------------------------------

def test_spde_mode_samples_rates_and_family():
    samples = spde_mode_samples(2, 0.0, 10.0, replications=150, base_seed=5)
    assert [s.theta for s in samples] == [1.0, 4.0]
    outcomes, family = spde_family_rejections(samples, 0.05)
    assert [out.reject.shape for out in outcomes] == [(150,), (150,)]
    np.testing.assert_array_equal(family, outcomes[0].reject | outcomes[1].reject)


@pytest.mark.parametrize("call, error", [
    (lambda: kolmogorov_distance([]), InsufficientDataError),
    (lambda: wilson_interval(0, 0), ParameterError),
], ids=["empty sample", "no trials"])
def test_diagnostics_refuse_an_empty_sample(call, error):
    with pytest.raises(error):
        call()
