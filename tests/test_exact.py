"""Exact moments of the discrete functionals (yule_ou.exact): the O(n)
traces against dense linear algebra, the benchmark's independent oracle
and the engine, the step cap's claim that quadrature bias stays below
Monte Carlo noise, and the figures the README quotes."""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from yule_ou import cli, exact, sde
from yule_ou.errors import ParameterError
from yule_ou.estimators import trapezoid_weights
from yule_ou.mc import pair_sample

ROOT = Path(__file__).resolve().parents[1]


def _dense_s(theta, dt, n_steps):
    """S = A C on the n+1 grid nodes, built entry by entry."""
    i = np.arange(n_steps + 1)
    var = -np.expm1(-2.0 * theta * dt * i) / (2.0 * theta)
    cov = np.exp(-theta * dt * np.abs(i[:, None] - i)) * var[np.minimum.outer(i, i)]
    w = trapezoid_weights(n_steps + 1, dt)
    return (np.diag(w) - np.outer(w, w) / (n_steps * dt)) @ cov


@pytest.mark.parametrize("theta, dt, n_steps", [
    (1.0, 0.1, 1500), (1.0, 0.05, 1000), (4.0, 0.02, 300), (9.0, 0.1 / 9, 450),
    (0.5, 0.1, 30), (0.01, 1.0, 5), (1.0, 0.1, 2), (1.0, 0.1, 1),
])
def test_traces_match_dense_matrices(theta, dt, n_steps):
    s = _dense_s(theta, dt, n_steps)
    tr_s, tr_s2 = exact.traces(theta, dt, n_steps)
    assert tr_s == pytest.approx(np.trace(s), rel=1e-12, abs=0)
    assert tr_s2 == pytest.approx(np.trace(s @ s), rel=1e-12, abs=0)


def _oracle():
    """perfbench/oracle.py, the benchmark's own O(n) E[Y11], loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle",
                                                  ROOT / "perfbench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("theta, horizon_T", [(1.0, 500.0), (1.0, 25.0), (9.0, 50.0),
                                              (0.3, 7.0), (0.01, 2.0)])
def test_mean_matches_the_benchmark_oracle(theta, horizon_T):
    dt = horizon_T / max(2, math.ceil(theta * horizon_T / sde.STEP_CAP))
    n = sde.grid_size(horizon_T, dt)
    assert exact.traces(theta, dt, n)[0] == pytest.approx(
        _oracle().exact_mean_y11(theta, dt, n), rel=1e-12, abs=0)


@pytest.mark.parametrize("theta", [1.0, 4.0])
def test_variance_bias_is_quadratic_in_the_step(theta):
    # the Richardson bias of tr S^2 is c (theta dt)^2 with one c across
    # halvings of the step, and the mean's closed-form limit is the
    # Richardson limit of tr S
    horizon_T, steps = 50.0, [sde.STEP_CAP / theta / 2 ** k for k in range(3)]
    biases = [exact.relative_bias(theta, horizon_T, dt) for dt in steps]
    c = [var / (theta * dt) ** 2 for dt, (_, var) in zip(steps, biases)]
    assert 0.3 < c[0] < 0.4
    assert max(c) / min(c) < 1.01, c
    assert all(mean < 0 for mean, _ in biases)
    n = sde.grid_size(horizon_T, steps[-1])
    tr = [exact.traces(theta, steps[-1] / 2 ** k, n * 2 ** k)[0] for k in range(3)]
    r1 = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(tr, tr[1:])]
    assert (16.0 * r1[1] - r1[0]) / 15.0 == pytest.approx(
        exact.continuum_mean_y11(theta, horizon_T), rel=1e-9)


# Every cell the acceptance suite simulates in a session fixture, as
# (theta, r, T, replications): cell_r0_T500, cell_r05_T500, decay_cells,
# null_cell_T200, power_cells and the three modes of both spde_cells.
_ACCEPTANCE_CELLS = (
    [(1.0, 0.0, 500.0, 10000), (1.0, 0.5, 500.0, 10000)]
    + [(1.0, 0.5, T, 20000) for T in (25.0, 50.0, 100.0, 200.0, 400.0)]
    + [(1.0, 0.0, 200.0, 10000)]
    + [(1.0, 0.3, T, 5000) for T in (50.0, 100.0, 200.0, 400.0)]
    + [(float(k * k), r, 50.0, 5000) for r in (0.3, 0.0) for k in (1, 2, 3)])


@pytest.mark.parametrize("theta, r, horizon_T, reps", _ACCEPTANCE_CELLS)
def test_quadrature_bias_at_the_step_cap_is_below_half_a_monte_carlo_se(
        theta, r, horizon_T, reps):
    # the claim of the sde.STEP_CAP comment, on the default grid of each cell
    dt = sde.default_dt(theta, horizon_T)
    mean11, var11, mean12, var12 = exact.moments(theta, r, dt,
                                                 sde.grid_size(horizon_T, dt))
    mean_bias, var_bias = exact.relative_bias(theta, horizon_T, dt)
    for mean, var in ((mean11, var11), (mean12, var12)):
        assert abs(mean_bias * mean) <= 0.5 * math.sqrt(var / reps)
        # a variance estimated from reps draws has SE var * sqrt(2/reps)
        assert abs(var_bias * var) <= 0.5 * var * math.sqrt(2.0 / reps)


def test_engine_moments_agree_with_the_exact_ones():
    theta, r, horizon_T, reps = 1.0, 0.5, 25.0, 4000
    sample = pair_sample(theta, r, horizon_T, replications=reps, base_seed=1801)
    want = exact.moments(theta, r, sample.dt, sde.grid_size(horizon_T, sample.dt))
    for (mean, var), y in zip((want[:2], want[2:]), (sample.y11, sample.y12)):
        assert abs(y.mean() - mean) < 4.0 * math.sqrt(var / reps)
        var_se = np.std((y - y.mean()) ** 2, ddof=1) / math.sqrt(reps)
        assert abs(y.var(ddof=1) - var) < 4.0 * var_se


def test_readme_quotes_the_step_cap():
    quoted = re.findall(r"STEP_CAP = ([0-9.]+)", (ROOT / "README.md").read_text())
    assert quoted and all(float(v) == sde.STEP_CAP for v in quoted), quoted


def test_readme_quotes_the_mc_example_as_it_prints_now(capsys):
    # the README's change-in-numbers paragraphs quote one mc run; the mean
    # and var it "reports ... now" are those this code prints, to the
    # quoted digits
    text = " ".join((ROOT / "README.md").read_text().split())
    (argv, mean, var), = re.findall(r"`(mc [^`]*)`[^`]* reports (\S+) and (\S+) now", text)
    assert cli.main(argv.split()) == 0
    lines = capsys.readouterr().out.splitlines()
    row = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
    for quoted, name in ((mean, "mean"), (var, "var")):
        digits = len(quoted.partition(".")[2])
        assert f"{row[name]:.{digits}f}" == quoted, name


def test_readme_quotes_the_simulate_row_as_it_writes_now(tmp_path):
    # the README's change-in-numbers paragraphs quote one simulate run's row
    # at t = 0.01; the row it "is ... now" is the one this code writes
    text = " ".join((ROOT / "README.md").read_text().split())
    (argv, t, row), = re.findall(r"`(simulate [^`]*)`, its row at `t = ([^`]*)`, was `[^`]*` "
                                 r"and is `([^`]*)` now", text)
    out = tmp_path / "pair.csv"
    assert cli.main([*argv.split(), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert [line for line in rows if line.split(",")[0] == t] == [f"{t},{row}"]


@pytest.mark.parametrize("n_steps", [0, -1])
def test_traces_refuse_a_grid_without_steps(n_steps):
    with pytest.raises(ParameterError, match="at least one step"):
        exact.traces(1.0, 0.1, n_steps)
