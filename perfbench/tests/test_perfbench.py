"""Tests of the benchmark itself: worker-count bit identity, traced runs that
change no output, the exact oracle, and output checks that fail the run.

    python -m pytest perfbench/tests
"""

import json

import numpy as np
import pytest

from perfbench import run
from perfbench.oracle import exact_mean_y11, exact_mean_y12
from perfbench.tracer import Tracer
from perfbench.workloads import McWorkload, PairWorkload, SpdeWorkload, invoke
from yule_ou import cli, hypothesis, mc, sde

SMALL = {
    "mc": McWorkload("mc", thetas=(1.0,), rs=(0.0, 0.5), Ts=(25.0,), reps=300,
                     statistic="ybar_centered"),
    "mc-num": McWorkload("mc-num", thetas=(1.0,), rs=(0.5,), Ts=(20.0,), reps=300,
                         statistic="numerator_centered"),
    "spde": SpdeWorkload("spde", N=3, r=0.0, T=20.0, reps=60, variant="rho", jobs=1),
    "pair": PairWorkload("pair", theta=1.0, r=0.5, T=5.0, dt=0.01),
}


@pytest.fixture
def small_blocks(monkeypatch):
    """Several blocks per cell, so that jobs=2 really uses the pool."""
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 20_000)


# ---------------------------------------------------------------------------
# Bit identity across worker counts
# ---------------------------------------------------------------------------

def test_mc_report_identical_for_one_and_two_jobs(small_blocks):
    outputs = [invoke(McWorkload("mc", (1.0,), (0.0, 0.5), (25.0,), 300,
                                 "ybar_centered", jobs=jobs).argv(5))
               for jobs in (1, 2)]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_spde_outputs_identical_for_one_and_two_jobs(small_blocks, tmp_path):
    outputs = []
    for jobs in (1, 2):
        workload = SpdeWorkload("spde", N=3, r=0.0, T=20.0, reps=60, variant="rho",
                                jobs=jobs)
        unit = workload.run(7, str(tmp_path))
        assert unit.failures == []
        outputs.append(unit.outputs)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Tracing changes no output and leaves the package as it found it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_identical(name, tmp_path):
    workload = SMALL[name]
    plain = workload.run(3, str(tmp_path))
    tracer = Tracer(name)
    with tracer:
        traced = workload.run(3, str(tmp_path))
    assert plain.failures == traced.failures == []
    assert plain.outputs == traced.outputs
    assert workload.check(plain.outputs) == []
    layers = tracer.layer_metrics(1)
    assert layers["cli.main.calls"] == plain.attempted
    assert layers["sde.stream.calls"] > 0


def test_tracer_restores_every_binding():
    before = (cli.main, cli.yule_rho, hypothesis.upper_quantile, hypothesis.rho_test,
              mc.upper_quantile, mc.norm_cdf, mc.pair_sample, sde.stream, sde.ar1_paths)
    with Tracer("restore"):
        assert sde.stream is not before[7]
    after = (cli.main, cli.yule_rho, hypothesis.upper_quantile, hypothesis.rho_test,
             mc.upper_quantile, mc.norm_cdf, mc.pair_sample, sde.stream, sde.ar1_paths)
    assert after == before


def test_layer_metrics_split_self_time():
    tracer = Tracer("self")
    with tracer:
        out = sde.simulate_correlated_pair(
            sde.CorrelatedPairConfig(theta=1.0, r=0.5, horizon_T=10.0, dt=0.01, seed=1))
    assert out.x1.values.size == 1001
    layers = tracer.layer_metrics(1)
    assert layers["sde.stream.calls"] == 2
    assert layers["sde.draw.normals"] == 2000
    assert layers["sde.ar1_paths.calls"] == 2
    assert layers["sde.ar1_paths.bytes_computed"] == 2 * 8 * (2 * 1000 + 1)
    total = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    self_sum = sum(layers[k] for k in ("sde.stream.self_s", "sde.draw.self_s",
                                       "sde.ar1_paths.self_s",
                                       "sde.simulate_correlated_pair.self_s"))
    assert self_sum == pytest.approx(total, rel=1e-9)


# ---------------------------------------------------------------------------
# The exact oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta,T,n", [(1.0, 10.0, 200), (4.0, 5.0, 250), (0.5, 20.0, 199)])
def test_exact_mean_matches_dense_quadratic_form(theta, T, n):
    dt = T / n
    t = dt * np.arange(n + 1)
    C = np.array([[sde.ou_covariance(theta, a, b) for b in t] for a in t])
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    dense = float(w @ np.diag(C) - w @ C @ w / T)
    assert exact_mean_y11(theta, dt, n) == pytest.approx(dense, rel=1e-12)
    assert exact_mean_y12(theta, 0.3, dt, n) == pytest.approx(0.3 * dense, rel=1e-12)


# ---------------------------------------------------------------------------
# Output checks detect wrong outputs, and a failed check fails the run
# ---------------------------------------------------------------------------

def _replace_field(text, row, col, value):
    lines = text.splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if ln[0].isdigit() or ln[0] == "-"]
    fields = lines[data[row]].rstrip("\n").split(",")
    fields[col] = value
    lines[data[row]] = ",".join(fields) + "\n"
    return "".join(lines)


def test_mc_check_flags_a_shifted_mean(tmp_path):
    workload = SMALL["mc"]
    unit = workload.run(4, str(tmp_path))
    assert workload.check(unit.outputs) == []
    report = unit.outputs[0]
    mean = float(report.splitlines()[2].split(",")[4])
    shifted = _replace_field(report, 0, 4, repr(mean + 1.0))
    assert any("mean z" in f for f in workload.check((shifted,)))
    assert workload.check((_replace_field(report, 1, 3, "299"),)) != []
    assert workload.check((_replace_field(report, 1, 5, "nan"),)) != []


def test_spde_check_flags_a_flipped_flag(tmp_path):
    workload = SMALL["spde"]
    unit = workload.run(4, str(tmp_path))
    report, rows = unit.outputs
    first = [ln for ln in rows.splitlines() if ln.startswith("rho_known_theta")][0]
    flipped = first[:-1] + ("0" if first.endswith("1") else "1")
    assert workload.check((report, rows.replace(first, flipped, 1))) != []


def test_pair_check_flags_a_wrong_statistic(tmp_path):
    workload = SMALL["pair"]
    unit = workload.run(4, str(tmp_path))
    num = json.loads(unit.outputs[4])
    num["statistic"] *= 1.0 + 1e-9
    assert workload.check(unit.outputs[:4] + (json.dumps(num),)) != []


class _FailingCheck(McWorkload):
    def check(self, outputs):
        return ["forced failure"]


def test_failed_check_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    registry = {"mc-short": _FailingCheck("mc-short", (1.0,), (0.0,), (5.0,), 50,
                                          "ybar_centered")}
    code = run.main(["--workload", "mc-short", "--seed", "1", "--seconds", "0.01",
                     "--trace", "0"], registry=registry)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_missing_package_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "mc-short", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
