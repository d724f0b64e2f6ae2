"""CLI contract: subcommands, exit codes, config merging, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yule_ou import hypothesis as hyp
from yule_ou import mc, sde, theory
from yule_ou.cli import _THEORY, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_row_count_and_header(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    code, _, _ = run_cli(capsys, "simulate", "--theta", "1", "--r", "0.5",
                         "--T", "100", "--dt", "0.01", "--seed", "7",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "t,x1,x2"
    assert len(lines) - 2 == 10001  # one row per grid node


def test_simulate_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--theta", "1", "--r", "0.3", "--T", "5", "--dt",
            "0.05", "--seed", "11")
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_missing_theta_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--r", "0.5", "--T", "5",
                           "--dt", "0.05", "--seed", "1")
    assert code == 2
    assert "--theta" in err


def test_simulate_bad_domain_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--theta", "-1", "--r", "0.5",
                           "--T", "5", "--dt", "0.05", "--seed", "1")
    assert code == 2


def _one_error_line(err):
    return err.count("\n") == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# stat / test
# ---------------------------------------------------------------------------

@pytest.fixture()
def pair_csv(tmp_path, capsys):
    path = tmp_path / "pair.csv"
    code, _, _ = run_cli(capsys, "simulate", "--theta", "1", "--r", "0.5",
                         "--T", "50", "--dt", "0.05", "--seed", "3",
                         "--out", str(path))
    assert code == 0
    return path


def test_stat_json(pair_csv, capsys):
    code, out, _ = run_cli(capsys, "stat", "--input", str(pair_csv))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"y11", "y22", "y12", "rho", "theta_hat", "T"}
    assert abs(payload["rho"]) <= 1.0
    assert payload["T"] == pytest.approx(50.0)


def test_test_rho_variant_threshold(pair_csv, capsys):
    code, out, _ = run_cli(capsys, "test", "--variant", "rho", "--alpha", "0.05",
                           "--theta", "4", "--input", str(pair_csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["threshold"] == pytest.approx(0.979982, abs=1e-6)
    assert payload["variant"] == "rho_known_theta"
    assert isinstance(payload["reject"], bool)


def test_test_estimated_variant_needs_no_theta(pair_csv, capsys):
    code, out, _ = run_cli(capsys, "test", "--variant", "rho-est",
                           "--input", str(pair_csv))
    assert code == 0
    assert json.loads(out)["threshold"] == pytest.approx(1.959964, abs=1e-6)


def test_test_num_variant_requires_theta(pair_csv, capsys):
    code, _, err = run_cli(capsys, "test", "--variant", "num",
                           "--input", str(pair_csv))
    assert code == 2
    assert "--theta" in err


@pytest.mark.parametrize("theta", ["inf", "nan", "0"])
def test_test_known_theta_must_be_finite_positive(pair_csv, capsys, theta):
    # theta=inf used to give threshold 0.0, reject true and "theta": Infinity
    for variant in ("rho", "num"):
        code, out, err = run_cli(capsys, "test", "--variant", variant, "--theta", theta,
                                 "--input", str(pair_csv))
        assert (code, out) == (2, "")
        assert _one_error_line(err)


@pytest.mark.parametrize("command", [("stat",), ("test", "--variant", "rho", "--theta", "1"),
                                     ("test", "--variant", "rho-est"),
                                     ("test", "--variant", "num", "--theta", "1")])
def test_functionals_overflowing_to_nan_exit_2(tmp_path, capsys, command):
    # finite values whose functionals overflow used to print NaN/Infinity with exit 0
    big = tmp_path / "big.csv"
    big.write_text("t,x1,x2\n0,1e308,1e308\n1,-1e308,1e308\n2,1e308,-1e308\n")
    code, out, err = run_cli(capsys, *command, "--input", str(big))
    assert (code, out) == (2, "")
    assert _one_error_line(err)


def test_malformed_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1,x2\n0.0,1.0\n")
    code, out, err = run_cli(capsys, "test", "--variant", "rho", "--theta", "1",
                             "--input", str(bad))
    assert code == 1
    assert out == ""  # no partial output


# ---------------------------------------------------------------------------
# mc / spde / theory
# ---------------------------------------------------------------------------

def test_mc_report_csv(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    jsonl = tmp_path / "mc.jsonl"
    code, _, err = run_cli(capsys, "mc", "--thetas", "1", "--rs", "0,0.5",
                           "--Ts", "10", "--reps", "60", "--seed", "5",
                           "--statistic", "rho_centered", "--out", str(out),
                           "--jsonl", str(jsonl))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "theta,r,T,n,mean,var,k3,k4,d_kol,reject_rate,ci_lo,ci_hi"
    assert len(lines) == 4  # two cells
    assert len(jsonl.read_text().splitlines()) == 2
    assert "done" in err  # progress on stderr


def test_mc_jobs_do_not_change_output(tmp_path, capsys):
    outs = []
    for jobs, name in ((1, "one.csv"), (2, "two.csv")):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "mc", "--thetas", "1", "--rs", "0",
                             "--Ts", "20", "--reps", "400", "--seed", "9",
                             "--statistic", "numerator_centered",
                             "--jobs", str(jobs), "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_spde_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "modes.csv"
    code, out, _ = run_cli(capsys, "spde", "--N", "2", "--alpha", "0.05",
                           "--r", "0", "--T", "10", "--reps", "50",
                           "--seed", "13", "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["N"] == 2
    assert len(payload["per_mode"]) == 2
    assert payload["per_mode"][1]["theta"] == 4.0
    assert 0.0 <= payload["family_reject_rate"] <= 1.0
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "variant,alpha,theta,r,T,statistic,threshold,reject"
    assert len(lines) == 2 + 2 * 50  # per replication per mode


@pytest.mark.parametrize("flags", [(), ("--sidak",), ("--variant", "num")],
                         ids=["rho", "rho-sidak", "num"])
def test_spde_csv_reproduces_the_json_rates(tmp_path, capsys, flags):
    csv_path = tmp_path / "modes.csv"
    code, out, _ = run_cli(capsys, "spde", "--N", "3", "--r", "0.3", "--T", "5",
                           "--reps", "40", "--seed", "4", "--csv", str(csv_path), *flags)
    assert code == 0
    report = json.loads(out)
    variant = report["config"]["variant"]
    level = hyp.sidak_level(0.05, 3) if "--sidak" in flags else 0.05
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
    assert [float(row[2]) for row in rows] == [1.0, 4.0, 9.0] * 40  # replication by mode
    for row in rows:
        assert row[0] == variant and float(row[1]) == level
        assert float(row[6]) == hyp.critical_value(variant, level, float(row[2]))
    flags_by_rep = np.array([row[7] == "1" for row in rows]).reshape(40, 3)
    assert [m["reject_rate"] for m in report["per_mode"]] == list(flags_by_rep.mean(axis=0))
    assert report["family_reject_rate"] == flags_by_rep.any(axis=1).mean()
    assert 0 < flags_by_rep.sum() < flags_by_rep.size  # both outcomes occur


@pytest.mark.parametrize("block_elems", [None, 6300, 900])
def test_spde_bytes_do_not_depend_on_jobs_or_blocks(tmp_path, capsys, monkeypatch,
                                                    block_elems):
    # T=5: modes 1, 2, 3 take 100, 400 and 900 steps.  By default each mode
    # is one block; at 6300 innovations mode 1 is one block, mode 2 two
    # (15 + 8 rows) and mode 3 four (7, 7, 7, 2); at 900, mode 3 has
    # one-row blocks and modes 1 and 2 ragged last blocks
    outputs = set()
    for elems in (None, block_elems):
        if elems is not None:
            monkeypatch.setattr(mc, "_BLOCK_ELEMS", elems)
        for jobs in ("1", "2", "3"):
            csv_path = tmp_path / f"modes-{jobs}.csv"
            code, out, _ = run_cli(capsys, "spde", "--N", "3", "--r", "0.3", "--T", "5",
                                   "--reps", "23", "--seed", "11", "--jobs", jobs,
                                   "--csv", str(csv_path))
            assert code == 0
            outputs.add((out, csv_path.read_bytes()))
    assert len(outputs) == 1


def _fail_on_block_2_of_4(monkeypatch):
    """Make the engine fail on block 2 of 4 (cell 0, rows 10-19, at 100 steps
    a row), holding block 1 until its pool shuts down; return the (cell,
    start row) of every block that ran."""
    started, shut = [], threading.Event()
    real = mc._simulate_block

    class Pool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            shut.clear()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            shut.set()
            super().shutdown(*args, **kwargs)

    def simulate(theta, r, horizon_T, dt, base_seed, cell_index, start, stop, *rest):
        started.append((cell_index, start))
        if cell_index == 0 and start == 10:
            raise MemoryError("block 2 of 4")
        if cell_index == 0 and start == 0:
            shut.wait(30)  # still running when block 2 fails
        return real(theta, r, horizon_T, dt, base_seed, cell_index, start, stop, *rest)
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 1000)
    monkeypatch.setattr(mc, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(mc, "_simulate_block", simulate)
    return started


def test_a_failed_block_stops_its_pool(tmp_path, capsys, monkeypatch):
    started = _fail_on_block_2_of_4(monkeypatch)
    code, out, err = run_cli(capsys, "spde", "--N", "1", "--r", "0", "--T", "5",
                             "--reps", "40", "--seed", "1", "--jobs", "2")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "block 2 of 4" in err
    assert sorted(started) == [(0, 0), (0, 10)]  # blocks 3 and 4 never ran
    # mc skips the failed cell and runs the next one (cell 1, 4 blocks)
    started.clear()
    code, _, err = run_cli(capsys, "mc", "--thetas", "1", "--rs", "0,0.5", "--Ts", "5",
                           "--reps", "40", "--seed", "1", "--statistic", "rho_centered",
                           "--jobs", "2", "--out", str(tmp_path / "mc.csv"))
    assert code == 0
    assert "cell 1/2" in err and "skipped (block 2 of 4)" in err and "cell 2/2" in err
    assert sorted(started) == [(0, 0), (0, 10), (1, 0), (1, 10), (1, 20), (1, 30)]
    assert len((tmp_path / "mc.csv").read_text().splitlines()) == 3


def test_theory_clt_var_rho_delta(capsys):
    code, out, _ = run_cli(capsys, "theory", "--quantity", "clt_var_rho_delta",
                           "--theta", "2", "--r", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == theory.clt_variance_rho_delta(2.0, 0.5) == 0.28125
    assert payload["params"] == {"theta": 2.0, "r": 0.5}


def test_theory_sigma(capsys):
    code, out, _ = run_cli(capsys, "theory", "--quantity", "sigma",
                           "--theta", "1", "--r", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.5, rel=1e-12)
    assert payload["quantity"] == "sigma"
    assert payload["params"] == {"theta": 1.0, "r": 0.0}


def test_spde_alpha_out_of_range_exits_2(capsys, monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("modes simulated before the level was checked")
    monkeypatch.setattr(mc, "spde_mode_samples", simulate)
    for sidak in ((), ("--sidak",)):
        code, out, err = run_cli(capsys, "spde", "--N", "2", "--alpha", "1.5", "--r", "0",
                                 "--T", "5", "--reps", "10", "--seed", "1", *sidak)
        assert code == 2 and out == ""
        assert _one_error_line(err) and "alpha" in err
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "spde", "--N", "0", "--sidak", "--r", "0",
                             "--T", "5", "--reps", "10", "--seed", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "n_modes" in err


def test_spde_refuses_the_top_mode_grid_before_simulating(capsys, monkeypatch):
    def draw(*args):
        raise AssertionError("simulated a mode before checking the top mode's grid")
    monkeypatch.setattr(sde, "stream", draw)
    code, out, err = run_cli(capsys, "spde", "--N", "100", "--r", "0", "--T", "100",
                             "--reps", "1", "--seed", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "MAX_STEPS" in err


@pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "inf"])
def test_mc_bad_dt_fails_before_simulating(capsys, monkeypatch, dt):
    # a dt no cell can use used to skip every cell, one note each, first
    def draw(*args):
        raise AssertionError("simulated a cell before checking dt")
    monkeypatch.setattr(sde, "stream", draw)
    code, out, err = run_cli(capsys, "mc", "--thetas", "1,2", "--rs", "0", "--Ts", "5",
                             "--reps", "10", "--seed", "1", "--statistic", "rho_centered",
                             "--dt", dt)
    assert code == 2 and out == ""
    assert _one_error_line(err) and "dt" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    code, out, err = run_cli(capsys, "mc", "--thetas", "1", "--rs", "0", "--Ts", "5",
                             "--reps", "10", "--seed", "1", "--statistic", "rho_centered",
                             "--jobs", jobs, "--out", str(tmp_path / "mc.csv"))
    assert code == 2 and not (tmp_path / "mc.csv").exists()
    assert _one_error_line(err) and "jobs" in err
    code, out, err = run_cli(capsys, "spde", "--N", "2", "--r", "0", "--T", "5",
                             "--reps", "10", "--seed", "1", "--jobs", jobs)
    assert code == 2 and out == ""
    assert _one_error_line(err) and "jobs" in err


@pytest.mark.parametrize("flag,value", [("--rs", "nan"), ("--rs", "0,1.5"),
                                        ("--seed", "-1")])
def test_mc_grid_wide_input_exits_2(tmp_path, capsys, flag, value):
    argv = {"--thetas": "1", "--rs": "0", "--Ts": "5", "--reps": "10", "--seed": "1",
            "--statistic": "rho_centered", "--out": str(tmp_path / "mc.csv")}
    argv[flag] = value
    code, _, err = run_cli(capsys, "mc", *[tok for pair in argv.items() for tok in pair])
    assert code == 2
    assert _one_error_line(err)
    assert not (tmp_path / "mc.csv").exists()


def test_mc_exits_2_when_every_cell_is_skipped(tmp_path, capsys):
    # dt = 0.3 breaks the step cap at theta = 1; adding theta = 0.1 lets one cell run
    paths = {"--out": tmp_path / "mc.csv", "--jsonl": tmp_path / "mc.jsonl"}
    argv = ["mc", "--rs", "0", "--Ts", "1.2", "--reps", "10", "--seed", "1",
            "--statistic", "rho_centered", "--dt", "0.3"]
    argv += [tok for flag, path in paths.items() for tok in (flag, str(path))]
    code, out, err = run_cli(capsys, *argv, "--thetas", "1")
    assert code == 2 and out == ""
    skip, error = err.splitlines()
    assert "skipped" in skip and error.startswith("error: ") and "every cell" in error
    assert not any(path.exists() for path in paths.values())
    code, _, err = run_cli(capsys, *argv, "--thetas", "1,0.1")
    assert code == 0 and "skipped" in err
    assert len(paths["--out"].read_text().splitlines()) == 3  # comment, header, one cell


def _refuse_streams(monkeypatch):
    def stream(*args):
        raise AssertionError("drew random numbers before refusing the input")
    monkeypatch.setattr(sde, "stream", stream)


def test_mc_replications_beyond_32_bits_exit_2_before_simulating(tmp_path, capsys,
                                                                 monkeypatch):
    _refuse_streams(monkeypatch)
    code, out, err = run_cli(capsys, "mc", "--thetas", "1", "--rs", "0", "--Ts", "5",
                             "--reps", "4294967297", "--seed", "1",
                             "--statistic", "rho_centered", "--out", str(tmp_path / "mc.csv"))
    assert code == 2 and out == ""
    assert _one_error_line(err) and "replications" in err
    assert not (tmp_path / "mc.csv").exists()


def test_simulate_beyond_the_step_budget_exits_2_before_allocating(tmp_path, capsys,
                                                                   monkeypatch):
    _refuse_streams(monkeypatch)
    code, out, err = run_cli(capsys, "simulate", "--theta", "1", "--r", "0.5",
                             "--T", "1e9", "--dt", "0.01", "--seed", "1",
                             "--out", str(tmp_path / "p.csv"))
    assert code == 2 and out == ""
    assert _one_error_line(err) and "MAX_STEPS" in err
    assert not (tmp_path / "p.csv").exists()


def test_theory_non_integer_order_exits_2(capsys):
    code, out, err = run_cli(capsys, "theory", "--quantity", "delta_inner",
                             "--p", "2.5", "--theta", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err)
    code, _, err = run_cli(capsys, "theory", "--quantity", "major_tail_bound", "--n", "1.5",
                           "--norm", "1", "--x", "1", "--prefactor", "1")
    assert code == 2
    code, out, _ = run_cli(capsys, "theory", "--quantity", "delta_inner",
                           "--p", "2", "--theta", "1")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(0.25, rel=1e-10)


@pytest.mark.parametrize("argv", [
    "c1 --theta 1 --r nan",
    "clt_var_rho --theta 1 --r 3",
    "eta --theta 1 --r 3",
    "h_norm_limit --theta 1 --r 3",
    "ou_covariance --theta 1 --s nan --t 1",
    "wasserstein_scale_bound --sigma-scale 1e200",
    "denominator_lp_bound --p inf --theta 1",
    "edgeworth_tail --z 1e300 --theta 1 --r 0.5 --T 10",
    "asymptotic_cumulant --p 2000 --theta 1 --r 0.5 --T 10",
    "c1 --theta 1e-300 --r 0.5",
    "major_tail_bound --n 1e6 --norm 1 --x 1 --prefactor 1",
])
def test_theory_refuses_non_finite_inputs_and_results(capsys, argv):
    code, out, err = run_cli(capsys, "theory", "--quantity", *argv.split())
    assert code == 2 and out == ""
    assert _one_error_line(err)


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
                0.0, 0.5, 1.0, -1.0, 2.0, 3.0, 9.0, 170.0, 171.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(_THEORY)), data=st.data())
def test_theory_exits_0_finite_or_2_with_one_error_line(name, data):
    values = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
    argv = ["theory", f"--quantity={name}"]
    for key in _THEORY[name][0]:
        argv.append(f"--{key.replace('_', '-')}={data.draw(values, label=key)!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        value = json.loads(out.getvalue())["value"]
        assert all(math.isfinite(v) for v in np.ravel(value)), argv
        assert err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == "", argv
        assert _one_error_line(err.getvalue()), (argv, err.getvalue())


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def simulate(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(sde, "simulate_correlated_pair", simulate)
    code, out, err = run_cli(capsys, "simulate", "--theta", "1", "--r", "0.5", "--T", "5",
                             "--dt", "0.05", "--seed", "1", "--out", str(tmp_path / "p.csv"))
    assert code == 2 and out == ""
    assert _one_error_line(err) and "MemoryError" in err


def test_theory_unknown_quantity(capsys):
    code, _, err = run_cli(capsys, "theory", "--quantity", "nonsense")
    assert code == 2
    assert "unknown quantity" in err


# ---------------------------------------------------------------------------
# output stage
# ---------------------------------------------------------------------------

def test_every_subcommand_writes_the_same_bytes_to_out_and_stdout(tmp_path, capsys,
                                                                   pair_csv):
    argvs = [["simulate", "--theta", "1", "--r", "0.5", "--T", "5", "--dt", "0.05",
              "--seed", "3"],
             ["stat", "--input", str(pair_csv)],
             ["test", "--variant", "rho", "--theta", "1", "--input", str(pair_csv)],
             ["mc", "--thetas", "1", "--rs", "0,0.5", "--Ts", "5", "--reps", "20",
              "--seed", "2", "--statistic", "rho_centered"],
             ["spde", "--N", "2", "--r", "0", "--T", "5", "--reps", "20", "--seed", "2"],
             ["theory", "--quantity", "sigma", "--theta", "1", "--r", "0.5"]]
    for argv in argvs:
        path = tmp_path / f"{argv[0]}.out"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        code, nothing, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and nothing == ""
        assert path.read_bytes() == out.encode("utf-8"), argv[0]


_MC_ARGV = ("mc", "--thetas", "1", "--rs", "0", "--Ts", "5", "--reps", "10", "--seed", "1",
            "--statistic", "rho_centered")
_SPDE_ARGV = ("spde", "--N", "2", "--r", "0", "--T", "5", "--reps", "10", "--seed", "1")


@pytest.mark.parametrize("flag", ["--out", "--jsonl", "--csv"])
@pytest.mark.parametrize("kind", ["missing directory", "directory", "read-only file"])
def test_an_unwritable_output_path_exits_1_before_simulating(tmp_path, capsys, monkeypatch,
                                                             flag, kind):
    _refuse_streams(monkeypatch)
    argv = _SPDE_ARGV if flag == "--csv" else _MC_ARGV
    locked = tmp_path / "locked.txt"
    locked.write_text("kept\n")
    locked.chmod(0o444)
    if os.access(locked, os.W_OK):  # a superuser may write it anyway
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw:
                            path != str(locked) and access(path, mode, **kw))
    path = {"missing directory": tmp_path / "missing" / "out.txt",
            "directory": tmp_path, "read-only file": locked}[kind]
    code, out, err = run_cli(capsys, *argv, flag, str(path))
    assert code == 1 and out == ""
    assert _one_error_line(err) and str(path) in err
    assert not (tmp_path / "missing").exists() and locked.read_text() == "kept\n"


def test_two_outputs_on_one_path_exit_2_before_simulating(tmp_path, capsys, monkeypatch):
    _refuse_streams(monkeypatch)
    for path in (str(tmp_path / "mc.csv"), "-"):
        code, out, err = run_cli(capsys, *_MC_ARGV, "--out", path, "--jsonl", path)
        assert code == 2 and out == ""
        assert _one_error_line(err) and "same path" in err
    assert not (tmp_path / "mc.csv").exists()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1.0, "r": 0.5, "T": 5.0,
                               "dt": 0.05, "seed": 21}))
    out1 = tmp_path / "one.csv"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                         "--out", str(out1))
    assert code == 0
    # flag overrides the file seed -> different paths
    out2 = tmp_path / "two.csv"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                         "--seed", "22", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1.0, "bogus_key": 3}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "bogus_key" in err


@pytest.mark.parametrize("payload", [{"theta": "abc"}, {"seed": 2.5}, {"theta": True},
                                     {"seed": "7x"}])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1.0, "r": 0.5, "T": 5.0, "dt": 0.05, "seed": 21,
                               **payload}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and out == ""
    assert _one_error_line(err) and repr(list(payload)[0]) in err


def test_config_value_outside_choices_exits_2(tmp_path, capsys, pair_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "bogus", "input": str(pair_csv)}))
    code, _, err = run_cli(capsys, "test", "--config", str(cfg))
    assert code == 2
    assert _one_error_line(err) and "bogus" in err


def test_config_on_off_flag_takes_booleans(tmp_path, capsys, pair_csv):
    cfg = tmp_path / "cfg.json"
    for value, code_want in (("false", 2), (False, 0), (True, 0)):
        cfg.write_text(json.dumps({"input": str(pair_csv), "pooled_theta": value}))
        code, out, err = run_cli(capsys, "stat", "--config", str(cfg))
        assert code == code_want, value
        if code == 0:
            assert json.loads(out)["config"]["pooled_theta"] is value


def test_console_entry_point_runs():
    # module execution path (python -m yule_ou.cli)
    proc = subprocess.run([sys.executable, "-m", "yule_ou.cli", "theory",
                           "--quantity", "clt_var_rho", "--theta", "2", "--r", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(1.0)


def test_missing_subcommand_exits_2():
    proc = subprocess.run([sys.executable, "-m", "yule_ou.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_help_enumerates_flags():
    for sub, flag in (("simulate", "--seed"), ("mc", "--jobs"),
                      ("theory", "--quantity")):
        proc = subprocess.run([sys.executable, "-m", "yule_ou.cli", sub, "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert flag in proc.stdout
        assert "--config" in proc.stdout


def test_mc_horizon_flag_alias(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "mc", "--thetas", "1", "--rs", "0",
                         "--T", "10,20", "--reps", "30", "--seed", "4",
                         "--statistic", "rho_centered", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 4  # comment + header + 2 cells
