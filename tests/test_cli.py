"""CLI contract: subcommands, exit codes, config merging, determinism."""

import argparse
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
from yule_ou.cli import _THEORY, build_parser, main


#: steps of theta=1, T=5 on the default grid, the grid of the T=5 cells and
#: spde mode 1 below; block sizes are given as rows times this
_STEPS_1_5 = sde.grid_size(5.0, sde.default_dt(1.0, 5.0))


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


def test_test_estimated_variant_refuses_theta_before_reading_input(tmp_path, capsys):
    # rho-est never reads theta, so a theta from the flag or a config key is refused
    missing = str(tmp_path / "missing.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 3.0}))
    for extra in (("--theta", "3"), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, "test", "--variant", "rho-est", "--input", missing,
                                 *extra)
        assert (code, out) == (2, "")
        assert _one_error_line(err) and "--theta" in err


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
    # finite values whose functionals or rate overflow used to print NaN/Infinity with exit 0
    for rows in ("0,1e308,1e308\n1,-1e308,1e308\n2,1e308,-1e308\n",  # functionals overflow
                 "0,1e-155,1e-155\n1,-1e-155,2e-155\n2,1e-155,-1e-155\n"):  # T/(2 Y11) = inf
        big = tmp_path / "big.csv"
        big.write_text("t,x1,x2\n" + rows)
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


@pytest.mark.parametrize("statistic", mc.STATISTICS)
def test_each_jsonl_record_is_its_csv_row(tmp_path, capsys, statistic):
    jsonl = tmp_path / "mc.jsonl"
    code, out, _ = run_cli(capsys, "mc", "--thetas", "1,4", "--rs", "0,0.5", "--Ts", "5",
                           "--reps", "20", "--seed", "8", "--statistic", statistic,
                           "--jsonl", str(jsonl))
    assert code == 0
    header, *rows = out.splitlines()[1:]
    keys = header.split(",")
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(records) == len(rows) == 4
    for record, row in zip(records, rows):
        assert sorted(record) == sorted(keys)
        for key, field in zip(keys, row.split(",")):
            assert record[key] == (int(field) if key == "n" else float(field)), key
            assert type(record[key]) is (int if key == "n" else float), key


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


def test_test_on_a_simulated_pair_is_the_first_spde_row(tmp_path, capsys):
    # simulate draws replication 0 of cell 0, and spde mode 1 is that cell at
    # theta = 1 on the default grid, dt = 0.1 at T = 10
    pair, modes = tmp_path / "pair.csv", tmp_path / "modes.csv"
    assert run_cli(capsys, "simulate", "--theta", "1", "--r", "0.3", "--T", "10", "--dt", "0.1",
                   "--seed", "5", "--out", str(pair))[0] == 0
    code, out, _ = run_cli(capsys, "test", "--variant", "rho", "--theta", "1",
                           "--input", str(pair))
    assert code == 0
    assert run_cli(capsys, "spde", "--N", "1", "--r", "0.3", "--T", "10", "--reps", "3",
                   "--seed", "5", "--csv", str(modes))[0] == 0
    first = modes.read_text().splitlines()[2].split(",")
    outcome = json.loads(out)
    assert (outcome["statistic"], outcome["threshold"], outcome["reject"]) == \
        (float(first[5]), float(first[6]), first[7] == "1")


@pytest.mark.parametrize("block_elems", [None, 6300, 900])
def test_spde_bytes_do_not_depend_on_jobs_or_blocks(tmp_path, capsys, monkeypatch,
                                                    block_elems):
    # T=5: modes 1, 2, 3 take 1, 4 and 9 times _STEPS_1_5 steps, and a block
    # takes block_elems innovations per 100 of them.  Row groups of at most
    # 500 normals hold 9, 2 and 1 rows of the three modes.  By default each
    # mode is one block; at 6300 mode 1 is one block, mode 2 two (14 + 9
    # rows) and mode 3 four (7, 7, 7, 2); at 900, mode 1 is three blocks
    # (9, 9, 5), mode 2 twelve (the last of one row) and mode 3 one-row
    # blocks
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 500)
    outputs = set()
    for elems in (None, block_elems):
        if elems is not None:
            monkeypatch.setattr(mc, "_BLOCK_ELEMS", elems * _STEPS_1_5 // 100)
        for jobs in ("1", "2", "3"):
            csv_path = tmp_path / f"modes-{jobs}.csv"
            code, out, _ = run_cli(capsys, "spde", "--N", "3", "--r", "0.3", "--T", "5",
                                   "--reps", "23", "--seed", "11", "--jobs", jobs,
                                   "--csv", str(csv_path))
            assert code == 0
            outputs.add((out, csv_path.read_bytes()))
    assert len(outputs) == 1


def _fail_on_block_2_of_4(monkeypatch):
    """Make the engine fail on block 2 of 4 (cell 0, rows 10-19, at 10 rows
    a block), holding block 1 until its pool shuts down; return the (cell,
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
    monkeypatch.setattr(sde, "_GROUP_ELEMS", 1)  # one-row groups
    monkeypatch.setattr(mc, "_BLOCK_ELEMS", 10 * _STEPS_1_5)
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
    # mc skips both cells of the failed (theta, dt) group and runs the next
    # group (group 1, theta = 2 at dt 0.05: 8 blocks of 5 rows) for both r
    started.clear()
    code, _, err = run_cli(capsys, "mc", "--thetas", "1,2", "--rs", "0,0.5", "--Ts", "5",
                           "--reps", "40", "--seed", "1", "--statistic", "rho_centered",
                           "--jobs", "2", "--out", str(tmp_path / "mc.csv"))
    assert code == 0
    lines = err.splitlines()
    for cell in ("cell 1/4 theta=1.0 r=0.0 T=5.0", "cell 2/4 theta=1.0 r=0.5 T=5.0"):
        assert f"{cell}: skipped (block 2 of 4)" in lines
    for cell in ("cell 3/4 theta=2.0 r=0.0 T=5.0", "cell 4/4 theta=2.0 r=0.5 T=5.0"):
        assert f"{cell}: done" in lines
    assert sorted(started) == [(0, 0), (0, 10)] + [(1, a) for a in range(0, 40, 5)]
    assert len((tmp_path / "mc.csv").read_text().splitlines()) == 4


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
    # the fewest modes whose top grid, of N^2 T / STEP_CAP steps, passes MAX_STEPS
    n_modes = math.isqrt(int(sde.MAX_STEPS * sde.STEP_CAP / 100.0)) + 1
    assert sde.MAX_STEPS < n_modes ** 2 * 100.0 / sde.STEP_CAP
    code, out, err = run_cli(capsys, "spde", "--N", str(n_modes), "--r", "0", "--T", "100",
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
                                        ("--rs", "0,,0.5"), ("--seed", "-1")])
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


@pytest.mark.parametrize("argv", [
    "mc --thetas 1 --Ts 1e-300 --statistic rho_centered",  # one step
    "mc --thetas 1e200 --Ts 1e-198 --statistic rho_centered",  # functionals underflow to 0
    "mc --thetas 1e-300 --Ts 1e300 --statistic rho_centered",  # ... overflow to inf
    "mc --thetas 1e-300 --Ts 2 --statistic theta_hat_centered",  # one step
    "spde --N 1 --T 1e-300",  # one step
])
def test_cells_whose_numbers_overflow_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(), "--rs" if "mc" in argv else "--r", "0",
                             "--reps", "4", "--seed", "3")
    assert code == 2 and out == ""
    *skips, error = err.splitlines()
    assert error.startswith("error: ") and all("skipped" in line for line in skips)


def test_a_cell_that_overflows_is_skipped_beside_one_that_runs(capsys):
    # of the four cells only theta=1, T=2 runs: at theta=1e200, T=1e-198 the
    # functionals underflow, and the other two have too many steps or one
    code, out, err = run_cli(capsys, "mc", "--thetas", "1e200,1", "--rs", "0",
                             "--Ts", "1e-198,2", "--reps", "4", "--seed", "3",
                             "--statistic", "rho_centered")
    assert code == 0 and "skipped (degenerate or non-finite functional)" in err
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == 1 and rows[0][:3] == ["1", "0", "2"]
    assert all(math.isfinite(float(v)) for v in rows[0])


def _refuse_streams(monkeypatch):
    def stream(*args):
        raise AssertionError("drew random numbers before refusing the input")
    monkeypatch.setattr(sde, "stream", stream)


@pytest.mark.parametrize("argv", [
    "mc --thetas 0.01 --rs 0.5 --Ts 2 --reps 100 --seed 1 --statistic rho_centered",
    "simulate --theta 0.01 --r 0.5 --T 2 --dt 2 --seed 1",
    "spde --N 3 --r 0.5 --T 0.01 --reps 100 --seed 1",  # mode 1 has one step
])
def test_a_one_step_grid_exits_2_before_drawing(capsys, monkeypatch, argv):
    # theta*T <= STEP_CAP gives dt = T, and on a two-node grid rho is +-1
    _refuse_streams(monkeypatch)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert "one step" in lines[0] and lines[-1].startswith("error: ")
    if argv.startswith("mc"):  # the cell is skipped, then the grid refused
        assert len(lines) == 2 and "skipped" in lines[0] and "every cell" in lines[1]
    else:
        assert len(lines) == 1


@pytest.mark.parametrize("theta", [1.0, 3.0])
def test_simulate_refuses_a_step_just_above_the_cap_and_runs_one_at_it(tmp_path, capsys,
                                                                       theta):
    at_cap = sde.STEP_CAP / theta
    for dt, want in ((at_cap * (1.0 + 1e-9), 2), (at_cap, 0)):
        path = tmp_path / f"pair-{want}.csv"
        code, out, err = run_cli(capsys, "simulate", "--theta", repr(theta), "--r", "0.5",
                                 "--T", repr(20 * dt), "--dt", repr(dt), "--seed", "1",
                                 "--out", str(path))
        assert code == want and out == ""
        if want:
            assert _one_error_line(err) and "step cap" in err and not path.exists()
        else:
            assert err == "" and len(path.read_text().splitlines()) == 2 + 21


@pytest.mark.parametrize("argv", [
    "simulate --theta 1 --r 0.5 --T {T} --dt {dt} --seed 1",
    "mc --thetas 1 --rs 0.5 --Ts {T} --reps 20 --seed 1 --statistic rho_centered",
    "spde --N 2 --r 0.5 --T {T} --reps 20 --seed 1",
])
def test_the_one_step_refusal_sits_at_theta_T_equal_to_the_cap(capsys, monkeypatch, argv):
    # just above theta*T = STEP_CAP the default grid (and simulate at
    # dt = T/2) has two steps and runs; at it, one step is refused before
    # any draw
    above = sde.STEP_CAP * (1.0 + 1e-6)
    code, out, _ = run_cli(capsys, *argv.format(T=repr(above), dt=repr(above / 2)).split())
    assert code == 0 and out
    _refuse_streams(monkeypatch)
    at_cap = repr(sde.STEP_CAP)
    code, out, err = run_cli(capsys, *argv.format(T=at_cap, dt=at_cap).split())
    lines = err.splitlines()
    assert code == 2 and out == ""
    assert "one step" in lines[0] and lines[-1].startswith("error: ")


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


@pytest.mark.parametrize("order", ["10001", "1e9"])
def test_theory_order_above_the_bound_exits_2(capsys, order):
    # refused before the binomial, whose cost grows almost as p^2
    code, out, err = run_cli(capsys, "theory", "--quantity", "delta_inner",
                             "--p", order, "--theta", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "10000" in err


@pytest.mark.parametrize("argv", [
    "c1 --theta 1 --r nan",
    "clt_var_rho --theta 1 --r 3",
    "eta --theta 1 --r 3",
    "h_norm_limit --theta 1 --r 3",
    "ou_covariance --theta 1 --s nan --t 1",
    "wasserstein_scale_bound --sigma-scale 1e200",
    "denominator_lp_bound --p inf --theta 1",
    "asymptotic_cumulant --p 2000 --theta 1 --r 0.5 --T 10",
    "c1 --theta 1e-300 --r 0.5",
    "major_tail_bound --n 1e6 --norm 1 --x 1 --prefactor 1",
    "major_tail_bound --n 2 --norm 1 --x 1 --prefactor -1",
])
def test_theory_refuses_non_finite_inputs_and_results(capsys, argv):
    code, out, err = run_cli(capsys, "theory", "--quantity", *argv.split())
    assert code == 2 and out == ""
    assert _one_error_line(err)


@pytest.mark.parametrize("argv, name", [
    ("theory --quantity sigma --theta 1e-110 --r 0", "theta=1e-110"),
    ("theory --quantity type2_bound_numerator --theta 1e-110 --r 0.5 --alpha 0.05 --T 10 "
     "--berry 1", "theta=1e-110"),
    ("test --variant num --theta 1e-300", "theta=1e-300"),
    ("simulate --theta 1 --r 0.5 --T inf --dt 0.1 --seed 1", "horizon_T"),
])
def test_extreme_inputs_exit_2_naming_the_input(pair_csv, capsys, argv, name):
    # these printed Python's "float division by zero" or "cannot convert
    # float infinity to integer"
    argv = argv.split() + (["--input", str(pair_csv)] if argv.startswith("test") else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert _one_error_line(err) and name in err, err


@pytest.mark.parametrize("argv", [
    "cumulant_bounds --theta 1e-70 --r 0.5",
    "h_norm --theta 1e-200 --r 0.5 --T 1e-200",
    "g_norm --theta 1e-200 --r 0.5 --T 1",
    "h_norm_limit --theta 1e250 --r 0.5",
    "eta --theta 1e100 --r 0.5",
    "edgeworth_tail --z 1 --theta 1e100 --r 0.5 --T 10",
    "asymptotic_cumulant --p 3 --theta 1e-100 --r 0.5 --T 10",
    "delta_inner --p 3 --theta 1e-200",
])
def test_theory_arithmetic_errors_exit_2_naming_the_quantity(capsys, argv):
    # these printed Python's "float division by zero" or "(34, 'Numerical
    # result out of range')"
    code, out, err = run_cli(capsys, "theory", "--quantity", *argv.split())
    assert (code, out) == (2, "")
    assert _one_error_line(err) and argv.split()[0] in err, err
    assert "division" not in err and "Numerical result" not in err, err


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
    # an omitted --out is stdout, so `--jsonl -` or `--csv -` alone names it twice
    for argv in [(*_MC_ARGV, "--out", path, "--jsonl", path)
                 for path in (str(tmp_path / "mc.csv"), "-")] + \
            [(*_MC_ARGV, "--jsonl", "-"), (*_SPDE_ARGV, "--csv", "-")]:
        code, out, err = run_cli(capsys, *argv)
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


@pytest.mark.parametrize("key, value", [("command", "simulate"), ("config", "nope.json")])
def test_config_keys_that_name_no_flag_are_refused(tmp_path, capsys, monkeypatch, key, value):
    # the subcommand and the config path are always set, so the "flags
    # override file values" rule used to skip them silently: mc ran, exit 0
    _refuse_streams(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_MC_CONFIG, key: value}))
    code, out, err = run_cli(capsys, "mc", "--config", str(cfg))
    assert code == 2 and out == ""
    assert _one_error_line(err) and f"unknown config key {key!r}" in err


@pytest.mark.parametrize("payload", [{"theta": "abc"}, {"seed": 2.5}, {"theta": True},
                                     {"seed": "7x"}, {"out": [1]}, {"dt": None}])
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


_MC_CONFIG = {"thetas": "1,2", "rs": "0,0.5", "Ts": "5", "reps": 30, "seed": 4,
              "statistic": "rho_centered"}


def test_config_number_lists_as_json_lists_give_the_same_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    reports = []
    for lists in ({}, {"thetas": [1, 2], "rs": [0, 0.5], "Ts": [5.0]}):
        cfg.write_text(json.dumps({**_MC_CONFIG, **lists}))
        code, out, _ = run_cli(capsys, "mc", "--config", str(cfg))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("items", [[True], ["1"], [[1]], [1, None], []])
def test_config_number_list_of_other_items_exits_2(tmp_path, capsys, monkeypatch, items):
    _refuse_streams(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_MC_CONFIG, "thetas": items}))
    code, out, err = run_cli(capsys, "mc", "--config", str(cfg))
    assert code == 2 and out == ""
    assert _one_error_line(err) and "'thetas'" in err


# base configuration and the keys a drawn value may replace; mc and spde run at
# --reps 4, and stat and test read the pair _config_pair_csv writes (a drawn
# input path would exit 1, as an unreadable file does)
_CONFIG_BASES = {
    "simulate": ({"theta": 1, "r": 0.5, "T": 2, "dt": 0.05, "seed": 3},
                 ("theta", "r", "T", "dt", "seed")),
    "mc": ({"thetas": "1", "rs": "0,0.5", "Ts": "2", "seed": 3, "statistic": "rho_centered"},
           ("thetas", "rs", "Ts", "seed", "statistic", "alpha", "dt", "jobs")),
    "spde": ({"N": 2, "r": 0.3, "T": 2, "seed": 3},
             ("N", "r", "T", "seed", "variant", "alpha", "jobs")),
    "stat": ({}, ("pooled_theta",)),
    "test": ({"variant": "rho", "theta": 1}, ("variant", "alpha", "theta")),
}
_JSON_NUMBERS = st.sampled_from((-1, 0, 1, 2, 3, 0.05, 0.25, 0.5, 2.5, 2 ** 64, 1e-300,
                                 1e300, -1e300))
_JSON_SCALARS = st.one_of(_JSON_NUMBERS, st.booleans(), st.none(), st.sampled_from(
    ("", "1", "0.5", "1,2", "0,,1", "x", "nan", "inf", "rho_centered", "ybar_centered")))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(
    st.one_of(_JSON_SCALARS, st.lists(_JSON_NUMBERS, max_size=2)), max_size=3))


def _config_pair_csv(directory):
    """A simulated pair CSV in directory, written on the first call."""
    path = directory / "drawn-config-pair.csv"
    if not path.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--theta", "1", "--r", "0.5", "--T", "5", "--dt", "0.05",
                         "--seed", "3", "--out", str(path)]) == 0
    return str(path)


@settings(derandomize=True, deadline=None, max_examples=350)
@given(command=st.sampled_from(sorted(_CONFIG_BASES)), data=st.data())
def test_config_files_exit_0_with_finite_output_or_2_with_one_error_line(
        tmp_path_factory, command, data):
    base, keys = _CONFIG_BASES[command]
    drawn = data.draw(st.dictionaries(st.sampled_from(keys), _JSON_VALUES, max_size=3))
    tmp = tmp_path_factory.getbasetemp()
    if command in ("stat", "test"):
        base = {**base, "input": _config_pair_csv(tmp)}
    cfg = tmp / "drawn-config.json"
    cfg.write_text(json.dumps({**base, **drawn}))
    argv = [command, "--config", str(cfg)] + (["--reps", "4"] if command in ("mc", "spde") else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    notes = [line for line in lines if line.startswith("cell ")]  # mc progress
    if code == 0:
        assert notes == lines, drawn
        if command == "spde":  # a JSON report
            report = json.loads(out.getvalue())
            values = [report[key] for key in ("family_reject_rate", "ci_lo", "ci_hi")]
            values += [v for mode in report["per_mode"] for v in mode.values()]
            assert report["per_mode"] and all(map(math.isfinite, values)), drawn
        elif command in ("stat", "test"):  # one JSON record
            record = json.loads(out.getvalue())
            values = [v for k, v in record.items() if k not in ("config", "variant")]
            assert values and all(map(math.isfinite, values)), drawn
        else:
            rows = [line.split(",") for line in out.getvalue().splitlines()[2:]]
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row), drawn
    else:
        assert code == 2 and out.getvalue() == "", drawn
        assert notes + lines[-1:] == lines and lines[-1].startswith("error: "), (drawn, lines)


def test_config_on_off_flag_takes_booleans(tmp_path, capsys, pair_csv):
    cfg = tmp_path / "cfg.json"
    for value, code_want in (("false", 2), (False, 0), (True, 0)):
        cfg.write_text(json.dumps({"input": str(pair_csv), "pooled_theta": value}))
        code, out, err = run_cli(capsys, "stat", "--config", str(cfg))
        assert code == code_want, value
        if code == 0:
            assert json.loads(out)["config"]["pooled_theta"] is value


@pytest.mark.parametrize("argv, text, code_want", [
    ("stat --input", None, 1),
    ("stat --input", "t,x1,x2\n0,1,2\n", 1),
    ("stat --input", "t,x1,x2\n0,1,2\n1,1,2\n3,1,2\n", 1),
    ("mc --config", None, 2),
    ("mc --config", "{", 2),
    ("mc --config", "[1]", 2),
], ids=["missing input", "one-row input", "non-uniform input", "missing config",
        "invalid JSON config", "JSON array config"])
def test_an_unusable_input_or_config_file_exits_with_one_error_line(tmp_path, capsys, argv,
                                                                     text, code_want):
    path = tmp_path / "file"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, *argv.split(), str(path))
    assert code == code_want and out == "" and _one_error_line(err), err


def test_flags_are_named_by_their_dest_and_every_parse_error_is_one_line(tmp_path, capsys):
    # _merge_config parses a config key as "--" + dest.replace("_", "-")
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest != "help":
                flag = "--" + action.dest.replace("_", "-")
                assert flag in action.option_strings, (command, action.option_strings)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": True}))
    for argv in ("mc --reps x".split(), "mc --statistic nope".split(), ["bogus"], [],
                 "test --variant rho --bogus 1".split(), ["mc", "--config", str(cfg)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and _one_error_line(err), (argv, err)
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--help"])
    assert exc.value.code == 0 and "--jobs" in capsys.readouterr().out


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


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    # every call, a refused argv included, parses with the one parser built
    # at the first call
    from yule_ou import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        argv = ("theory", "--quantity", "sigma", "--theta", "1", "--r", "0.5")
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and run_cli(capsys, *argv) == first
        assert run_cli(capsys, "theory", "--nope")[0] == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]
