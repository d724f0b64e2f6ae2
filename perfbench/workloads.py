"""The benchmark's workloads and the checks on their outputs.

A workload is a sequence of CLI invocations, run in-process through
`yule_ou.cli.main(argv)`, that makes up one *unit*: one `mc` or `spde`
run, or one analysed pair for `pair-cli`.  Each unit takes its own seed,
derived from the benchmark seed and the unit's index.  `run` times the
invocations and returns their outputs; `check` tests those outputs
against exact or internal oracles and is called outside the timed section
(and with the tracer removed, since it calls into the package).
"""

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

from perfbench.oracle import exact_mean_y11, exact_mean_y12

Z_LIMIT = 5.0      # |z| of a cell mean against its exact expectation
REL_TOL = 1e-12    # relative agreement of recomputed test statistics


@dataclass
class Unit:
    """One timed unit: its timing, the CLI invocations made and their outputs."""

    wall_s: float
    reps: int
    attempted: int
    failures: list      # nonzero exits; output checks are added by the caller
    outputs: tuple
    seed: int = None


def invoke(argv):
    """Run `yule_ou.cli.main(argv)` in-process; return (exit code, stdout)."""
    from yule_ou import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so a tracer sees it
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception:  # a traceback is a failed invocation, as from a shell
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, out.getvalue()


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _timed(argvs):
    """Invoke each argv in turn, stopping at the first failure."""
    results = []
    start = time.perf_counter()
    for argv in argvs:
        results.append(invoke(argv))
        if results[-1][0] != 0:
            break
    wall = time.perf_counter() - start
    failures = [f"{argv[0]} exit {code}" for argv, (code, _) in zip(argvs, results)
                if code != 0]
    return wall, failures, [out for _, out in results]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# mc: one grid run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McWorkload:
    name: str
    thetas: tuple
    rs: tuple
    Ts: tuple
    reps: int
    statistic: str
    jobs: int = 1

    recheck = False

    def argv(self, seed, reps=None):
        join = lambda vals: ",".join(f"{v:g}" for v in vals)
        return ["mc", "--thetas", join(self.thetas), "--rs", join(self.rs),
                "--Ts", join(self.Ts), "--reps", str(reps or self.reps),
                "--statistic", self.statistic, "--seed", str(seed),
                "--jobs", str(self.jobs)]

    def warmup(self, tmpdir):
        invoke(self.argv(0, reps=8))

    def run(self, seed, tmpdir):
        wall, failures, outputs = _timed([self.argv(seed)])
        cells = len(self.thetas) * len(self.rs) * len(self.Ts)
        return Unit(wall, cells * self.reps, 1, failures, tuple(outputs))

    def check(self, outputs):
        """Every cell present, complete and finite; mean within Z_LIMIT of exact."""
        from yule_ou import sde, theory

        header, rows = _csv_rows(outputs[0])
        if header != "theta,r,T,n,mean,var,k3,k4,d_kol,reject_rate,ci_lo,ci_hi":
            return [f"unexpected report header {header!r}"]
        cells = [(th, r, T) for th in self.thetas for r in self.rs for T in self.Ts]
        if len(rows) != len(cells):
            return [f"{len(rows)} report rows for {len(cells)} cells"]
        failures = []
        for (theta, r, T), row in zip(cells, rows):
            vals = [float(v) for v in row]
            if not all(math.isfinite(v) for v in vals):
                failures.append(f"non-finite field in cell {row}")
                continue
            if (vals[:2] != [theta, r] or not math.isclose(vals[2], T, rel_tol=1e-9)
                    or int(row[3]) != self.reps):
                failures.append(f"cell {row[:4]} is not ({theta}, {r}, {T}, {self.reps})")
                continue
            dt = sde.default_dt(theta, T)
            n_steps = round(T / dt)
            T = vals[2]  # the grid's n*dt, which the report standardizes with
            if self.statistic == "ybar_centered":
                ybar = 2.0 * theta * exact_mean_y11(theta, dt, n_steps) / T
                exact = float(theory.standardize_ybar(ybar, theta, T))
            elif self.statistic == "numerator_centered":
                num = exact_mean_y12(theta, r, dt, n_steps) / math.sqrt(T)
                exact = float(theory.standardize_numerator(num, theta, r, T))
            else:
                raise ValueError(f"no exact oracle for {self.statistic}")
            z = (vals[4] - exact) / math.sqrt(vals[5] / self.reps)
            if not abs(z) < Z_LIMIT:
                failures.append(f"cell ({theta}, {r}, {T}): mean z = {z:.2f}")
        return failures


# ---------------------------------------------------------------------------
# spde: one multi-mode field run with the per-replication CSV
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpdeWorkload:
    name: str
    N: int
    r: float
    T: float
    reps: int
    variant: str
    jobs: int

    recheck = False

    def argv(self, seed, csv_path, reps=None):
        return ["spde", "--N", str(self.N), "--r", f"{self.r:g}", "--T", f"{self.T:g}",
                "--reps", str(reps or self.reps), "--variant", self.variant,
                "--seed", str(seed), "--jobs", str(self.jobs), "--csv", csv_path]

    def warmup(self, tmpdir):
        invoke(self.argv(0, os.path.join(tmpdir, "spde.csv"), reps=8))

    def run(self, seed, tmpdir):
        csv_path = os.path.join(tmpdir, "spde.csv")
        wall, failures, outputs = _timed([self.argv(seed, csv_path)])
        if not failures:
            outputs.append(_read(csv_path))
        return Unit(wall, self.reps, 1, failures, tuple(outputs))

    def check(self, outputs):
        """CSV flags reproduce the JSON per-mode and family rates exactly."""
        report = json.loads(outputs[0])
        _, rows = _csv_rows(outputs[1])
        if len(rows) != self.N * self.reps:
            return [f"{len(rows)} CSV rows, expected {self.N * self.reps}"]
        thetas = [float(row[2]) for row in rows]
        if thetas != [float(k * k) for k in range(1, self.N + 1)] * self.reps:
            return ["CSV rows are not ordered replication by mode"]
        flags = [row[7] == "1" for row in rows]
        failures = []
        for k, mode in enumerate(report["per_mode"]):
            rate = sum(flags[k::self.N]) / self.reps
            if rate != mode["reject_rate"]:
                failures.append(f"mode {k + 1}: CSV rate {rate!r} != JSON "
                                f"{mode['reject_rate']!r}")
        family = sum(any(flags[j:j + self.N])
                     for j in range(0, len(flags), self.N)) / self.reps
        if family != report["family_reject_rate"]:
            failures.append(f"family: CSV rate {family!r} != JSON "
                            f"{report['family_reject_rate']!r}")
        return failures


# ---------------------------------------------------------------------------
# pair-cli: simulate, stat and three tests on one pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairWorkload:
    name: str
    theta: float
    r: float
    T: float
    dt: float

    # a unit is cheap, so the run repeats its first unit and requires the
    # same bytes: simulation is deterministic in the seed
    recheck = True

    def argvs(self, seed, path):
        theta = f"{self.theta:g}"
        return [["simulate", "--theta", theta, "--r", f"{self.r:g}", "--T", f"{self.T:g}",
                 "--dt", f"{self.dt:g}", "--seed", str(seed), "--out", path],
                ["stat", "--input", path],
                ["test", "--variant", "rho", "--theta", theta, "--input", path],
                ["test", "--variant", "rho-est", "--input", path],
                ["test", "--variant", "num", "--theta", theta, "--input", path]]

    def warmup(self, tmpdir):
        self.run(0, tmpdir)

    def run(self, seed, tmpdir):
        path = os.path.join(tmpdir, "pair.csv")
        argvs = self.argvs(seed, path)
        wall, failures, outputs = _timed(argvs)
        if not failures:
            outputs[0] = _read(path)  # simulate writes the CSV, not stdout
        return Unit(wall, 1, len(argvs), failures, tuple(outputs))

    def check(self, outputs):
        """The grid is complete; test statistics agree with the stat output."""
        stat, rho_test, rho_est_test, num_test = (json.loads(o) for o in outputs[1:])
        _, rows = _csv_rows(outputs[0])
        failures = []
        if len(rows) != round(self.T / self.dt) + 1:
            failures.append(f"{len(rows)} path rows")
        root_T = math.sqrt(stat["T"])
        expected = {"rho": (rho_test, root_T * stat["rho"]),
                    "rho-est": (rho_est_test,
                                math.sqrt(stat["T"] * stat["theta_hat"]) * stat["rho"]),
                    "num": (num_test, stat["y12"] / root_T)}
        for variant, (outcome, value) in expected.items():
            got = outcome["statistic"]
            if not abs(got - value) <= REL_TOL * max(abs(got), abs(value)):
                failures.append(f"{variant} statistic {got!r} != {value!r}")
        return failures


def workloads(jobs):
    """The four benchmark workloads; `jobs` is the pool size of `spde-field`."""
    return {
        "mc-short": McWorkload("mc-short", thetas=(1.0,), rs=(0.0, 0.5), Ts=(25.0, 50.0),
                               reps=10000, statistic="ybar_centered"),
        "mc-long": McWorkload("mc-long", thetas=(1.0,), rs=(0.0, 0.5), Ts=(500.0,),
                              reps=2000, statistic="numerator_centered"),
        "spde-field": SpdeWorkload("spde-field", N=3, r=0.0, T=100.0, reps=2000,
                                   variant="rho", jobs=jobs),
        "pair-cli": PairWorkload("pair-cli", theta=1.0, r=0.5, T=50.0, dt=0.01),
    }
