"""yule-ou benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mc-short --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to this one.  The workload's units (see workloads.py) repeat with seeds
derived from --seed until the next one would overrun --seconds.  Every
unit's outputs are checked; a failed check makes the exit code nonzero.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, reps_per_s,
peak_rss_mb); --trace 1 runs half the time untraced and half traced and
prints the per-layer metrics, including the tracer's own overhead.  The
last line of stdout is the JSON result; lines before it are for people.
Spans of a traced run and the full result record are written under
perfbench/out/.
"""

import os

# pinned before numpy is imported, here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("mc-short", "mc-long", "spde-field", "pair-cli")
SETUP_PROBES = 5     # fresh interpreters timed per run for setup_s
SEED_STRIDE = 100_000  # unit i of seed s uses s * SEED_STRIDE + i


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        p.error("--seed must lie in [0, 2**40)")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import yule_ou from this checkout's src/; None if it is not there."""
    if not (SRC / "yule_ou" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(ROOT)]
    import yule_ou
    if Path(yule_ou.__file__).resolve().parent != SRC / "yule_ou":
        return None
    return yule_ou


def worker_count():
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

def run_units(workload, seed, seconds, tmpdir, tracer=None):
    """Run units until the next one would overrun `seconds` (at least one)."""
    units, costs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit_seed = seed * SEED_STRIDE + len(units)
        if tracer is not None:
            tracer.run_id = len(units)
            tracer.install()
        try:
            unit = workload.run(unit_seed, tmpdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        unit.seed = unit_seed
        if not unit.failures:
            unit.failures = checked(workload, unit.outputs)
        # keep a digest: pair CSVs would otherwise pile up in memory
        unit.outputs = digest(unit.outputs)
        units.append(unit)
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            return units


def checked(workload, outputs):
    """The workload's output check; an output it cannot parse is a failure."""
    try:
        return workload.check(outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]


def digest(outputs):
    h = hashlib.sha256()
    for part in outputs:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def recheck(workload, units, tmpdir):
    """Repeat the first unit; a deterministic program gives the same bytes."""
    again = workload.run(units[0].seed, tmpdir)
    if again.failures:
        return again.attempted, again.failures
    if digest(again.outputs) != units[0].outputs:
        return again.attempted, [f"seed {units[0].seed}: repeated unit gave other bytes"]
    return again.attempted, []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def setup_seconds(probes):
    """Median wall time of a fresh interpreter importing yule_ou."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import yule_ou"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest worker child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment():
    import numpy
    import scipy

    caches = {}
    if shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower():
                caches[key.strip()] = value.strip()
    sources = sorted((SRC / "yule_ou").glob("*.py"))
    src_hash = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {"commit": git_commit(), "source_sha256": src_hash,
            "nproc": len(os.sched_getaffinity(0)), "jobs": worker_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "caches": caches,
            "note": "bytes_computed is computed from array shapes, not measured"}


def git_commit():
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_units(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, units):
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           "both measured and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None, registry=None):
    args = parse_args(argv)
    if import_package() is None:
        print(f"error: no yule_ou package under {SRC}", file=sys.stderr)
        return 2
    from perfbench.tracer import Tracer
    from perfbench.workloads import workloads

    workload = (registry or workloads(worker_count()))[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    extra_attempts, extra_failures = 0, []
    try:
        workload.warmup(tmpdir)
        if args.trace == 0:
            units = run_units(workload, args.seed, args.seconds, tmpdir)
            if workload.recheck:
                extra_attempts, extra_failures = recheck(workload, units, tmpdir)
            rss = peak_rss_mb()  # before the set-up probes become children
            walls = [u.wall_s for u in units]
            values = {"setup_s": setup_seconds(SETUP_PROBES),
                      "wall_s": statistics.median(walls),
                      "reps_per_s": statistics.median(u.reps / u.wall_s for u in units),
                      "peak_rss_mb": rss}
            traced = []
        else:
            units = run_units(workload, args.seed, args.seconds / 2, tmpdir)
            tracer = Tracer(workload.name)
            traced = run_units(workload, args.seed, args.seconds / 2, tmpdir, tracer)
            for plain, unit in zip(units, traced):
                if plain.outputs != unit.outputs:
                    unit.failures.append(f"seed {unit.seed}: traced outputs differ")
            overhead = (statistics.median(u.wall_s for u in traced)
                        - statistics.median(u.wall_s for u in units))
            values = dict(tracer.layer_metrics(len(traced)), **{"trace.overhead_s": overhead})
            tracer.write_spans(OUT / f"spans-{workload.name}.csv")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    metrics = with_units(values, declared_units(args.trace))
    every = units + traced
    attempted = sum(u.attempted for u in every) + extra_attempts
    failures = [f for u in every for f in u.failures] + extra_failures
    failed = sum(min(len(u.failures), u.attempted) for u in every) + bool(extra_failures)
    env = environment()
    report(args, workload, units, metrics, attempted, failed, failures, env)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{workload.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, env=env, seed=args.seed, seconds=args.seconds,
                       unit_walls=[u.wall_s for u in every], failures=failures),
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def report(args, workload, units, metrics, attempted, failed, failures, env):
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(units)} units")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if args.trace == 0 and workload.name == "pair-cli":
        ms = sorted(1e3 * u.wall_s for u in units)
        p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else ms[0]
        print(f"  {'pair_p50_ms':40s} {statistics.median(ms):.6g} ms ({len(ms)} pairs)")
        print(f"  {'pair_p90_ms':40s} {p90:.6g} ms ({sum(v > p90 for v in ms)} beyond)")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
