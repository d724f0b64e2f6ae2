"""Replication engine and empirical-distribution diagnostics.

The engine simulates many independent pairs per grid cell and reduces
each replication to its path functionals on the fly.  Replication j of
cell c draws its two noise processes from the Philox keys of
SeedSequence(base_seed, spawn_key=(c, 0)) and (c, 1): the replications
are cut into fixed groups of consecutive rows, group g is the key's
Philox with its counter started at [0, 0, g, 0], and its rows draw from
it in order (see sde.draw_group).  Blocks are fixed runs of whole groups
(the last one ragged), never functions of the worker count.  With
jobs > 1 a cell's blocks run on a pool of worker threads in the calling
process; no block shares state with another, and each result is put
back in block order.  So results are bit-identical for a given grid
whatever `jobs` is and in whichever order blocks complete.  A statistic
that reads only Y11 draws process 0 alone, and its numbers are those of
the full pair.
"""

import collections
import itertools
import math
import sys
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass

import numpy as np

from . import hypothesis as hyp
from . import sde, theory
from .errors import (InsufficientDataError, ParameterError, YuleOuError, check_integer,
                     check_level, check_positive)
from .estimators import (YuleStatistics, check_functionals, correlation, functionals,
                         rate_estimate, variance_functional)
from .gaussian import norm_cdf, upper_quantile

_BLOCK_ELEMS = 4_000_000  # target innovations per simulated block


# ---------------------------------------------------------------------------
# Sample diagnostics
# ---------------------------------------------------------------------------

def k_statistics(samples):
    """Unbiased k-statistics (k2, k3, k4) of a sample.

    k2 = n m2/(n-1),
    k3 = n^2 m3/((n-1)(n-2)),
    k4 = n^2 [(n+1) m4 - 3 (n-1) m2^2] / ((n-1)(n-2)(n-3)),

    with m_j the central sample moments.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 4:
        raise InsufficientDataError("k-statistics need at least 4 samples")
    d = x - x.mean()
    m2 = float(np.mean(d ** 2))
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    k2 = n * m2 / (n - 1)
    k3 = n * n * m3 / ((n - 1) * (n - 2))
    k4 = n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 * m2) / ((n - 1) * (n - 2) * (n - 3))
    return k2, k3, k4


def kolmogorov_distance(samples):
    """Empirical Kolmogorov distance of a sample to the standard normal:
    sup over half-lines of |F_n - Phi|, evaluated at the jump points."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise InsufficientDataError("empty sample")
    cdf = norm_cdf(x)
    i = np.arange(1, n + 1)
    upper = np.abs(i / n - cdf)
    lower = np.abs((i - 1) / n - cdf)
    return float(np.max(np.maximum(upper, lower)))


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ParameterError("need at least one trial")
    if not 0 <= successes <= n:
        raise ParameterError(f"successes must lie in [0, {n}], got {successes}")
    z = upper_quantile(0.025)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # an all-or-nothing sample's outer bound is exactly 0 or 1, not an ulp off
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def error_rates(flags):
    """Rejection frequency of a boolean array (the type-I error under the
    null, the power under an alternative) with its 95% Wilson interval."""
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        raise ParameterError("empty outcome sequence")
    rejected = int(flags.sum())
    lo, hi = wilson_interval(rejected, flags.size)
    return rejected / flags.size, lo, hi


def rate_fit(points):
    """Least-squares fit of log(value) = exponent*log(T) + intercept."""
    pts = [(float(t), float(v)) for t, v in points]
    if len(pts) < 3:
        raise InsufficientDataError("rate fit needs at least 3 points")
    if not all(0.0 < t < math.inf and 0.0 < v < math.inf for t, v in pts):
        raise ParameterError("rate fit needs positive finite horizons and values")
    logs_t = np.log([t for t, _ in pts])
    logs_v = np.log([v for _, v in pts])
    exponent, intercept = np.polyfit(logs_t, logs_v, 1)
    return float(exponent), float(intercept)


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSample(YuleStatistics):
    """A grid cell's YuleStatistics, one array entry per replication, with
    the cell's rate, correlation and step.

    A one-path cell (pair_sample(..., paths=1)) simulates x1 alone: its
    y11 and theta_hat equal the full pair's bit for bit, and the fields
    that need x2 (rho, y22, y12) are None.
    """

    theta: float
    r: float
    dt: float


def _simulate_block(theta, r, horizon_T, dt, base_seed, cell_index, start, stop,
                    process_offset=0, paths=2):
    """Functionals (Y11, Y22, Y12) as a (3, m) array for replications
    [start, stop) of one cell; with paths=1, Y11 alone as a (1, m) array.

    `start` starts a row group (_cell_blocks).  Each process keys its
    stream once per block, and the block is computed one row group at a
    time: the group's rows are drawn whole, one draw per path
    (sde.draw_group), into one C-contiguous (G, n+1) array per path, and
    sde.correlated_paths (or sde.ou_paths) turns nodes 1..n into the path
    in place and sets node 0 to zero.  One more (G, n+1) scratch holds the
    noise mix and the reductions' products, so a block allocates no
    group-sized array after its first group.  A one-path block keys
    process 0 only; x1 and Y11 come from the same sde.ou_paths and
    reduction as in the pair, so they keep their bits.  Rows never
    interact, so neither blocks nor groups change any bit.
    """
    n_steps = sde.grid_size(horizon_T, dt)
    m = stop - start
    group = min(m, sde.group_rows(n_steps + 1))
    streams = [sde.stream(base_seed, cell_index, process_offset + p) for p in range(paths)]
    buffers = np.empty((paths + 1, group, n_steps + 1))  # the paths, then the scratch
    out = np.empty((3 if paths == 2 else 1, m))
    with np.errstate(over="ignore", invalid="ignore"):  # pair_sample refuses the overflow
        for a in range(0, m, group):
            b = min(a + group, m)
            *x, scratch = buffers[:, :b - a]
            for s, path in zip(streams, x):
                sde.draw_group(s, start + a, path)
            if paths == 2:
                sde.correlated_paths(theta, r, dt, *x, scratch=scratch)
                out[:, a:b] = functionals(*x, dt, scratch=scratch)
            else:
                sde.ou_paths(theta, dt, x[0])
                out[0, a:b] = variance_functional(x[0], dt, scratch=scratch)
    return out


def _check_replications(replications):
    """Reject a replication count that is not an integer in [1, 2**32].  A
    cell holds five float64 arrays with one entry per replication, 160 GiB
    at 2**32, so a larger count could never run."""
    check_integer(replications=replications)
    if not 1 <= replications <= 2 ** 32:
        raise ParameterError(f"replications must lie in [1, 2**32], got {replications}")


def _check_jobs(jobs):
    """Reject a worker count that is not an integer of at least one."""
    check_integer(jobs=jobs)
    if not jobs >= 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")


def _cell_blocks(replications, n_steps):
    """Blocks of the most whole row groups of n+1 normals a row within
    _BLOCK_ELEMS innovations (at least one group), the last one ragged;
    independent of the worker count."""
    group = sde.group_rows(n_steps + 1)
    block = group * max(1, _BLOCK_ELEMS // (n_steps * group))
    return [(a, min(a + block, replications)) for a in range(0, replications, block)]


def _run_blocks(tasks, jobs):
    """The result of _simulate_block(*task) for every task, in task order.

    With jobs == 1 or a single task the blocks run inline in the calling
    thread.  Otherwise one pool of min(jobs, len(tasks)) threads runs them
    in task order, a thread being handed the next block when one finishes.
    If a block raises, no further block starts: the running ones finish
    and the error is re-raised.  Results are stored by task index, so the
    order in which blocks finish changes no bit.
    """
    if jobs == 1 or len(tasks) == 1:
        return [_simulate_block(*task) for task in tasks]
    queue = collections.deque(range(len(tasks)))
    results = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        running = {}
        while queue or running:
            while queue and len(running) < jobs:
                i = queue.popleft()
                running[pool.submit(_simulate_block, *tasks[i])] = i
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                results[running.pop(future)] = future.result()
    return results


def pair_sample(theta, r, horizon_T, dt=None, replications=1000, base_seed=0,
                cell_index=0, jobs=1, process_offset=0, paths=2):
    """Simulate a cell and return its PairSample of per-replication arrays.

    dt=None resolves to the largest exact divisor of T with theta*dt <=
    sde.STEP_CAP.  The result is invariant to `jobs`: with jobs > 1 the
    cell's fixed blocks run on a pool of at most one worker thread per
    block, in this process, and jobs == 1 runs them inline.  paths=1 draws
    only process 0 (x1) and returns a one-path sample, whose y11 and
    theta_hat equal the pair's bit for bit and whose rho, y22 and y12 are
    None.
    """
    _check_replications(replications)
    _check_jobs(jobs)
    if paths not in (1, 2):
        raise ParameterError(f"paths must be 1 or 2, got {paths}")
    if dt is None:
        dt = sde.default_dt(theta, horizon_T)
    # validates every cell parameter, including the step cap
    n_steps = sde.CorrelatedPairConfig(theta=theta, r=r, horizon_T=horizon_T, dt=dt,
                                       seed=base_seed).n_steps
    blocks = _cell_blocks(replications, n_steps)
    tasks = [(theta, r, horizon_T, dt, base_seed, cell_index, a, b, process_offset, paths)
             for a, b in blocks]
    results = _run_blocks(tasks, jobs)

    y11, *cross = (np.concatenate(parts) for parts in zip(*results))
    check_functionals(y11, *cross)  # the rule yule_rho applies to one pair
    T = n_steps * dt
    y22 = y12 = rho = None
    if cross:
        y22, y12 = cross
        rho = correlation(y11, y22, y12)
    return PairSample(y11=y11, y22=y22, y12=y12, rho=rho, theta_hat=rate_estimate(y11, T),
                      horizon_T=T, theta=theta, r=r, dt=dt)


def rejections(sample, variant, alpha):
    """Boolean rejection array of the chosen test applied to every replication."""
    return hyp.apply_test(sample, variant, alpha, sample.theta).reject


# ---------------------------------------------------------------------------
# Experiment grid
# ---------------------------------------------------------------------------

# name: (paths drawn, test variant behind reject_rate, standardization of
# a PairSample).  theta_hat and ybar read Y11 alone, so they draw x1 alone;
# test None rejects by the two-sided z-rule |value| > z_{alpha/2}.
_STATISTICS = {
    "rho_centered": (2, "rho_known_theta", lambda s: theory.standardize_rho(
        s.rho, s.theta, s.r, s.horizon_T)),
    "numerator_centered": (2, "numerator_known_theta", lambda s: theory.standardize_numerator(
        hyp.variant_statistic(s, "numerator_known_theta"), s.theta, s.r, s.horizon_T)),
    "theta_hat_centered": (1, None, lambda s: theory.standardize_theta_hat(
        s.theta_hat, s.theta, s.horizon_T)),
    "ybar_centered": (1, None, lambda s: theory.standardize_ybar(
        2.0 * s.theta * s.y11 / s.horizon_T, s.theta, s.horizon_T)),
}

STATISTICS = tuple(_STATISTICS)


@dataclass(frozen=True)
class ExperimentGrid:
    """Cartesian experiment over (theta, r, T) cells."""

    thetas: tuple
    rs: tuple
    horizons: tuple
    replications: int
    base_seed: int
    statistic: str = "rho_centered"
    dt_policy: float | None = None   # None: dt = T/ceil(theta*T/sde.STEP_CAP)
    alpha: float = 0.05

    def __post_init__(self):
        for name in ("thetas", "rs", "horizons"):
            seq = tuple(float(v) for v in getattr(self, name))
            if not seq:
                raise ParameterError(f"{name} must be nonempty")
            object.__setattr__(self, name, seq)
        _check_replications(self.replications)
        # grid-wide inputs fail here; run_grid skips only cell-specific failures
        for theta, horizon_T in itertools.product(self.thetas, self.horizons):
            check_positive(theta=theta, horizon_T=horizon_T)
        if self.dt_policy is not None:
            check_positive(dt=self.dt_policy)
        for r in self.rs:
            sde.check_pair_inputs(r, self.base_seed)
        if self.statistic not in STATISTICS:
            raise ParameterError(f"unknown statistic {self.statistic!r}")
        check_level(self.alpha)

    def cells(self):
        return list(itertools.product(self.thetas, self.rs, self.horizons))


@dataclass(frozen=True)
class McReport:
    """Aggregated empirical distribution of one cell's statistic."""

    theta: float
    r: float
    horizon_T: float
    n: int
    mean: float
    variance: float
    k3: float
    k4: float
    d_kol: float
    reject_rate: float
    ci_lo: float
    ci_hi: float

    # the CSV and JSON name of each field, in field order
    COLUMNS = ("theta", "r", "T", "n", "mean", "var", "k3", "k4", "d_kol",
               "reject_rate", "ci_lo", "ci_hi")

    def csv_row(self):
        # n <= 2**32 has fewer than 17 digits, so .17g prints it as an integer
        return ",".join(f"{v:.17g}" for v in astuple(self))

    def to_dict(self):
        return dict(zip(self.COLUMNS, astuple(self)))


def summarize_cell(sample, statistic, alpha):
    """Aggregate one cell into an McReport of its _STATISTICS row, refusing an overflow."""
    if statistic not in _STATISTICS:
        raise ParameterError(f"unknown statistic {statistic!r}")
    paths, test, standardize = _STATISTICS[statistic]
    if paths == 2 and sample.rho is None:
        raise ParameterError(f"{statistic} reads x2, which a one-path sample lacks")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(standardize(sample))
        n = values.size
        if n >= 4:
            k = k_statistics(values)
        else:  # a smaller sample has k2 from two replications on, and no k3 or k4
            k = (float(np.var(values, ddof=1)),) if n >= 2 else ()
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(k))):
        raise ParameterError(f"{statistic} or its k-statistics are not finite")
    k2, k3, k4 = k + (float("nan"),) * (3 - len(k))  # NaN flags an undefined one
    if test is not None:
        flags = rejections(sample, test, alpha)
    else:
        flags = np.abs(values) > upper_quantile(alpha / 2.0)
    rate, lo, hi = error_rates(flags)
    return McReport(theta=sample.theta, r=sample.r, horizon_T=sample.horizon_T,
                    n=n, mean=float(np.mean(values)), variance=k2, k3=k3, k4=k4,
                    d_kol=kolmogorov_distance(values), reject_rate=rate,
                    ci_lo=lo, ci_hi=hi)


def run_grid(grid, jobs=1, progress=None):
    """Run every cell of the grid and aggregate; deterministic in base_seed.

    Each cell simulates only the paths its statistic reads (_STATISTICS):
    theta_hat_centered and ybar_centered draw process 0 alone, and their
    reports equal those of the full pair.  A cell failing as a command exits
    2 (a fixed dt over the step cap for a large theta, an overflow) is
    reported on stderr and skipped; other cells proceed.  A grid whose every cell is
    skipped raises ParameterError.
    """
    _check_jobs(jobs)  # grid-wide: a bad count must not skip every cell
    progress = (lambda msg: print(msg, file=sys.stderr)) if progress is None else progress
    reports = []
    cells = grid.cells()
    for index, (theta, r, T) in enumerate(cells):
        try:
            sample = pair_sample(theta, r, T, dt=grid.dt_policy,
                                 replications=grid.replications,
                                 base_seed=grid.base_seed, cell_index=index, jobs=jobs,
                                 paths=_STATISTICS[grid.statistic][0])
            reports.append(summarize_cell(sample, grid.statistic, grid.alpha))
        except (YuleOuError, ArithmeticError, MemoryError) as exc:
            progress(f"cell {index + 1}/{len(cells)} theta={theta} r={r} T={T}: "
                     f"skipped ({exc or type(exc).__name__})")
            continue
        progress(f"cell {index + 1}/{len(cells)} theta={theta} r={r} T={T}: done")
    if not reports:
        raise ParameterError("every cell of the grid was skipped")
    return reports


def write_reports_csv(fileobj, reports):
    fileobj.write(",".join(McReport.COLUMNS) + "\n")
    for rep in reports:
        fileobj.write(rep.csv_row() + "\n")


# ---------------------------------------------------------------------------
# Multi-mode (field) replications
# ---------------------------------------------------------------------------

def spde_mode_samples(n_modes, r, horizon_T, replications, base_seed, jobs=1):
    """Per-mode PairSamples of the field experiment (mode k at theta = k^2,
    dt = sde.default_dt(k^2, T)).

    Mode k of replication j is row j of the streams (base_seed, 0, 2(k-1))
    and (base_seed, 0, 2k-1), so modes are independent and adding modes
    leaves the earlier ones unchanged.  The step count grows with k, so the
    top mode's grid is checked before any mode is simulated.  Each mode is
    one pair_sample call, so with jobs > 1 each mode of more than one
    block runs on its own thread pool, in turn.
    """
    check_integer(n_modes=n_modes)
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    sde.grid_size(horizon_T, sde.default_dt(float(n_modes * n_modes), horizon_T))
    samples = []
    for k in range(1, n_modes + 1):
        samples.append(pair_sample(float(k * k), r, horizon_T,
                                   replications=replications, base_seed=base_seed,
                                   cell_index=0, jobs=jobs, process_offset=2 * (k - 1)))
    return samples


def spde_family_rejections(mode_samples, alpha, variant="rho_known_theta"):
    """Each mode's TestOutcome and the family's rejection flags for the field test.

    Each mode is tested at its own rate and at the per-mode level alpha, so
    the family, which rejects on any mode, has rate 1-(1-alpha)^N; passing
    hyp.sidak_level(a, N) as alpha gives the family rate a.
    """
    if not mode_samples:
        raise ParameterError("the field test needs at least one mode")
    outcomes = [hyp.apply_test(s, variant, alpha, s.theta) for s in mode_samples]
    return outcomes, np.any([out.reject for out in outcomes], axis=0)
