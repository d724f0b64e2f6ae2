"""Replication engine and empirical-distribution diagnostics.

The engine simulates many independent pairs per (theta, dt) group and
reduces each replication to its path functionals on the fly, for every
correlation r and horizon T of the group at once.  Replication j of
group c draws its two noise processes p = 0, 1 from keys (base_seed, c,
p): the replications are cut into fixed groups of consecutive rows, row
group g is the SFC64 stream sde.stream(base_seed, c, p, g), and its rows
draw from it in order (see sde.draw_paths).  The rows are as long as the
group's longest T; x1 and the auxiliary path x0 are filtered once, each
T reduces the prefix of its n_T + 1 nodes (the filter gives a prefix the
bits of the shorter path), and each r's x2 = r*x1 + sqrt(1-r^2)*x0 is
mixed from them (sde.mix_paths).  So the cells of one group, which
differ only in r and T, share their draws (common random numbers).
Blocks are fixed runs of whole row groups (the last one ragged), never
functions of the worker count.  With jobs > 1 a group's blocks run on a
pool of worker threads in the calling process; no block shares state
with another, and each result is put back in block order.  So results
are bit-identical for a given grid whatever `jobs` is and in whichever
order blocks complete.  A statistic that reads only Y11 draws process 0
alone, and its numbers are those of the full pair.
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
from .errors import (DegenerateStatisticError, InsufficientDataError, ParameterError,
                     YuleOuError, check_correlation, check_count, check_level,
                     check_positive)
from .estimators import (YuleStatistics, check_functionals, correlation,
                         cross_functionals, rate_estimate)
from .gaussian import norm_cdf, upper_quantile

_BLOCK_ELEMS = 4_000_000  # target innovations per simulated block
# a cell holds five float64 arrays with one entry per replication, 160 GiB
# at 2**32 (each further r of a group three more), so a larger count could
# never run
_MAX_REPLICATIONS = 2 ** 32


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


def _simulate_block(theta, rs, steps, dt, base_seed, cell_index, start, stop,
                    process_offset=0, paths=2):
    """Functionals of replications [start, stop) of one (theta, dt) group
    at each step count k of `steps` (ascending): a (len(steps), 1 +
    2*len(rs), m) array of Y11, then Y22 and Y12 of each r in turn, on the
    grid of k steps; with paths=1, Y11 alone, a (len(steps), 1, m) array.

    `start` starts a row group (_cell_blocks) of rows of n+1 normals, n =
    steps[-1].  The block is computed one row group at a time: one
    sde.draw_paths call, the one a simulated pair makes, draws the group's
    rows of process process_offset + p whole into one C-contiguous (G, n+1)
    array per path p and filters them into x1 and x0 in place.  Each k then
    reduces the prefix view of the first k+1 nodes, which holds the paths
    of k steps bit for bit (sde.ar1_paths): Y11 and x1's linear term once
    (estimators.cross_functionals), then for each r sde.mix_paths forms x2
    in a last (G, n+1) array, which is reduced against x1.  That array also
    holds the products of x1's linear term before the first mix, and those
    of x2's once its quadratic terms are summed, so a block holds paths + 1
    such arrays whatever its r and step counts, and allocates none after
    its first group.  A one-path block keys process 0 only and runs the
    same calls on x1 alone, so x1 and Y11 keep the pair's bits.  Rows never
    interact, so neither blocks nor groups change any bit, and each r's
    rows are those of a group run with that r alone.
    """
    n_steps = steps[-1]
    m = stop - start
    group = min(m, sde.group_rows(n_steps + 1))
    buffers = np.empty((paths + 1, group, n_steps + 1))  # x1, x0 of a pair, then x2
    out = np.empty((len(steps), 1 + 2 * len(rs) if paths == 2 else 1, m))
    with np.errstate(over="ignore", invalid="ignore"):  # pair_sample refuses the overflow
        for a in range(0, m, group):
            b = min(a + group, m)
            tiles = buffers[:, :b - a]
            sde.draw_paths(theta, dt, start + a, tiles[:paths], base_seed, cell_index,
                           process_offset)
            for i, k in enumerate(steps):
                x1, *x0, x2 = tiles[..., :k + 1]
                y11, against = cross_functionals(x1, dt, x2)
                out[i, 0, a:b] = y11
                for j, r in enumerate(rs if x0 else ()):
                    sde.mix_paths(r, x1, x0[0], x2)
                    out[i, 1 + 2 * j:3 + 2 * j, a:b] = against(x2)
    return out


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

    Given a tuple of correlations r, simulate the group once and return a
    list of one PairSample per r, in order.  Given a tuple of horizons T
    that share one dt, return a list with one entry per T, in order, each
    what the call with that T alone returns (a PairSample, or a list over
    r), computed from the first n_T + 1 nodes of the rows of the longest
    T; rows of another width draw other numbers, so only the longest T's
    entry equals the call with that T alone.  Every r and T of a call
    shares the group's draws, x1 and x0 (common random numbers), and each
    r's sample equals that of the call with that r alone, bit for bit; a
    scalar r or T is the one-element tuple.  A repeated r or T repeats its
    numbers.

    An error that concerns the whole group (an invalid parameter, a dt
    over the step cap) is raised.  So is an error of the one T of a scalar
    horizon (a grid that dt does not divide or that has one step, a Y11 or
    rate that overflows); in a tuple, that T gets its error in its place
    instead.  An r whose own Y22 or Y12 is degenerate gets its
    DegenerateStatisticError in its place in its list, so the other r keep
    their samples; a scalar r raises it, or puts it in the place of its T.

    dt=None resolves to the largest exact divisor of T with theta*dt <=
    sde.STEP_CAP, which must be the same for every T.  The result is
    invariant to `jobs`: with jobs > 1 the group's fixed blocks run on a
    pool of at most one worker thread per block, in this process, and
    jobs == 1 runs them inline.  paths=1 draws only process 0 (x1) and
    returns one-path samples, whose y11 and theta_hat equal the pair's bit
    for bit and whose rho, y22 and y12 are None.
    """
    rs = r if isinstance(r, tuple) else (r,)
    Ts = horizon_T if isinstance(horizon_T, tuple) else (horizon_T,)
    if not rs or not Ts:
        raise ParameterError("need at least one correlation r and one horizon T")
    check_count("replications", replications, 1, _MAX_REPLICATIONS)
    check_count("jobs", jobs, 1)
    check_count("paths", paths, 1, 2)
    check_positive(theta=theta)
    for each in rs:
        check_correlation(each)
    for T in Ts:
        check_positive(horizon_T=T)
    check_count("seed", base_seed, 0, sde.MAX_SEED)
    if dt is None:
        dts = {sde.default_dt(theta, T) for T in Ts}
        if len(dts) > 1:
            raise ParameterError(f"the horizons {Ts} have no common default dt; pass one")
        dt, = dts
    check_positive(dt=dt)
    sde.check_step(theta, dt)
    steps = []
    for T in Ts:
        try:
            steps.append(sde.pair_steps(T, dt))
        except ParameterError as exc:  # this T's own; a scalar T raises it below
            steps.append(exc)
    widths = sorted({n for n in steps if not isinstance(n, Exception)})
    if widths:
        tasks = [(theta, rs, tuple(widths), dt, base_seed, cell_index, a, b, process_offset,
                  paths) for a, b in _cell_blocks(replications, widths[-1])]
        reduced = dict(zip(widths, np.concatenate(_run_blocks(tasks, jobs), axis=-1)))
    samples = [n if isinstance(n, Exception) else _samples(theta, rs, n * dt, dt, reduced[n])
               for n in steps]
    if not isinstance(r, tuple):
        samples = [s if isinstance(s, Exception) else s[0] for s in samples]
    if isinstance(horizon_T, tuple):
        return samples
    if isinstance(samples[0], Exception):
        raise samples[0]
    return samples[0]


def _samples(theta, rs, horizon_T, dt, functionals):
    """One PairSample per r, or its DegenerateStatisticError, from a (1 +
    2*len(rs), m) array of functionals (a (1, m) Y11 for a one-path cell);
    a degenerate Y11 or rate gives its error in place of the list."""
    y11, *cross = functionals
    try:
        check_functionals(y11)  # the rule yule_rho applies to one pair
        theta_hat = rate_estimate(y11, horizon_T)
    except DegenerateStatisticError as exc:
        return exc
    samples = []
    for k, each in enumerate(rs):
        y22 = y12 = rho = None
        if cross:
            y22, y12 = cross[2 * k], cross[2 * k + 1]
            try:
                check_functionals(y11, y22, y12)
            except DegenerateStatisticError as exc:
                samples.append(exc)
                continue
            rho = correlation(y11, y22, y12)
        samples.append(PairSample(y11=y11, y22=y22, y12=y12, rho=rho, theta_hat=theta_hat,
                                  horizon_T=horizon_T, theta=theta, r=each, dt=dt))
    return samples


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
        # grid-wide inputs fail here, axis values by pair_sample's rule before float()
        for name, check in (("thetas", lambda v: check_positive(theta=v)),
                            ("rs", check_correlation),
                            ("horizons", lambda v: check_positive(horizon_T=v))):
            seq = tuple(getattr(self, name))
            if not seq:
                raise ParameterError(f"{name} must be nonempty")
            for value in seq:
                check(value)
            object.__setattr__(self, name, tuple(map(float, seq)))
        check_count("replications", self.replications, 1, _MAX_REPLICATIONS)
        if self.dt_policy is not None:
            check_positive(dt=self.dt_policy)
        check_count("seed", self.base_seed, 0, sde.MAX_SEED)
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
    _, test, standardize = _STATISTICS[statistic]
    # a test row's flags come first: variant_statistic refuses a one-path sample
    flags = None if test is None else rejections(sample, test, alpha)
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
    if flags is None:
        flags = np.abs(values) > upper_quantile(alpha / 2.0)
    rate, lo, hi = error_rates(flags)
    return McReport(theta=sample.theta, r=sample.r, horizon_T=sample.horizon_T,
                    n=n, mean=float(np.mean(values)), variance=k2, k3=k3, k4=k4,
                    d_kol=kolmogorov_distance(values), reject_rate=rate,
                    ci_lo=lo, ci_hi=hi)


# a cell failing with one of these exits 2 as a command; run_grid skips it
_CELL_ERRORS = (YuleOuError, ArithmeticError, MemoryError)


def run_grid(grid, jobs=1, progress=None):
    """Run every cell of the grid and aggregate; deterministic in base_seed.

    The cells are cut into (theta, dt) groups, in grid order, dt being the
    grid's fixed dt or each T's default one.  Each group is simulated once
    for all of its r and T, by one pair_sample call keyed by the group's
    index: a shorter T reduces a prefix of the longest T's rows.  Its cells
    share their draws, so estimates across r and across T are dependent
    (common random numbers), while each keeps its own law; a repeated theta
    or T repeats its numbers.  Group 0 holds cell 0, and when no two T
    share a (theta, dt) the group index is the (theta, T) index.  Each group
    simulates only the paths its statistic reads (_STATISTICS):
    theta_hat_centered and ybar_centered draw process 0 alone, and their
    reports equal those of the full pair.  A cell failing as a command
    exits 2 is reported on stderr as its group finishes and skipped: a
    group's failure (a fixed dt over the step cap for a large theta) skips
    each of its cells; a T's failure (a T that a fixed dt does not divide
    or leaves one step, an overflow of Y11) the cells of that T; an
    overflow or a summary refusal of one r only that cell.  Reports come in
    cell order.  A grid whose every cell is skipped raises ParameterError.
    """
    check_count("jobs", jobs, 1)  # grid-wide: a bad count must not skip every cell
    progress = (lambda msg: print(msg, file=sys.stderr)) if progress is None else progress
    n_rs, n_Ts = len(grid.rs), len(grid.horizons)
    n_cells = len(grid.thetas) * n_rs * n_Ts
    reports = [None] * n_cells
    groups = {}  # (theta, dt): the (theta, T) indices of its cells, in grid order
    for (i, theta), (k, T) in itertools.product(enumerate(grid.thetas),
                                                enumerate(grid.horizons)):
        try:
            dt = sde.default_dt(theta, T) if grid.dt_policy is None else grid.dt_policy
        except ArithmeticError:  # theta*T overflows; pair_sample raises it again
            dt = None
        groups.setdefault((theta, dt), []).append((i, k))
    for group, ((theta, dt), members) in enumerate(groups.items()):
        Ts = tuple(grid.horizons[k] for _, k in members)
        try:
            samples = pair_sample(theta, grid.rs, Ts, dt=dt, replications=grid.replications,
                                  base_seed=grid.base_seed, cell_index=group, jobs=jobs,
                                  paths=_STATISTICS[grid.statistic][0])
        except _CELL_ERRORS as exc:
            samples = [exc] * len(Ts)
        for (i, k), per_r in zip(members, samples):
            if isinstance(per_r, Exception):
                per_r = [per_r] * n_rs
            for j, (r, sample) in enumerate(zip(grid.rs, per_r)):
                index = (i * n_rs + j) * n_Ts + k
                T = grid.horizons[k]
                try:
                    if isinstance(sample, Exception):
                        raise sample
                    reports[index] = summarize_cell(sample, grid.statistic, grid.alpha)
                except _CELL_ERRORS as exc:
                    progress(f"cell {index + 1}/{n_cells} theta={theta} r={r} T={T}: "
                             f"skipped ({exc or type(exc).__name__})")
                    continue
                progress(f"cell {index + 1}/{n_cells} theta={theta} r={r} T={T}: done")
    reports = [rep for rep in reports if rep is not None]
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
    check_count("n_modes", n_modes, 1)
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
