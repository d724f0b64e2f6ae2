"""Exact simulation of mean-reverting Gaussian paths.

The process dX = -theta*X dt + dW started at X(0)=0 is sampled on a
uniform grid through its exact Gaussian transition

    X(t + dt) = exp(-theta*dt) * X(t) + xi,
    xi ~ N(0, (1 - exp(-2*theta*dt)) / (2*theta)),

so the discrete skeleton has zero time-discretization bias; downstream
statistics are only approximate through the quadrature of path integrals.

Every simulated path is drawn and filtered by draw_paths: the rows of key
(cell, process) are cut into groups, group g is the SFC64 stream keyed by
SeedSequence(seed, spawn_key=(cell, process, g)), and its rows draw from
it in order.  A single pair is row 0 of cell 0, the engine's replication 0
by construction.  Every path is reproducible from integers alone.

A pair is two filtered paths mixed by one rule (mix_paths): x1 and the
auxiliary x0 are filtered from their own noise, and x2 = r*x1 +
sqrt(1-r^2)*x0, exact because the AR(1) filter is linear.  So every r
at one (theta, dt) can share x1 and x0.  The filter gives a row's first
k+1 nodes the bits of the row of k steps (ar1_paths), so every T at one
(theta, dt) can share them too: a shorter T reduces a prefix of the rows.
"""

import io
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_correlation, check_count, check_positive
from .estimators import PathPair

#: Cap on theta*dt.  At the cap the exact quadrature bias of the mean and
#: of the variance of Y11 and Y12 (exact.relative_bias) is at most half the
#: Monte Carlo SE of every validation-suite cell (tests/test_exact.py); the
#: variance bias, about 0.35%, passes half an SE above some 40 000 reps.
STEP_CAP = 0.1

#: Largest grid, in steps, that is simulated.  One path of this many steps
#: is 128 MiB of float64.  A simulated pair holds three such arrays at once
#: (x1 and x0, each filtered in place over its own draws, and x2, mixed in
#: an array of its own), and so does an engine block of a pair whatever its
#: r and T (x2's array also holds the reductions' products), so a larger
#: grid is refused before anything is allocated.
MAX_STEPS = 2 ** 24

_GRID_RTOL = 1e-9

#: Largest seed: a seed is an integer in 64 unsigned bits.
MAX_SEED = 2 ** 64 - 1

#: ar1_paths filters a row in chunks over which the weights factor**j decay
#: by at most exp(-_CHUNK_DECAY), and of at most _CHUNK_STEPS steps.  The
#: first keeps every weight and partial sum far from float64 underflow,
#: the second bounds the weight arrays; longer chunks only save loop turns.
_CHUNK_DECAY = 200.0
_CHUNK_STEPS = 2 ** 14


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def stream(seed, *key):
    """Return the generator of stream (seed, *key),
    Generator(SFC64(SeedSequence(seed, spawn_key=key))).

    Stream identity is purely the integer tuple, so any worker can recreate
    any stream without shared state.
    """
    ints = [operator.index(part) for part in (seed, *key)]
    if min(ints) < 0:
        raise ParameterError("stream key parts must be nonnegative")
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(ints[0], spawn_key=ints[1:])))


#: Normals per row group of a stream.  A layout constant: it fixes which
#: numbers every Monte Carlo replication draws, so changing it changes them.
_GROUP_ELEMS = 2 ** 16


def group_rows(width):
    """Rows G = max(1, _GROUP_ELEMS // width) of a row group of rows of
    `width` normals."""
    return max(1, _GROUP_ELEMS // width)


def draw_group(first, out, seed, *key):
    """Write rows first, first+1, ... of key (seed, *key) to `out`, a
    C-contiguous (rows, w) array, and return it.

    Rows of w normals are cut into groups of G = group_rows(w) consecutive
    row indices.  Group g is stream(seed, *key, g), and row g*G + i draws
    normals i*w .. (i+1)*w - 1 of it.  `first` must start a group and
    `out` hold at most its G rows, so the rows are one draw.
    """
    rows, width = out.shape
    per_group = group_rows(width)
    if first % per_group or rows > per_group or not out.flags.c_contiguous:
        raise ParameterError(f"cannot draw {rows} rows of width {width} from row {first}: "
                             f"a group draw starts a group of {per_group} rows, holds at "
                             f"most one group and fills a C-contiguous array")
    return stream(seed, *key, first // per_group).standard_normal(out.shape, out=out)


# ---------------------------------------------------------------------------
# Closed-form transition and moments
# ---------------------------------------------------------------------------

def transition_factor(theta, dt):
    """Autoregressive factor exp(-theta*dt) of the exact transition."""
    check_positive(theta=theta)
    if dt < 0:
        raise ParameterError("dt must be nonnegative")
    return math.exp(-theta * dt)


def innovation_variance(theta, dt):
    """Variance (1 - exp(-2*theta*dt)) / (2*theta) of the exact innovation."""
    check_positive(theta=theta)
    if dt < 0:
        raise ParameterError("dt must be nonnegative")
    return -math.expm1(-2.0 * theta * dt) / (2.0 * theta)


def ou_covariance(theta, s, t):
    """Covariance of the zero-start process at times s and t.

    Equals exp(-theta*|t-s|) * (1 - exp(-2*theta*min(s,t))) / (2*theta), the
    overflow-safe form of exp(-theta(s+t)) * (exp(2*theta*min(s,t)) - 1) / (2*theta);
    expm1 keeps it accurate where theta*min(s,t) is small.
    """
    check_positive(theta=theta)
    if not (0.0 <= s < math.inf and 0.0 <= t < math.inf):
        raise ParameterError("times must be nonnegative and finite")
    if min(s, t) == 0.0:  # the zero start; 2*theta*0 is inf*0 above theta = 9e307
        return 0.0
    x = math.exp(-theta * abs(t - s)) * -math.expm1(-2.0 * theta * min(s, t))
    return 0.5 * (x / theta)  # 2*theta overflows above theta = 9e307


def mean_functional_variance(theta, horizon_T):
    """Exact variance of the time-averaged path, E[(1/T int X)^2].

    Closed form of (1/(T*theta)^2) * int_0^T (1 - exp(-theta*(T-u)))^2 du.
    Its terms cancel to order theta*T, so below theta*T = 1 it is the series
    T sum_{k>=3} (-1)^k (2 - 2^(k-1)) / k! x^(k-3), x = theta*T (leading
    terms T (1/3 - x/4 + 7x^2/60)).
    """
    check_positive(theta=theta, horizon_T=horizon_T)
    th, T = theta, horizon_T
    x = th * T
    if x < 1.0:
        return T * sum((-1.0) ** k * (2.0 - 2.0 ** (k - 1)) / math.factorial(k)
                       * x ** (k - 3) for k in range(3, 40))
    integral = T + 2.0 * math.expm1(-th * T) / th - math.expm1(-2.0 * th * T) / (2.0 * th)
    return integral / (th * T) ** 2


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePath:
    """One scalar path observed on the uniform grid t0 + k*dt."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        check_positive(dt=self.dt)
        if self.t0 < 0:
            raise ParameterError("t0 must be nonnegative")
        if values.ndim != 1 or values.size == 0:
            raise ParameterError("values must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise ParameterError("path values must be finite")

    @property
    def horizon(self):
        """Grid length (number of values - 1) * dt."""
        return (self.values.size - 1) * self.dt

    def times(self):
        return self.t0 + self.dt * np.arange(self.values.size)


@dataclass(frozen=True)
class CorrelatedPairConfig:
    """Complete description of one simulated pair experiment."""

    theta: float
    r: float
    horizon_T: float
    dt: float
    seed: int

    def __post_init__(self):
        check_positive(theta=self.theta)
        check_correlation(self.r)
        check_count("seed", self.seed, 0, MAX_SEED)
        check_step(self.theta, self.dt)
        pair_steps(self.horizon_T, self.dt)

    @property
    def n_steps(self):
        return grid_size(self.horizon_T, self.dt)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def grid_size(horizon_T, dt):
    """Number of steps n with n*dt == horizon_T (within 1e-9 relative),
    at most MAX_STEPS."""
    if not 0 < dt <= horizon_T < math.inf:
        raise ParameterError(f"need a finite horizon_T >= dt > 0, got {horizon_T} and {dt}")
    if horizon_T / dt > MAX_STEPS + 0.5:  # inf when the quotient overflows
        raise ParameterError(f"the grid has {horizon_T / dt:.15g} steps, more than "
                             f"MAX_STEPS={MAX_STEPS}")
    n = int(round(horizon_T / dt))
    if abs(n * dt - horizon_T) > _GRID_RTOL * max(1.0, horizon_T):
        raise ParameterError(f"horizon_T={horizon_T} is not an integer multiple of dt={dt}")
    return n


def check_step(theta, dt):
    """Refuse a dt over the step cap STEP_CAP/theta."""
    if dt > STEP_CAP / theta * (1.0 + 1e-12):
        raise ParameterError(f"dt={dt} exceeds step cap {STEP_CAP}/theta={STEP_CAP / theta:g}")


def pair_steps(horizon_T, dt):
    """Steps n = grid_size(horizon_T, dt) of a pair's grid, refusing a grid
    of one step: on two nodes rho is exactly +1 or -1 in every replication."""
    n = grid_size(horizon_T, dt)
    if n < 2:
        raise ParameterError(f"dt={dt} leaves one step on [0, {horizon_T}]; need at least two")
    return n


def default_dt(theta, horizon_T):
    """Largest dt that divides horizon_T exactly and satisfies theta*dt <= STEP_CAP."""
    check_positive(theta=theta, horizon_T=horizon_T)
    n = max(1, math.ceil(theta * horizon_T / STEP_CAP - 1e-12))
    return horizon_T / n


def ar1_paths(factor, x):
    """Filter x in place through X_k = factor*X_{k-1} + xi_k, X_0 = 0, and
    return x.

    x is a float64 array with the grid nodes on the last axis, its nodes
    1..n holding the innovations xi_1..xi_n; node 0 is set to the zero
    initial condition whatever it held.  Nodes are filtered in chunks of
    m steps, m fixed by the factor alone: a chunk starting from the carry
    c = X_a is

        X_{a+k} = factor**-(m-k) * (factor**m * c + sum_{i<=k} factor**(m-i) xi_{a+i}),

    one product, a running sum along the row and one more product.  A last,
    partial chunk of k < m steps takes the first k weights of a full one.
    So node j's bits depend only on nodes 1..j and the factor, never on the
    row length: a row's first k+1 nodes are those of the row of k steps.  The
    chunk is short enough that its weights factor**j stay within
    exp(-_CHUNK_DECAY), so the error is that of the sequential recursion.
    Every step acts on elements or accumulates along one row, so a row's
    bits do not depend on the rows beside it.
    """
    if not 0.0 <= factor <= 1.0:
        raise ParameterError(f"the AR(1) factor must lie in [0, 1], got {factor}")
    n = x.shape[-1] - 1
    x[..., 0] = 0.0
    rate = -math.log(factor) if factor > 0.0 else math.inf
    m = max(1, min(_CHUNK_STEPS, int(_CHUNK_DECAY / rate) if rate else _CHUNK_STEPS))
    rise = factor ** np.arange(m - 1, m - 1 - min(m, n), -1.0)
    fall = 1.0 / rise
    carry = factor ** m
    for a in range(0, n, m):
        k = min(m, n - a)
        seg = x[..., a + 1:a + k + 1]
        seg *= rise[:k]
        seg[..., 0] += carry * x[..., a]
        np.cumsum(seg, axis=-1, out=seg)
        seg *= fall[:k]
    return x


def simulate_ou(theta, horizon_T, dt, seed):
    """Simulate one path by the exact transition on the grid covering [0, T]
    from row 0 of key (seed, 0, 0): the x1 of a pair simulated at `seed`."""
    check_positive(theta=theta, dt=dt)
    check_count("seed", seed, 0, MAX_SEED)
    x, = draw_paths(theta, dt, 0, np.empty((1, 1, grid_size(horizon_T, dt) + 1)), seed, 0)
    return SamplePath(t0=0.0, dt=dt, values=x[0])


def draw_paths(theta, dt, first, out, seed, cell, process=0):
    """Draw rows first, first+1, ... of key (seed, cell, process + i) into
    each out[i] (draw_group), filter them in place (filtered_paths) and
    return `out`: the one route of every simulated path."""
    for p, rows in enumerate(out, process):
        draw_group(first, rows, seed, cell, p)
    filtered_paths(theta, dt, *out)
    return out


def filtered_paths(theta, dt, *z):
    """Turn each z, of shape (..., n+1) with standard normals in nodes
    1..n, into the exact path filtered from the innovations sd*z, in place,
    and return z.

    Each leading index is one independent path, and every row gets the
    bits it would get alone.  Node 0 may hold any number: it is scaled
    with its row, then set to the zero start by ar1_paths.
    """
    sd = math.sqrt(innovation_variance(theta, dt))
    factor = transition_factor(theta, dt)
    for x in z:
        x *= sd
        ar1_paths(factor, x)
    return z


def mix_paths(r, x1, x0, out):
    """Write x2 = r*x1 + sqrt(1-r^2)*x0 to `out`, an array of x1's shape
    that is neither x1 nor x0, and return it.

    This is the one mixing rule of a pair: the second path's driving noise
    is r*W1 + sqrt(1-r^2)*W0, and the filter is linear, so the mix of the
    filtered paths is the path filtered from the mixed noise.  It is formed
    as c*((r/c)*x1 + x0), c = sqrt(1-r^2), three passes over `out` that
    need no other array; at |r| = 1, where c is 0, as r*x1.  At r = 1, 0
    and -1, x2 equals x1, x0 and -x1 exactly.
    """
    c = math.sqrt(1.0 - r * r)
    if c == 0.0:
        return np.multiply(x1, r, out=out)
    np.multiply(x1, r / c, out=out)
    out += x0
    out *= c
    return out


def simulate_correlated_pair(config):
    """Simulate a pair with driving-noise correlation config.r from row 0 of
    keys (config.seed, 0, p), p = 0 for x1 and 1 for the auxiliary x0: the
    engine's replication 0 of cell 0."""
    x1, x0 = draw_paths(config.theta, config.dt, 0, np.empty((2, 1, config.n_steps + 1)),
                        config.seed, 0)
    x2 = mix_paths(config.r, x1, x0, np.empty_like(x1))
    return PathPair(*(SamplePath(0.0, config.dt, x[0]) for x in (x1, x2)))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

#: rows of a pair CSV formatted per write, which bounds the text held at once
_CSV_ROWS = 2 ** 16


def write_pair_csv(pair, fileobj):
    """Write a pair as `t,x1,x2` rows at full double precision."""
    fileobj.write("t,x1,x2\n")
    columns = (pair.x1.times(), pair.x1.values, pair.x2.values)
    for a in range(0, columns[0].size, _CSV_ROWS):
        rows = zip(*(col[a:a + _CSV_ROWS].tolist() for col in columns))
        fileobj.write("".join(map("%.17g,%.17g,%.17g\n".__mod__, rows)))


# a newline and the blank or comment line after it (the literal start keeps a
# search over a whole file fast)
_SKIPPED = re.compile(r"\n[^\S\n]*(#[^\n]*)?(?=\n|\Z)")


def read_pair_csv(fileobj):
    """Read a `t,x1,x2` file back into (times, x1, x2) arrays.

    Blank and `#` lines are skipped.  The first other line must be the
    header and every later one three numbers; a trailing `# ...` is
    refused.  A file breaking a rule raises ValueError.
    """
    lines = iter(fileobj)
    for header in lines:
        header = header.strip()
        if header and not header.startswith("#"):
            break
    else:
        raise ValueError("no path data found")
    if header.lower().replace(" ", "") != "t,x1,x2":
        raise ValueError(f"expected header 't,x1,x2', got {header!r}")
    body = _SKIPPED.sub("", "\n" + "".join(lines))
    if not body.strip():  # np.loadtxt only warns on an empty file
        raise ValueError("no path data found")
    data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"expected 3 fields per row, got {data.shape[1]}")
    return data[:, 0], data[:, 1], data[:, 2]
