"""Exact simulation of mean-reverting Gaussian paths.

The process dX = -theta*X dt + dW started at X(0)=0 is sampled on a
uniform grid through its exact Gaussian transition

    X(t + dt) = exp(-theta*dt) * X(t) + xi,
    xi ~ N(0, (1 - exp(-2*theta*dt)) / (2*theta)),

so the discrete skeleton has zero time-discretization bias; downstream
statistics are only approximate through the quadrature of path integrals.

Randomness is drawn from counter-based Philox streams.  A stream is keyed
by SeedSequence(seed, spawn_key=key).  The Monte Carlo replications of key
(cell, process) are cut into groups of consecutive rows; group g is that
key's Philox with its counter started at [0, 0, g, 0], and its rows draw
from it in order (draw_group).  Every path is reproducible from integers
alone and safe to generate from parallel workers.
"""

import io
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_correlation, check_integer, check_positive
from .estimators import PathPair

#: Cap on theta*dt.  At the cap the exact quadrature bias of the mean and
#: of the variance of Y11 and Y12 (exact.relative_bias) is at most half the
#: Monte Carlo SE of every validation-suite cell (tests/test_exact.py); the
#: variance bias, about 0.35%, passes half an SE above some 40 000 reps.
STEP_CAP = 0.1

#: Largest grid, in steps, that is simulated.  One path of this many steps
#: is 128 MiB of float64, and a simulated pair holds three such arrays at
#: once (the two paths, each filtered in place over its own draws, and one
#: scratch for the noise mix and the reductions), so a larger grid is
#: refused before anything is allocated.
MAX_STEPS = 2 ** 24

_GRID_RTOL = 1e-9

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
    Generator(Philox(SeedSequence(seed, spawn_key=key))).

    Stream identity is purely the integer tuple, so any worker can recreate
    any stream without shared state.
    """
    ints = [operator.index(part) for part in (seed, *key)]
    if min(ints) < 0:
        raise ParameterError("stream key parts must be nonnegative")
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(ints[0], spawn_key=ints[1:])))


#: Normals per row group of a stream.  A layout constant: it fixes which
#: numbers every Monte Carlo replication draws, so changing it changes them.
_GROUP_ELEMS = 2 ** 16


def group_rows(width):
    """Rows G = max(1, _GROUP_ELEMS // width) of a row group of rows of
    `width` normals."""
    return max(1, _GROUP_ELEMS // width)


def draw_group(gen, first, out):
    """Write rows first, first+1, ... of stream `gen` to `out`, a C-contiguous
    (rows, w) array, and return it.

    Rows of w normals are cut into groups of G = group_rows(w) consecutive
    row indices.  Group g is gen's Philox with its counter set to
    [0, 0, g, 0] and an empty buffer, which is Philox(...).advance(g << 128),
    and row g*G + i draws normals i*w .. (i+1)*w - 1 of it.  Groups are
    2^128 counter steps apart, far more than one draws, so no two rows
    share a number.  `first` must start a group and `out` hold at most
    its G rows, so the rows are one draw.
    """
    rows, width = out.shape
    per_group = group_rows(width)
    if first % per_group or rows > per_group or not out.flags.c_contiguous:
        raise ParameterError(f"cannot draw {rows} rows of width {width} from row {first}: "
                             f"a group draw starts a group of {per_group} rows, holds at "
                             f"most one group and fills a C-contiguous array")
    state = gen.bit_generator.state
    state["state"]["counter"] = [0, 0, first // per_group, 0]
    state["buffer_pos"] = state["buffer"].size  # an empty buffer
    gen.bit_generator.state = state
    return gen.standard_normal(out.shape, out=out)


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

    Equals (exp(-theta*|t-s|) - exp(-theta*(t+s))) / (2*theta), which is the
    overflow-safe form of exp(-theta(s+t)) * (exp(2*theta*min(s,t)) - 1) / (2*theta).
    """
    check_positive(theta=theta)
    if not (0.0 <= s < math.inf and 0.0 <= t < math.inf):
        raise ParameterError("times must be nonnegative and finite")
    return (math.exp(-theta * abs(t - s)) - math.exp(-theta * (t + s))) / (2.0 * theta)


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
        check_pair_inputs(self.r, self.seed)
        if not self.horizon_T >= self.dt > 0:
            raise ParameterError("need horizon_T >= dt > 0")
        if self.dt > STEP_CAP / self.theta * (1.0 + 1e-12):
            raise ParameterError(
                f"dt={self.dt} exceeds step cap {STEP_CAP}/theta={STEP_CAP / self.theta:g}"
            )
        if grid_size(self.horizon_T, self.dt) < 2:  # validates divisibility
            # on a two-node grid rho is exactly +1 or -1 in every replication
            raise ParameterError(f"dt={self.dt} leaves one step on [0, {self.horizon_T}]; "
                                 "need at least two")

    @property
    def n_steps(self):
        return grid_size(self.horizon_T, self.dt)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def grid_size(horizon_T, dt):
    """Number of steps n with n*dt == horizon_T (within 1e-9 relative),
    at most MAX_STEPS."""
    if dt <= 0 or horizon_T < dt:
        raise ParameterError("need horizon_T >= dt > 0")
    n = int(round(horizon_T / dt))
    if n < 1 or abs(n * dt - horizon_T) > _GRID_RTOL * max(1.0, horizon_T):
        raise ParameterError(
            f"horizon_T={horizon_T} is not an integer multiple of dt={dt}"
        )
    if n > MAX_STEPS:
        raise ParameterError(f"the grid has {n} steps, more than MAX_STEPS={MAX_STEPS}")
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
    m steps: a chunk starting from the carry c = X_a is

        X_{a+k} = factor**-(m-k) * (factor**m * c + sum_{i<=k} factor**(m-i) xi_{a+i}),

    one product, a running sum along the row and one more product.  The
    chunk is short enough that its weights factor**j stay within
    exp(-_CHUNK_DECAY), and each weight is a correctly rounded power, so
    the error is that of the sequential recursion.  Every step acts on
    elements or accumulates along one row, so a row's bits do not depend
    on the rows beside it.
    """
    if not 0.0 <= factor <= 1.0:
        raise ParameterError(f"the AR(1) factor must lie in [0, 1], got {factor}")
    n = x.shape[-1] - 1
    x[..., 0] = 0.0
    rate = -math.log(factor) if factor > 0.0 else math.inf
    m = max(1, min(n, _CHUNK_STEPS, int(_CHUNK_DECAY / rate) if rate else n))
    rise = factor ** np.arange(m - 1, -1, -1.0)
    fall = 1.0 / rise
    for a in range(0, n, m):
        k = min(m, n - a)
        seg = x[..., a + 1:a + k + 1]
        seg *= rise[m - k:]
        seg[..., 0] += factor ** k * x[..., a]
        np.cumsum(seg, axis=-1, out=seg)
        seg *= fall[m - k:]
    return x


def simulate_ou(theta, horizon_T, dt, generator):
    """Simulate one path by the exact transition on the grid covering [0, T],
    drawing its steps from `generator`."""
    check_positive(theta=theta, dt=dt)
    n = grid_size(horizon_T, dt)
    x = np.empty(n + 1)
    generator.standard_normal(n, out=x[1:])
    return SamplePath(t0=0.0, dt=dt, values=ou_paths(theta, dt, x))


def _innovations(theta, dt, z):
    """Scale the standard normals in nodes 1..n of z (float64, shape
    (..., n+1)) in place to the exact innovations sd*z and return z."""
    z[..., 1:] *= math.sqrt(innovation_variance(theta, dt))
    return z


def ou_paths(theta, dt, z):
    """Turn z, of shape (..., n+1) with standard normals in nodes 1..n, into
    exact paths in place and return it.

    Each leading index is one independent path, and every row gets the
    same bits as it would alone.
    """
    return ar1_paths(transition_factor(theta, dt), _innovations(theta, dt, z))


def correlated_paths(theta, r, dt, z1, z0, scratch=None):
    """Turn z1 and z0, of shape (..., n+1) with standard normals in nodes
    1..n, into an exact pair of paths in place and return (z1, z0).

    The second path's driving noise is r*W1 + sqrt(1-r^2)*W0, so its exact
    innovation is the same combination of the per-process innovations.
    Each leading index is one independent pair; a single pair is a batch
    of one, and every row gets the same bits as it would alone.  The first
    path is ou_paths(theta, dt, z1), so it has the bits of a one-path draw.

    The product r*(sd*z1) is formed in `scratch`, an array of z1's shape
    (one is allocated if None); products and sums only trade operands, so
    z0's innovations have the bits of r*(sd*z1) + sqrt(1-r^2)*(sd*z0).
    """
    xi1 = _innovations(theta, dt, z1)[..., 1:]
    xi0 = _innovations(theta, dt, z0)[..., 1:]
    xi0 *= math.sqrt(1.0 - r * r)
    xi0 += np.multiply(r, xi1, out=None if scratch is None else scratch[..., 1:])
    factor = transition_factor(theta, dt)
    return ar1_paths(factor, z1), ar1_paths(factor, z0)


def simulate_correlated_pair(config):
    """Simulate a pair of paths with driving-noise correlation config.r.

    x1 is driven by stream (config.seed, 0) and the auxiliary noise by
    stream (config.seed, 1).
    """
    n = config.n_steps
    z = np.empty((2, n + 1))
    for p in range(2):
        stream(config.seed, p).standard_normal(n, out=z[p, 1:])
    x1, x2 = correlated_paths(config.theta, config.r, config.dt, *z)
    return PathPair(x1=SamplePath(0.0, config.dt, x1), x2=SamplePath(0.0, config.dt, x2))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_pair_csv(pair, fileobj):
    """Write a pair as `t,x1,x2` rows at full double precision."""
    fileobj.write("t,x1,x2\n")
    times = pair.x1.times()
    for t, a, b in zip(times, pair.x1.values, pair.x2.values):
        fileobj.write(f"{t:.17g},{a:.17g},{b:.17g}\n")


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


def check_pair_inputs(r, seed):
    """Reject |r| > 1 (NaN included) and a seed that is not an integer in 64
    unsigned bits."""
    check_correlation(r)
    check_integer(seed=seed)
    if not 0 <= int(seed) < 2 ** 64:
        raise ParameterError(f"seed must fit in 64 unsigned bits, got {seed}")
