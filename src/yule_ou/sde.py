"""Exact simulation of mean-reverting Gaussian paths.

The process dX = -theta*X dt + dW started at X(0)=0 is sampled on a
uniform grid through its exact Gaussian transition

    X(t + dt) = exp(-theta*dt) * X(t) + xi,
    xi ~ N(0, (1 - exp(-2*theta*dt)) / (2*theta)),

so the discrete skeleton has zero time-discretization bias; downstream
statistics are only approximate through the quadrature of path integrals.

Randomness is drawn from counter-based Philox streams addressed by
SeedSequence spawn keys (seed, cell, replication, process), which makes
every path reproducible and safe to generate from parallel workers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_correlation, check_positive
from .estimators import PathPair

#: Cap on theta*dt; keeps quadrature error of the path functionals below
#: Monte Carlo noise at the validation-suite sample sizes.
STEP_CAP = 0.05

#: Largest grid, in steps, that is simulated.  One path of this many steps
#: is 128 MiB of float64, and a simulated pair holds up to about eight such
#: arrays at once (draws, paths, filter and reduction temporaries), so a
#: larger grid is refused before anything is allocated.
MAX_STEPS = 2 ** 24

_GRID_RTOL = 1e-9


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

# SeedSequence's hash constants, from NumPy's numpy/random/bit_generator.pyx
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _words(n):
    """Little-endian 32-bit words of a nonnegative integer (one word for 0)."""
    n = int(n)
    if n < 0:
        raise ParameterError(f"stream key parts must be nonnegative, got {n}")
    words = [n & _M32]
    while n >> 32 * len(words):
        words.append(n >> 32 * len(words) & _M32)
    return words


def _index_word(part):
    """An index array as one uint32 word per entry, as SeedSequence packs it."""
    part = np.asarray(part)
    if part.size and not (part.min() >= 0 and part.max() <= _M32):
        raise ParameterError("stream index arrays must lie in [0, 2**32)")
    return part.astype(np.uint32)


def _hashmix(const, mult):
    """SeedSequence's hashmix step; its multiplier advances with every call."""
    def step(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return step


def _mix(x, y):
    value = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return value ^ value >> 16


def _philox_key(seed, *key):
    """The Philox key SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)
    returns, as a uint64 array of shape (..., 2).

    This is NumPy's SeedSequence hash (pool of four 32-bit words) in 32-bit
    arithmetic: Python ints masked to 32 bits, or uint32 arrays.  One key
    part may be an integer array with entries below 2**32, one word each;
    the hash then runs once for all its entries.
    """
    words = _words(seed)
    if key:
        words += [0] * (4 - len(words))  # SeedSequence pads a spawned seed
    for part in key:
        words += [_index_word(part)] if np.ndim(part) else _words(part)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = _hashmix(_INIT_B, _MULT_B)
    w = [np.asarray(state(value), dtype=np.uint64) for value in pool]
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=-1)


def stream(seed, *key):
    """Return the Philox generator of stream (seed, *key).

    Its numbers are those of Philox(SeedSequence(seed, spawn_key=key)):
    the key is that SeedSequence's hash, computed by `_philox_key`.  Stream
    identity is purely the integer tuple, so any worker can recreate any
    stream without shared state.

    If one key part is an index array, the result is a RowStreams over the
    streams of its entries, one per row.
    """
    keys = _philox_key(seed, *key)
    if keys.ndim > 1:
        return RowStreams(keys)
    return np.random.Generator(np.random.Philox(key=keys))


class RowStreams:
    """The streams of a block's rows, each row drawn from its own stream.

    One Philox, owned by the block, is re-keyed before each row: its state
    becomes that of a fresh Philox(key=k), counter 0 and empty buffer, so a
    row gets exactly the numbers of its own stream's generator.  Rows are
    handed out in order; each call continues where the last one stopped.
    """

    def __init__(self, keys):
        self._keys = keys
        self._next = 0
        self._bitgen = np.random.Philox(key=0)  # re-keyed before each row
        self._gen = np.random.Generator(self._bitgen)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": None},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def standard_normal(self, size, out):
        """Write the first n standard normals of each of the next `rows`
        streams to `out`, of shape size = (rows, n), and return it."""
        rows = len(out)
        if out.shape != tuple(size) or self._next + rows > len(self._keys):
            raise ParameterError(f"cannot draw {size} from {len(self._keys) - self._next} "
                                 f"remaining row streams into shape {out.shape}")
        state, keys = self._state, self._keys[self._next:self._next + rows].tolist()
        for key, row in zip(keys, out):
            state["state"]["key"] = key
            self._bitgen.state = state
            self._gen.standard_normal(out=row)
        self._next += rows
        return out


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
        grid_size(self.horizon_T, self.dt)  # validates divisibility

    @property
    def n_steps(self):
        return grid_size(self.horizon_T, self.dt)


@dataclass(frozen=True)
class OuPair(PathPair):
    """Two paths on an identical grid driven by correlated noise."""

    config: CorrelatedPairConfig

    def __post_init__(self):
        super().__post_init__()
        if self.x1.values[0] != 0.0 or self.x2.values[0] != 0.0:
            raise ParameterError("pair paths must start at zero")


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

def ar1_paths(factor, innovations):
    """Cumulate innovations through X_k = factor*X_{k-1} + xi_k, X_0 = 0.

    `innovations` has the steps on the last axis; the returned array gains
    one leading grid node holding the zero initial condition.
    """
    # imported on first use: scipy.signal pulls in scipy.stats, about a
    # second of start-up that stat, test and theory never need
    from scipy.signal import lfilter

    innovations = np.asarray(innovations, dtype=float)
    tail = lfilter([1.0], [1.0, -factor], innovations, axis=-1)
    shape = innovations.shape[:-1] + (1,)
    return np.concatenate([np.zeros(shape), tail], axis=-1)


def simulate_ou(theta, horizon_T, dt, rng_stream):
    """Simulate one path by the exact transition on the grid covering [0, T],
    drawing its steps from the Generator rng_stream."""
    check_positive(theta=theta, dt=dt)
    n = grid_size(horizon_T, dt)
    sd = math.sqrt(innovation_variance(theta, dt))
    xi = sd * rng_stream.standard_normal(n)
    values = ar1_paths(transition_factor(theta, dt), xi)
    return SamplePath(t0=0.0, dt=dt, values=values)


def correlated_paths(theta, r, dt, z1, z0):
    """Exact pair paths from two standard-normal step arrays of shape (..., n).

    The second path's driving noise is r*W1 + sqrt(1-r^2)*W0, so its exact
    innovation is the same combination of the per-process innovations.
    Each leading index is one independent pair; a single pair is a batch
    of one, and every row gets the same bits as it would alone.

    The innovations are formed in place: z1 and z0 (float64 arrays) are
    overwritten with the two paths' innovations.  Products and sums only
    trade operands, so the bits are those of sd*z1 and
    r*(sd*z1) + sqrt(1-r^2)*(sd*z0).
    """
    sd = math.sqrt(innovation_variance(theta, dt))
    z1 *= sd
    z0 *= sd
    z0 *= math.sqrt(1.0 - r * r)
    z0 += r * z1
    factor = transition_factor(theta, dt)
    return ar1_paths(factor, z1), ar1_paths(factor, z0)


def simulate_correlated_pair(config, rng_stream=None):
    """Simulate a pair of paths with driving-noise correlation config.r.

    The stream node defaults to SeedSequence(config.seed); process indices
    0 (driver of x1) and 1 (auxiliary noise) are appended to its spawn key.
    Grid runs pass a node keyed by (seed, cell, replication) instead.
    """
    node = rng_stream
    if node is None:
        node = np.random.SeedSequence(entropy=int(config.seed))
    elif not isinstance(node, np.random.SeedSequence):
        raise ParameterError("rng_stream must be a SeedSequence (or None)")
    entropy, key, n = node.entropy, tuple(node.spawn_key), config.n_steps
    x1, x2 = correlated_paths(config.theta, config.r, config.dt,
                              stream(entropy, *key, 0).standard_normal(n),
                              stream(entropy, *key, 1).standard_normal(n))
    return OuPair(x1=SamplePath(0.0, config.dt, x1), x2=SamplePath(0.0, config.dt, x2),
                  config=config)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_pair_csv(pair, fileobj, header_comment=None):
    """Write a pair as `t,x1,x2` rows at full double precision."""
    if header_comment:
        fileobj.write(f"# {header_comment}\n")
    fileobj.write("t,x1,x2\n")
    times = pair.x1.times()
    for t, a, b in zip(times, pair.x1.values, pair.x2.values):
        fileobj.write(f"{t:.17g},{a:.17g},{b:.17g}\n")


def read_pair_csv(fileobj):
    """Read a `t,x1,x2` file back into (times, x1, x2) arrays."""
    rows = []
    header_seen = False
    for line in fileobj:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.lower().replace(" ", "") != "t,x1,x2":
                raise ValueError(f"expected header 't,x1,x2', got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed row: {line!r}")
        rows.append([float(p) for p in parts])
    if not header_seen or not rows:
        raise ValueError("no path data found")
    data = np.asarray(rows, dtype=float)
    return data[:, 0], data[:, 1], data[:, 2]


def check_pair_inputs(r, seed):
    """Reject |r| > 1 (NaN included) and a seed outside 64 unsigned bits."""
    check_correlation(r)
    if not 0 <= int(seed) < 2 ** 64:
        raise ParameterError(f"seed must fit in 64 unsigned bits, got {seed}")
