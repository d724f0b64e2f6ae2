"""Exact first two moments of the discrete path functionals, in O(n).

The engine samples X on the grid t_i = i*dt, i = 0..n, by the AR(1)
skeleton X_i = a X_{i-1} + xi_i, X_0 = 0, with a = exp(-theta dt) and iid
xi_i ~ N(0, s2), s2 = (1 - a^2)/(2 theta).  So X has covariance

    C_ij = a^|i-j| V_min(i,j),    V_i = Var X(t_i) = (1 - a^(2i))/(2 theta),

and C = s2 L L' with L the AR(1) filter over nodes 1..n.  The trapezoid
functional is the quadratic form Y11 = X'AX with A = W - w w'/T, W the
diagonal of the weights w and T = n dt (estimators.functionals).  For a
Gaussian X, with S = AC,

    E[Y11] = tr S,        Var Y11 = 2 tr S^2,

and the pair's innovations have correlation r, so Cov(X, X') = r C and

    E[Y12] = r tr S,      Var Y12 = (1 + r^2) tr S^2.

Both traces take O(n) operations:

    tr S   = sum_i w_i V_i - w'Cw / T,
    tr S^2 = tr(WCWC) - (2/T) w'CWCw + (w'Cw)^2 / T^2,

where tr(WCWC) = sum_ij w_i w_j C_ij^2 is one running sum with factor a^2,
and each product Cw = s2 L (L'w) is one backward and one forward AR(1)
pass (sde.ar1_paths).  Only numpy and the standard library are used.
"""

import math

import numpy as np

from . import sde
from .errors import ParameterError, check_positive
from .estimators import trapezoid_weights


def _forward(factor, v):
    """sum_{1<=j<=i} factor^(i-j) v_j at every node i (0 at node 0), in a new array."""
    return sde.ar1_paths(factor, np.array(v, dtype=float))


def _backward(factor, v):
    """sum_{j>=i} factor^(j-i) v_j at every node i >= 1 (0 at node 0)."""
    out = np.zeros_like(v, dtype=float)
    out[1:] = _forward(factor, np.concatenate(([0.0], v[:0:-1])))[:0:-1]
    return out


def traces(theta, dt, n_steps):
    """(tr S, tr S^2) of the trapezoid functional on n_steps steps of dt."""
    check_positive(theta=theta, dt=dt)
    if n_steps < 1:
        raise ParameterError(f"need at least one step, got {n_steps}")
    a = sde.transition_factor(theta, dt)
    s2 = sde.innovation_variance(theta, dt)
    T = n_steps * dt
    w = trapezoid_weights(n_steps + 1, dt)
    var = -np.expm1(-2.0 * theta * dt * np.arange(n_steps + 1)) / (2.0 * theta)
    u = _backward(a, w)                  # L'w on nodes 1..n
    wcw = s2 * float(u @ u)              # w'Cw
    cw = s2 * _forward(a, u)             # Cw
    g = w * var * var
    # sum_ij w_i w_j C_ij^2 = 2 sum_{i<=j} - sum_{i=j}; the i<=j part runs with a^2
    wcwc = 2.0 * float(w @ _forward(a * a, g)) - float(w @ g)
    tr_s = float(w @ var) - wcw / T
    tr_s2 = wcwc - 2.0 * float(w @ (cw * cw)) / T + wcw * wcw / (T * T)
    return tr_s, tr_s2


def moments(theta, r, dt, n_steps):
    """Exact (E[Y11], Var Y11, E[Y12], Var Y12) on n_steps steps of dt."""
    tr_s, tr_s2 = traces(theta, dt, n_steps)
    return tr_s, 2.0 * tr_s2, r * tr_s, (1.0 + r * r) * tr_s2


def continuum_mean_y11(theta, horizon_T):
    """lim_{dt -> 0} E[Y11] = int_0^T Var X(u) du - T * sde.mean_functional_variance."""
    check_positive(theta=theta, horizon_T=horizon_T)
    th, T = theta, horizon_T
    integral = (T + math.expm1(-2.0 * th * T) / (2.0 * th)) / (2.0 * th)
    return integral - T * sde.mean_functional_variance(th, T)


def relative_bias(theta, horizon_T, dt):
    """Relative biases (of the means, of the variances) of the functionals
    at step dt against the limit dt -> 0.

    E[Y11] and E[Y12] = r E[Y11] share the first, Var Y11 and Var Y12,
    both multiples of tr S^2, share the second.  The mean's limit is
    continuum_mean_y11.  tr S^2 has no closed-form limit here; its error
    is c2 h^2 + c4 h^4 + ..., so Richardson extrapolation over dt, dt/2
    and dt/4 gives the limit to O(dt^6).
    """
    n = sde.grid_size(horizon_T, dt)
    tr_s, tr_s2 = traces(theta, dt, n)
    halves = [tr_s2] + [traces(theta, dt / 2 ** k, n * 2 ** k)[1] for k in (1, 2)]
    r1 = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(halves, halves[1:])]
    limit = (16.0 * r1[1] - r1[0]) / 15.0
    return tr_s / continuum_mean_y11(theta, horizon_T) - 1.0, tr_s2 / limit - 1.0
