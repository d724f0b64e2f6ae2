"""Exact, simulation-free expectations of the discrete path functionals.

The engine samples X on the grid t_i = i*dt, i = 0..n, by the exact AR(1)
skeleton X_i = a X_{i-1} + xi_i with a = exp(-theta dt) and iid
xi_i ~ N(0, s2), s2 = (1 - a^2)/(2 theta).  With trapezoid weights w and
T = n dt,

    Y11 = sum_i w_i X_i^2 - (w'X)^2 / T,

and w'X = sum_j u_j xi_j with u_j = sum_{k>=j} a^(k-j) w_k (the reverse
AR(1) filter of the weights).  Hence

    E[Y11] = sum_i w_i Var X(t_i) - s2 ||u||^2 / T,    E[Y12] = r E[Y11],

in O(n) operations.  The asymptotic centres used by the standardizers
differ from these by O(1/sqrt(T)), so only the exact value can serve as
the reference of a z-test on a Monte Carlo mean.
"""

import math


def trapezoid_weights(n_steps, dt):
    """Composite trapezoid weights on the n_steps + 1 grid nodes."""
    w = [dt] * (n_steps + 1)
    w[0] = w[-1] = 0.5 * dt
    return w


def exact_mean_y11(theta, dt, n_steps):
    """E[Y11] of the trapezoid functional on the exact AR(1) grid."""
    a = math.exp(-theta * dt)
    s2 = -math.expm1(-2.0 * theta * dt) / (2.0 * theta)
    w = trapezoid_weights(n_steps, dt)
    diag = sum(w[i] * -math.expm1(-2.0 * theta * i * dt) / (2.0 * theta)
               for i in range(n_steps + 1))
    u, norm2 = 0.0, 0.0
    for j in range(n_steps, 0, -1):  # u_j = w_j + a u_{j+1}; xi_0 does not exist
        u = w[j] + a * u
        norm2 += u * u
    return diag - s2 * norm2 / (n_steps * dt)


def exact_mean_y12(theta, r, dt, n_steps):
    """E[Y12] = r E[Y11]: the pair's innovations have correlation r."""
    return r * exact_mean_y11(theta, dt, n_steps)
