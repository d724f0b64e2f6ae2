"""The Monte Carlo stream layout, rebuilt from NumPy alone as a test oracle.

Rows of w normals are cut into groups of max(1, 2**16 // w) consecutive
replication indices.  Group g of key (seed, cell, process) is the stream
SFC64(SeedSequence(seed, spawn_key=(cell, process, g))), and its rows draw
from it in order.  A simulated pair is row 0 of keys (seed, 0, 0) and
(seed, 0, 1), and a simulated single path the first of the two.
"""

import math

import numpy as np

GROUP_ELEMS = 2 ** 16  # normals per group; the layout fixes every Monte Carlo number


def row_normals(seed, cell, process, reps, width):
    """The (len(reps), width) normals of rows `reps` of key (seed, cell, process)."""
    per_group = max(1, GROUP_ELEMS // width)
    rows = np.empty((len(reps), width))
    for row, rep in zip(rows, reps):
        g, i = divmod(int(rep), per_group)
        group = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(cell, process, g))))
        row[:] = group.standard_normal((i + 1, width))[i]
    return rows


def simulated_pair(theta, r, dt, n, seed):
    """The (2, n+1) paths x1, x2 of the pair simulated at `seed` on n steps
    of dt, by the exact AR(1) recursion one step at a time.

    Process p's noise is row 0 of key (seed, 0, p); its node 0 is dropped
    and nodes 1..n are scaled to the exact innovations.  x2's innovations
    are r times x1's plus sqrt(1-r^2) times the auxiliary ones.
    """
    z1, z0 = (row_normals(seed, 0, p, [0], n + 1)[0, 1:] for p in (0, 1))
    factor = math.exp(-theta * dt)
    sd = math.sqrt(-math.expm1(-2.0 * theta * dt) / (2.0 * theta))
    xi = np.stack([sd * z1, r * (sd * z1) + math.sqrt(1.0 - r * r) * (sd * z0)])
    paths = np.zeros((2, n + 1))
    for k in range(n):
        paths[:, k + 1] = factor * paths[:, k] + xi[:, k]
    return paths
