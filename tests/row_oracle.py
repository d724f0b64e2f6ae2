"""The Monte Carlo stream layout, rebuilt from NumPy alone as a test oracle.

Rows of w normals are cut into groups of max(1, 2**16 // w) consecutive
replication indices.  Group g of key (seed, cell, process) is the stream
SFC64(SeedSequence(seed, spawn_key=(cell, process, g))), and its rows draw
from it in order.
"""

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
