"""Dense n x n matrices of the oracle and the group diffusion, for tests.

Each matrix is built from the operator's defining formula, independent of
the kernels in ``gridgrover.operators``, so tests can compare the routes.
Column x is the operator applied to basis state x.  Both builders refuse
grids above ``max_cells`` cells, since an n x n float64 matrix grows as n^2.
"""

import numpy as np

# Cap on the cells of a densely materialized grid: 4096 cells is a 128 MiB matrix.
DENSE_CELL_CAP = 4096


def _identity(geometry, max_cells):
    n = geometry.cell_count
    if n > max_cells:
        raise ValueError(f"dense materialization capped at {max_cells} cells, grid has {n}")
    return np.eye(n)


def dense_oracle(marked, geometry, max_cells=DENSE_CELL_CAP):
    """I with -1 on the diagonal at every marked cell."""
    matrix = _identity(geometry, max_cells)
    idx = marked.indices(geometry)
    matrix[idx, idx] = -1.0
    return matrix


def dense_diffusion(partition, geometry, max_cells=DENSE_CELL_CAP):
    """2P - I, P the projector onto the uniform superposition of each group."""
    if partition.geometry != geometry:
        raise ValueError("partition geometry does not match the requested geometry")
    matrix = -_identity(geometry, max_cells)
    for flat in np.split(partition.cells, partition.offsets[1:-1]):
        matrix[np.ix_(flat, flat)] += 2.0 / flat.size
    return matrix
