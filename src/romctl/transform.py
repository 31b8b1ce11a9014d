"""Periodic shift operator and snapshot transformation."""
from __future__ import annotations

import math

import numpy as np

from .discretization import SpaceTimeGrid, check_field, check_shape

# shifts this close to a whole number of cells are treated as grid-aligned,
# so that aligned shifts are exact index rotations (bit-exact isometry)
_ALIGN_TOL = 1e-8


def split_shift(z: np.ndarray, grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Decompose an array of shifts into whole cells and fractional offsets in
    [0, 1), snapping near-aligned shifts to exact rotations."""
    s = np.asarray(z, dtype=float) % grid.l
    s /= grid.dx
    if not math.isfinite(s.sum()):  # each finite shift gives s in [0, n]
        raise ValueError("shifts must be finite")
    k = np.floor(s)
    frac = s - k
    up = frac > 1.0 - _ALIGN_TOL
    frac[up | (frac < _ALIGN_TOL)] = 0.0
    k = k.astype(int) + up
    k %= grid.n
    return k, frac


def shift_columns(fields: np.ndarray, path: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Column j translated by path[j] with periodic wrap and linear
    interpolation: its value at x_i is the field at (x_i - path[j]) mod l, and
    a shift that split_shift snaps to whole cells is an exact rotation.
    `fields` is an (n, len(path)) stack, or one field that every column shifts.

    A roll by k is the window [n - k, 2n - k) of the doubled column, so no
    column is rolled; a fractional shift blends two neighbouring windows."""
    fields = check_field(fields, grid)
    n = grid.n
    k, frac = split_shift(np.asarray(path, dtype=float).reshape(-1), grid)
    if fields.ndim > 1 and fields.shape[1:] != (len(k),):
        raise ValueError(f"fields have shape {fields.shape}, expected ({n}, {len(k)})")
    out = np.empty((n, len(k)))
    # work columns, so that the loop allocates nothing of size n
    yy, w = np.empty(2 * n), np.empty(n)
    if fields.ndim == 1:
        yy[:n] = yy[n:] = fields
    for j, (kj, f) in enumerate(zip(k.tolist(), frac.tolist())):
        if fields.ndim > 1:
            yy[:n] = yy[n:] = fields[:, j]
        col = out[:, j]
        lo = yy[n - kj : 2 * n - kj]
        if f == 0.0:
            col[:] = lo
        else:
            np.multiply(lo, 1.0 - f, out=col)
            col += np.multiply(yy[n - kj - 1 : 2 * n - kj - 1], f, out=w)
    return out


def uncontrolled_shift_path(grid: SpaceTimeGrid) -> np.ndarray:
    """Wave position of the uncontrolled profile: z_j = v t_j, z_0 = 0."""
    return grid.v * grid.t


def transform_snapshots(Q: np.ndarray, path: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Shift every column back to the co-moving frame: column j by -z_j."""
    Q = check_shape(Q, (grid.n, grid.n_t), "Q")
    path = check_shape(path, (grid.n_t,), "shift path")
    return shift_columns(Q, -path, grid)
