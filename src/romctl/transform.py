"""Periodic shift operator and snapshot transformation."""
from __future__ import annotations

import numpy as np

from .discretization import SpaceTimeGrid, check_field
from .fom import _check_snapshots

# shifts this close to a whole number of cells are treated as grid-aligned,
# so that aligned shifts are exact index rotations (bit-exact isometry)
_ALIGN_TOL = 1e-8


def split_shift(z: float, grid: SpaceTimeGrid) -> tuple[int, float]:
    """Decompose a shift into whole cells and a fractional offset in [0, 1),
    snapping near-aligned shifts to exact rotations."""
    s = (float(z) % grid.l) / grid.dx
    k = int(np.floor(s))
    frac = s - k
    if frac < _ALIGN_TOL or frac > 1.0 - _ALIGN_TOL:
        return int(round(s)) % grid.n, 0.0
    return k % grid.n, frac


def shift_field(field: np.ndarray, z: float, grid: SpaceTimeGrid) -> np.ndarray:
    """Translate a field by z with periodic wrap and linear interpolation.

    Accepts a single field or an (n, k) stack. The value at x_i is the field
    evaluated at (x_i - z) mod l.
    """
    field = check_field(field, grid)
    k, frac = split_shift(z, grid)
    if frac == 0.0:
        return np.roll(field, k, axis=0)
    lo = np.roll(field, k, axis=0)
    hi = np.roll(field, (k + 1) % grid.n, axis=0)
    return (1.0 - frac) * lo + frac * hi


def uncontrolled_shift_path(grid: SpaceTimeGrid) -> np.ndarray:
    """Wave position of the uncontrolled profile: z_j = v t_j, z_0 = 0."""
    return grid.v * grid.t


def transform_snapshots(Q: np.ndarray, path: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Shift every column back to the co-moving frame: column j by -z_j."""
    Q = _check_snapshots(Q, grid, "Q")
    path = np.asarray(path, dtype=float)
    if path.shape != (grid.n_t,):
        raise ValueError(f"shift path has shape {path.shape}, expected ({grid.n_t},)")
    out = np.empty_like(Q)
    for j in range(grid.n_t):
        out[:, j] = shift_field(Q[:, j], -path[j], grid)
    return out
