"""Reduced bases from snapshot data: truncated SVD extraction, tolerance-driven
mode counts, and the invariant-subspace basis built from the initial condition
and the control shapes."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import FMT, ControlShapes
from .discretization import SpaceTimeGrid, check_field

# relative singular-value floor below which directions count as numerically null
RANK_FLOOR = 1e-12


@dataclass(frozen=True)
class ModeBasis:
    """Weighted-orthonormal spatial modes."""

    modes: np.ndarray  # (n, r), H-orthonormal columns

    @property
    def r(self) -> int:
        return self.modes.shape[1]


def weighted_svd(Q: np.ndarray, grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """SVD of sqrt(dx)-weighted snapshots; left vectors rescaled so the
    returned columns are orthonormal in the dx-weighted inner product."""
    Q = check_field(Q, grid, "snapshots")
    w = np.sqrt(grid.dx)
    U, sigma, _ = np.linalg.svd(w * Q, full_matrices=False)
    return U / w, sigma


def truncate_to_basis(modes: np.ndarray, sigma: np.ndarray, r: int) -> ModeBasis:
    """Keep the first r singular directions, capped at the numerical rank
    (a deficiency is flagged with a warning)."""
    if r < 1:
        raise ValueError(f"mode count must be positive, got {r}")
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise ValueError("snapshot matrix is identically zero; no basis to extract")
    rank = int(np.sum(sigma > RANK_FLOOR * sigma[0]))
    r_eff = min(r, rank, modes.shape[1])
    if r_eff < r:
        warnings.warn(
            f"requested {r} modes but numerical rank is {rank}; returning {r_eff}",
            RuntimeWarning,
            stacklevel=2,
        )
    # a copy, so the basis does not keep the whole singular-vector matrix alive
    return ModeBasis(modes=modes[:, :r_eff].copy())


def mode_count_by_tolerance(sigma: np.ndarray, tol: float) -> int:
    """Number of singular values with sigma_i / sigma_1 > tol, at least 1."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise ValueError("empty or all-zero spectrum")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    return max(1, int(np.sum(sigma / sigma[0] > tol)))


def eigenfunction_stationary_basis(
    grid: SpaceTimeGrid,
    shapes: ControlShapes,
    y0: np.ndarray,
) -> ModeBasis:
    """Orthonormal basis of span{y0, b_1, ..., b_m} via the weighted SVD.

    Has m+1 modes when y0 is independent of the shapes; a degenerate stack is
    flagged with a warning and yields fewer modes.
    """
    y0 = check_field(y0, grid, "y0")
    stack = np.column_stack([y0, shapes.shapes])
    modes, sigma = weighted_svd(stack, grid)
    keep = int(np.sum(sigma > RANK_FLOOR * sigma[0]))
    if keep < shapes.m + 1:
        warnings.warn(
            f"initial condition lies in the span of the control shapes; "
            f"basis has {keep} modes instead of {shapes.m + 1}",
            RuntimeWarning,
            stacklevel=2,
        )
    return ModeBasis(modes=modes[:, :keep])


def save_spectrum_csv(path: str | Path, sigma: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma"])
        for val in np.asarray(sigma, dtype=float):
            writer.writerow([FMT % val])
