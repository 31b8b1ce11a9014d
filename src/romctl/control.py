"""Control shape functions, the control operator B, and its adjoint."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discretization import SpaceTimeGrid, check_field

FMT = "%.17g"


@dataclass(frozen=True)
class ControlShapes:
    """Spatial shape functions; column k of `shapes` samples b_k on the grid."""

    shapes: np.ndarray  # (n, m)

    @property
    def m(self) -> int:
        return self.shapes.shape[1]


def build_fourier_shapes(grid: SpaceTimeGrid, xi: int) -> ControlShapes:
    """Constant plus xi sine/cosine pairs: b_1 = 1, b_2k = sin(2 pi k x / l),
    b_2k+1 = -cos(2 pi k x / l); m = 2 xi + 1. For 2 xi < n they are
    dx-orthogonal with squared norms l and l / 2, so ||B||^2 = l; from
    2 xi = n on the top pair degenerates or aliases onto lower shapes, and
    such xi are rejected."""
    if not 0 <= 2 * xi < grid.n:
        raise ValueError(f"xi must satisfy 0 <= 2 xi < n = {grid.n}, got {xi}")
    x = grid.x
    cols = [np.ones(grid.n)]
    for k in range(1, xi + 1):
        cols.append(np.sin(2.0 * np.pi * k * x / grid.l))
        cols.append(-np.cos(2.0 * np.pi * k * x / grid.l))
    return ControlShapes(shapes=np.column_stack(cols))


def apply_control(shapes: ControlShapes, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Nodal fields sum_k b_k u_k of one (m,) time slice or of an (m, n_t)
    signal, written to `out` when given."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != shapes.m:
        raise ValueError(f"control has {u.shape[0]} components, shapes have m={shapes.m}")
    return np.matmul(shapes.shapes, u, out=out)


def adjoint_control(shapes: ControlShapes, field: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Component k is the L2 pairing of b_k with the field (or with each column)."""
    field = check_field(field, grid)
    return grid.dx * (shapes.shapes.T @ field)


def save_control_csv(path: str | Path, u: np.ndarray) -> None:
    """Write an (m, n_t) control signal as n_t rows with header u_1,...,u_m."""
    u = np.asarray(u, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"u_{k + 1}" for k in range(u.shape[0])])
        for j in range(u.shape[1]):
            writer.writerow([FMT % val for val in u[:, j]])
