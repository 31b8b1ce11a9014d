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
    xi: int | None = None  # harmonic count when built from Fourier harmonics

    @property
    def m(self) -> int:
        return self.shapes.shape[1]


def build_fourier_shapes(grid: SpaceTimeGrid, xi: int) -> ControlShapes:
    """Constant plus xi sine/cosine pairs: b_1 = 1, b_2k = sin(2 pi k x / l),
    b_2k+1 = -cos(2 pi k x / l); m = 2 xi + 1."""
    if xi < 0:
        raise ValueError(f"xi must be nonnegative, got {xi}")
    x = grid.x
    cols = [np.ones(grid.n)]
    for k in range(1, xi + 1):
        cols.append(np.sin(2.0 * np.pi * k * x / grid.l))
        cols.append(-np.cos(2.0 * np.pi * k * x / grid.l))
    return ControlShapes(shapes=np.column_stack(cols), xi=xi)


def apply_control(shapes: ControlShapes, u: np.ndarray) -> np.ndarray:
    """Nodal fields sum_k b_k u_k of one (m,) time slice or of an (m, n_t) signal."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != shapes.m:
        raise ValueError(f"control has {u.shape[0]} components, shapes have m={shapes.m}")
    return shapes.shapes @ u


def adjoint_control(shapes: ControlShapes, field: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Component k is the L2 pairing of b_k with the field (or with each column)."""
    field = check_field(field, grid)
    return grid.dx * (shapes.shapes.T @ field)


def operator_norm_B(shapes: ControlShapes, grid: SpaceTimeGrid) -> float:
    """Spectral norm of u -> sum b_k u_k from Euclidean R^m to the weighted L2 norm.

    Evaluated numerically so it stays correct for non-Fourier user shapes.
    """
    weighted = np.sqrt(grid.dx) * shapes.shapes
    return float(np.linalg.svd(weighted, compute_uv=False)[0])


def signal_inner(a: np.ndarray, b: np.ndarray, dt: float) -> float:
    """Rectangle-rule pairing dt * sum_j a(t_j) . b(t_j) of two control signals."""
    return dt * float(np.sum(np.asarray(a) * np.asarray(b)))


def signal_norm_sq(u: np.ndarray, dt: float) -> float:
    return signal_inner(u, u, dt)


def save_control_csv(path: str | Path, u: np.ndarray) -> None:
    """Write an (m, n_t) control signal as n_t rows with header u_1,...,u_m."""
    u = np.asarray(u, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"u_{k + 1}" for k in range(u.shape[0])])
        for j in range(u.shape[1]):
            writer.writerow([FMT % val for val in u[:, j]])
