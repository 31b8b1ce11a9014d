"""Linear Galerkin reduced model: operator assembly, reduced state/adjoint
solves, reduced gradient, and lifting."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import ModeBasis
from .control import ControlShapes
from .discretization import SpaceTimeGrid, check_field
from .fom import DivergenceError


@dataclass(frozen=True)
class PodRomOperators:
    A_l: np.ndarray     # (r, r) projected transport operator
    B_l: np.ndarray     # (r, m) projected control operator
    alpha0: np.ndarray  # (r,) projected initial condition

    @property
    def r(self) -> int:
        return self.A_l.shape[0]

    @property
    def m(self) -> int:
        return self.B_l.shape[1]


def assemble_pod_rom(
    basis: ModeBasis,
    A_h: sp.spmatrix,
    shapes: ControlShapes,
    y0: np.ndarray,
    grid: SpaceTimeGrid,
) -> PodRomOperators:
    """Galerkin projection of the discrete transport operator, the control
    shapes, and the initial condition onto the basis.

    The same discrete upwind matrix as the full model is used, which keeps the
    reduced model consistent with the full one when the basis is complete.
    """
    y0 = check_field(y0, grid, "y0")
    Phi = basis.modes
    PhiW = grid.dx * Phi.T  # weighted analysis operator
    return PodRomOperators(
        A_l=PhiW @ (A_h @ Phi),
        B_l=PhiW @ shapes.shapes,
        alpha0=PhiW @ y0,
    )


def solve_pod_state(ops: PodRomOperators, u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Explicit Euler for the reduced dynamics; column j is alpha(t_j)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (ops.m, grid.n_t):
        raise ValueError(f"control has shape {u.shape}, expected ({ops.m}, {grid.n_t})")
    dt = grid.dt
    forcing = ops.B_l @ u
    alpha = np.empty((ops.r, grid.n_t))
    alpha[:, 0] = ops.alpha0
    a = ops.alpha0.copy()
    for j in range(grid.n_t - 1):
        a = a + dt * (ops.A_l @ a + forcing[:, j])
        if not np.all(np.isfinite(a)):
            raise DivergenceError(j + 1, "reduced state")
        alpha[:, j + 1] = a
    return alpha


def solve_pod_adjoint(
    ops: PodRomOperators,
    alpha: np.ndarray,
    yd_reduced: np.ndarray,
    grid: SpaceTimeGrid,
) -> np.ndarray:
    """Backward explicit Euler from a zero terminal condition with right-hand
    side A_l^T lambda + alpha - yd_reduced."""
    alpha = np.asarray(alpha, dtype=float)
    yd_reduced = np.asarray(yd_reduced, dtype=float)
    if alpha.shape != (ops.r, grid.n_t):
        raise ValueError(f"reduced state has shape {alpha.shape}, expected ({ops.r}, {grid.n_t})")
    if yd_reduced.shape != alpha.shape:
        raise ValueError(f"reduced target has shape {yd_reduced.shape}, expected {alpha.shape}")
    dt = grid.dt
    AT = ops.A_l.T
    lam = np.zeros_like(alpha)
    cur = lam[:, -1]
    for j in range(grid.n_t - 1, 0, -1):
        cur = cur + dt * (AT @ cur + alpha[:, j] - yd_reduced[:, j])
        if not np.all(np.isfinite(cur)):
            raise DivergenceError(j - 1, "reduced adjoint")
        lam[:, j - 1] = cur
    return lam


def gradient_pod(ops: PodRomOperators, lam: np.ndarray, u: np.ndarray, mu: float) -> np.ndarray:
    """Column j is mu u(t_j) + B_l^T lambda(t_j)."""
    return mu * np.asarray(u, dtype=float) + ops.B_l.T @ np.asarray(lam, dtype=float)


def lift_pod(basis: ModeBasis, alpha: np.ndarray) -> np.ndarray:
    """Reconstruct full-order snapshots: column j is sum_i alpha_i(t_j) phi_i."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != basis.r:
        raise ValueError(f"amplitudes have {alpha.shape[0]} rows, basis has r={basis.r}")
    return basis.modes @ alpha


def project_snapshots(basis: ModeBasis, Q: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Reduced coordinates of full-order snapshots under the weighted pairing."""
    Q = check_field(Q, grid, "snapshots")
    return grid.dx * (basis.modes.T @ Q)
