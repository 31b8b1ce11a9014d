"""Linear Galerkin reduced model: operator assembly, reduced state/adjoint
solves, reduced gradient, and lifting."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import ModeBasis
from .control import ControlShapes
from .discretization import SpaceTimeGrid, check_field, check_shape
from .fom import euler_sweep


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
    u = check_shape(u, (ops.m, grid.n_t), "control")
    dt = grid.dt
    forcing = ops.B_l @ u
    return euler_sweep(
        lambda a, j: a + dt * (ops.A_l @ a + forcing[:, j]),
        ops.alpha0, grid.n_t, False, "reduced state",
    )


def solve_pod_adjoint(
    ops: PodRomOperators,
    alpha: np.ndarray,
    yd_reduced: np.ndarray,
    grid: SpaceTimeGrid,
) -> np.ndarray:
    """Backward explicit Euler from a zero terminal condition with right-hand
    side A_l^T lambda + alpha - yd_reduced."""
    alpha = check_shape(alpha, (ops.r, grid.n_t), "reduced state")
    yd_reduced = check_shape(yd_reduced, alpha.shape, "reduced target")
    dt = grid.dt
    AT = ops.A_l.T
    return euler_sweep(
        lambda lam, j: lam + dt * (AT @ lam + alpha[:, j] - yd_reduced[:, j]),
        np.zeros(ops.r), grid.n_t, True, "reduced adjoint",
    )


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
