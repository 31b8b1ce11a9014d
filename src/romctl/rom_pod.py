"""Linear Galerkin reduced model: operator assembly, reduced state/adjoint
solves, reduced gradient, and lifting."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ModeBasis
from .control import ControlProblem
from .discretization import SpaceTimeGrid, check_field, check_shape, upwind_transport
from .fom import euler_sweep


@dataclass(frozen=True)
class PodRomOperators:
    """Everything one basis determines for one problem. The modes are
    dx-orthonormal, so the lifted tracking cost is the reduced misfit to
    yd_reduced plus yd_residual_energy, the target's energy outside their span."""

    A_l: np.ndarray             # (r, r) projected transport operator
    B_l: np.ndarray             # (r, m) projected control operator
    alpha0: np.ndarray          # (r,) projected initial condition
    yd_reduced: np.ndarray      # (r, n_t) projected target
    yd_residual_energy: float   # target_energy - 1/2 dt |yd_reduced|^2
    problem: ControlProblem
    basis: ModeBasis

    @property
    def r(self) -> int:
        return self.A_l.shape[0]

    @property
    def m(self) -> int:
        return self.B_l.shape[1]


def assemble_pod_rom(basis: ModeBasis, problem: ControlProblem) -> PodRomOperators:
    """Galerkin projection of the discrete transport operator, the control
    shapes, the initial condition and the target onto the basis.

    The full model's own upwind stencil is projected, which keeps the reduced
    model consistent with the full one when the basis is complete.
    """
    grid = problem.grid
    # the target first, so its projection's temporaries do not meet PhiW's
    yd_reduced = project_snapshots(basis, problem.target, grid)
    in_span = 0.5 * grid.dt * float(np.sum(yd_reduced * yd_reduced))
    Phi = basis.modes
    PhiW = grid.dx * Phi.T  # weighted analysis operator
    return PodRomOperators(
        A_l=PhiW @ upwind_transport(Phi, grid),
        B_l=PhiW @ problem.shapes.shapes,
        alpha0=PhiW @ problem.y0,
        yd_reduced=yd_reduced,
        yd_residual_energy=problem.target_energy - in_span,
        problem=problem,
        basis=basis,
    )


def solve_pod_state(ops: PodRomOperators, u: np.ndarray) -> np.ndarray:
    """Explicit Euler for the reduced dynamics; column j is alpha(t_j)."""
    grid = ops.problem.grid
    u = check_shape(u, (ops.m, grid.n_t), "control")
    dt = grid.dt
    forcing = ops.B_l @ u

    def step(a: np.ndarray, j: int, nxt: np.ndarray) -> None:
        # a + dt (A_l a + B_l u_j), in that order
        np.matmul(ops.A_l, a, out=nxt)
        nxt += forcing[:, j]
        nxt *= dt
        nxt += a

    return euler_sweep(step, ops.alpha0, grid.n_t, False, "reduced state")


def solve_pod_adjoint(ops: PodRomOperators, alpha: np.ndarray) -> np.ndarray:
    """Backward explicit Euler from a zero terminal condition with right-hand
    side A_l^T lambda + alpha - yd_reduced."""
    grid, yd_reduced = ops.problem.grid, ops.yd_reduced
    alpha = check_shape(alpha, (ops.r, grid.n_t), "reduced state")
    dt = grid.dt
    AT = ops.A_l.T

    def step(lam: np.ndarray, j: int, nxt: np.ndarray) -> None:
        # lam + dt (A_l^T lam + alpha_j - yd_j), in that order
        np.matmul(AT, lam, out=nxt)
        nxt += alpha[:, j]
        nxt -= yd_reduced[:, j]
        nxt *= dt
        nxt += lam

    return euler_sweep(step, np.zeros(ops.r), grid.n_t, True, "reduced adjoint")


def gradient_pod(ops: PodRomOperators, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column j is mu u(t_j) + B_l^T lambda(t_j)."""
    return ops.problem.mu * np.asarray(u, dtype=float) + ops.B_l.T @ np.asarray(lam, dtype=float)


def lift_pod(ops: PodRomOperators, alpha: np.ndarray) -> np.ndarray:
    """Reconstruct full-order snapshots: column j is sum_i alpha_i(t_j) phi_i."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != ops.r:
        raise ValueError(f"amplitudes have {alpha.shape[0]} rows, basis has r={ops.r}")
    return ops.basis.modes @ alpha


def project_snapshots(basis: ModeBasis, Q: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Reduced coordinates of full-order snapshots under the weighted pairing."""
    Q = check_field(Q, grid, "snapshots")
    return grid.dx * (basis.modes.T @ Q)
