"""Full-order model: forward state solve, backward adjoint solve, cost, gradient."""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .control import ControlShapes, adjoint_control, apply_control
from .discretization import (
    SpaceTimeGrid,
    check_field,
    check_shape,
    upwind_transport,
    warn_if_cfl_violated,
)


class DivergenceError(RuntimeError):
    """Raised when a time-stepping loop produces non-finite values."""

    def __init__(self, step: int, what: str = "state"):
        self.step = step
        super().__init__(f"{what} solve diverged at step {step} (non-finite values)")


def euler_sweep(step: Callable[[np.ndarray, int], np.ndarray], first: np.ndarray, n_t: int,
                backward: bool, what: str) -> np.ndarray:
    """Explicit-Euler march of the FOM, POD-G and sPOD-G solves: `first` fills column 0
    (column n_t - 1 when `backward`) and each next column in sweep order is
    step(column j, j). Fortran order keeps every column a step reads contiguous.
    Finiteness is checked once, by column sums (one non-finite entry poisons its
    column's sum); the first non-finite column in sweep order is the step named."""
    out = np.empty((len(first), n_t), order="F")
    d, start = (-1, n_t - 1) if backward else (1, 0)
    out[:, start] = first
    for j in range(start, start + d * (n_t - 1), d):
        out[:, j + d] = step(out[:, j], j)
    sums = out.sum(axis=0)
    sums[start] = 0.0  # the given condition is not a step
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise DivergenceError(int(bad[-1] if backward else bad[0]), what)
    return out


@dataclass(frozen=True)
class CostBreakdown:
    tracking: float
    regularization: float

    @property
    def total(self) -> float:
        return self.tracking + self.regularization


def solve_state(
    grid: SpaceTimeGrid,
    shapes: ControlShapes,
    u: np.ndarray,
    y0: np.ndarray,
) -> np.ndarray:
    """Explicit Euler with upwind transport; column j of the result is y(t_j),
    column 0 is the initial condition."""
    y0 = check_field(y0, grid, "y0")
    u = check_shape(u, (shapes.m, grid.n_t), "control signal")
    warn_if_cfl_violated(grid)
    source = apply_control(shapes, u)  # all control fields in one matrix product
    source *= grid.dt
    return euler_sweep(
        lambda y, j: y + upwind_transport(y, grid, grid.dt) + source[:, j],
        y0, grid.n_t, False, "state",
    )


def solve_adjoint(
    grid: SpaceTimeGrid,
    state: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Backward explicit Euler from a zero terminal condition.

    Sweep: lambda^{j-1} = lambda^j + dt (A^T lambda^j + y^j - y_d^j), with A^T
    the mirrored upwind stencil. The sweep is the exact discrete adjoint of
    solve_state under the cost of fom.cost, so dt * gradient_fom is the exact
    gradient of that discrete cost.
    """
    state = check_shape(state, (grid.n, grid.n_t), "state")
    target = check_shape(target, (grid.n, grid.n_t), "target")
    source = state - target
    source *= grid.dt
    return euler_sweep(
        lambda lam, j: lam + upwind_transport(lam, grid, grid.dt, transpose=True) + source[:, j],
        np.zeros(grid.n), grid.n_t, True, "adjoint",
    )


def cost(
    grid: SpaceTimeGrid,
    state: np.ndarray,
    target: np.ndarray,
    u: np.ndarray,
    mu: float,
) -> CostBreakdown:
    """Quadratic tracking cost with rectangle quadrature in time and the
    dx-weighted norm in space."""
    state = check_shape(state, (grid.n, grid.n_t), "state")
    target = check_shape(target, (grid.n, grid.n_t), "target")
    diff = state - target
    tracking = 0.5 * grid.dt * grid.dx * float(np.sum(diff * diff))
    regularization = 0.5 * mu * grid.dt * float(np.sum(np.asarray(u) ** 2))
    return CostBreakdown(tracking=tracking, regularization=regularization)


def gradient_fom(
    grid: SpaceTimeGrid,
    shapes: ControlShapes,
    adjoint: np.ndarray,
    u: np.ndarray,
    mu: float,
) -> np.ndarray:
    """Column j is mu u(t_j) + B* lambda(t_j)."""
    adjoint = check_shape(adjoint, (grid.n, grid.n_t), "adjoint")
    u = check_shape(u, (shapes.m, grid.n_t), "control signal")
    return mu * u + adjoint_control(shapes, adjoint, grid)


def save_snapshots_bin(path: str | Path, Q: np.ndarray) -> None:
    """Raw little-endian float64 dump with a 16-byte header of the two dims."""
    Q = np.ascontiguousarray(Q, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", Q.shape[0], Q.shape[1]))
        fh.write(Q.tobytes(order="C"))
