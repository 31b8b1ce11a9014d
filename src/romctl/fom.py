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


def euler_sweep(step: Callable[[np.ndarray, int, np.ndarray], None], first: np.ndarray,
                n_t: int, backward: bool, what: str,
                out: np.ndarray | None = None) -> np.ndarray:
    """Explicit-Euler march of the FOM, POD-G and sPOD-G solves: `first` fills column 0
    (column n_t - 1 when `backward`) and step(column j, j, next column) writes each
    next column in sweep order in place. The columns go to `out`, a Fortran-order
    (len(first), n_t) buffer the caller holds, or to a new one; Fortran order keeps
    every column a step reads or writes contiguous. Finiteness is checked once, by
    column sums (one non-finite entry poisons its column's sum); the first
    non-finite column in sweep order is the step named."""
    if out is None:
        out = np.empty((len(first), n_t), order="F")
    d, start = (-1, n_t - 1) if backward else (1, 0)
    out[:, start] = first
    cols = list(out.T)  # the column views, made once
    for j in range(start, start + d * (n_t - 1), d):
        step(cols[j], j, cols[j + d])
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
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit Euler with upwind transport; column j of the result is y(t_j),
    column 0 is the initial condition. A caller that solves repeatedly passes
    its buffers: `out` (Fortran order) receives the state, `work` (C order,
    (n, n_t)) the control source; each step then writes its column in place."""
    y0 = check_field(y0, grid, "y0")
    u = check_shape(u, (shapes.m, grid.n_t), "control signal")
    warn_if_cfl_violated(grid)
    dt = grid.dt
    source = apply_control(shapes, u, out=work)  # all control fields in one matrix product
    source *= dt

    def step(y: np.ndarray, j: int, nxt: np.ndarray) -> None:
        upwind_transport(y, grid, dt, out=nxt)
        nxt += y
        nxt += source[:, j]

    return euler_sweep(step, y0, grid.n_t, False, "state", out=out)


def solve_adjoint(
    grid: SpaceTimeGrid,
    state: np.ndarray,
    target: np.ndarray,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Backward explicit Euler from a zero terminal condition.

    Sweep: lambda^{j-1} = lambda^j + dt (A^T lambda^j + y^j - y_d^j), with A^T
    the mirrored upwind stencil. The sweep is the exact discrete adjoint of
    solve_state under the cost of fom.cost, so dt * gradient_fom is the exact
    gradient of that discrete cost. `out` and `work` are buffers as in
    solve_state; `work` receives the source dt (y - y_d).
    """
    state = check_shape(state, (grid.n, grid.n_t), "state")
    target = check_shape(target, (grid.n, grid.n_t), "target")
    dt = grid.dt
    source = np.subtract(state, target, out=work)
    source *= dt

    def step(lam: np.ndarray, j: int, nxt: np.ndarray) -> None:
        upwind_transport(lam, grid, dt, transpose=True, out=nxt)
        nxt += lam
        nxt += source[:, j]

    return euler_sweep(step, np.zeros(grid.n), grid.n_t, True, "adjoint", out=out)


def cost(
    grid: SpaceTimeGrid,
    state: np.ndarray,
    target: np.ndarray,
    u: np.ndarray,
    mu: float,
    *,
    work: np.ndarray | None = None,
) -> CostBreakdown:
    """Quadratic tracking cost with rectangle quadrature in time and the
    dx-weighted norm in space. `work`, an (n, n_t) buffer, receives the
    squared misfit in place of a new array; in C order, the order the
    subtraction of a C-order target from a Fortran-order state makes, the
    sum rounds as it does on a new array."""
    state = check_shape(state, (grid.n, grid.n_t), "state")
    target = check_shape(target, (grid.n, grid.n_t), "target")
    sq = np.subtract(state, target, out=work)
    sq *= sq
    tracking = 0.5 * grid.dt * grid.dx * float(np.sum(sq))
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
