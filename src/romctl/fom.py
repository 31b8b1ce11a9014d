"""Full-order model: forward state solve, backward adjoint solve, cost, gradient."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import ControlShapes
from .discretization import (
    SpaceTimeGrid,
    check_field,
    warn_if_cfl_violated,
)


class DivergenceError(RuntimeError):
    """Raised when a time-stepping loop produces non-finite values."""

    def __init__(self, step: int, what: str = "state"):
        self.step = step
        super().__init__(f"{what} solve diverged at step {step} (non-finite values)")


@dataclass(frozen=True)
class CostBreakdown:
    tracking: float
    regularization: float

    @property
    def total(self) -> float:
        return self.tracking + self.regularization


def _check_snapshots(Q: np.ndarray, grid: SpaceTimeGrid, name: str) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (grid.n, grid.n_t):
        raise ValueError(f"{name} has shape {Q.shape}, expected ({grid.n}, {grid.n_t})")
    return Q


def _check_signal(u: np.ndarray, m: int, n_t: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (m, n_t):
        raise ValueError(f"control signal has shape {u.shape}, expected ({m}, {n_t})")
    return u


def _transport_step(y: np.ndarray, grid: SpaceTimeGrid, reversed_direction: bool) -> np.ndarray:
    """dt times the upwind transport operator applied to a field (stencil form,
    identical arithmetic to the sparse operator but without per-call overhead)."""
    v = grid.v
    if v == 0.0:
        return np.zeros_like(y)
    # forward transport -v d/dx upwinds against the flow; the adjoint operator
    # v d/dx uses the mirrored stencil
    shift = 1 if (v > 0) != reversed_direction else -1
    return (grid.dt * abs(v) / grid.dx) * (np.roll(y, shift) - y)


def solve_state(
    grid: SpaceTimeGrid,
    shapes: ControlShapes,
    u: np.ndarray,
    y0: np.ndarray,
) -> np.ndarray:
    """Explicit Euler with upwind transport; column j of the result is y(t_j),
    column 0 is the initial condition."""
    y0 = check_field(y0, grid, "y0")
    u = _check_signal(u, shapes.m, grid.n_t)
    warn_if_cfl_violated(grid)
    dt = grid.dt
    forcing = shapes.shapes @ u  # all control fields in one matrix product
    Y = np.empty((grid.n, grid.n_t))
    Y[:, 0] = y0
    y = y0.copy()
    for j in range(grid.n_t - 1):
        y = y + _transport_step(y, grid, reversed_direction=False) + dt * forcing[:, j]
        # a single non-finite entry poisons the sum
        if not math.isfinite(float(np.sum(y))):
            raise DivergenceError(j + 1, "state")
        Y[:, j + 1] = y
    return Y


def solve_adjoint(
    grid: SpaceTimeGrid,
    state: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Backward explicit Euler from a zero terminal condition.

    Sweep: lambda^{j-1} = lambda^j + dt (A* lambda^j + y^j - y_d^j), with A*
    the reversed-upwind transport operator. The sweep is the exact discrete
    adjoint of solve_state under the cost of fom.cost, so dt * gradient_fom is
    the exact gradient of that discrete cost.
    """
    state = _check_snapshots(state, grid, "state")
    target = _check_snapshots(target, grid, "target")
    dt = grid.dt
    source = dt * (state - target)
    lam = np.zeros_like(state)
    cur = lam[:, -1]
    for j in range(grid.n_t - 1, 0, -1):
        cur = cur + _transport_step(cur, grid, reversed_direction=True) + source[:, j]
        if not math.isfinite(float(np.sum(cur))):
            raise DivergenceError(j - 1, "adjoint")
        lam[:, j - 1] = cur
    return lam


def cost(
    grid: SpaceTimeGrid,
    state: np.ndarray,
    target: np.ndarray,
    u: np.ndarray,
    mu: float,
) -> CostBreakdown:
    """Quadratic tracking cost with rectangle quadrature in time and the
    dx-weighted norm in space."""
    state = _check_snapshots(state, grid, "state")
    target = _check_snapshots(target, grid, "target")
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
    adjoint = _check_snapshots(adjoint, grid, "adjoint")
    u = _check_signal(u, shapes.m, grid.n_t)
    return mu * u + grid.dx * (shapes.shapes.T @ adjoint)


def save_snapshots_bin(path: str | Path, Q: np.ndarray) -> None:
    """Raw little-endian float64 dump with a 16-byte header of the two dims."""
    Q = np.ascontiguousarray(Q, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", Q.shape[0], Q.shape[1]))
        fh.write(Q.tobytes(order="C"))


def load_snapshots_bin(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        n, n_t = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n_t:
        raise ValueError(f"binary payload has {data.size} values, header says {n}x{n_t}")
    return data.reshape(n, n_t).astype(float)
