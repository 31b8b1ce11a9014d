"""Periodic space-time grid, quadrature, and discrete transport operators.

All models share one convention: n spatial nodes x_i = i*dx on [0, l) with
periodic identification, and n_t time nodes t_j = j*dt on [0, T) (left
endpoints of the rectangle quadrature cells covering [0, T]).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform periodic spatial grid plus uniform time grid.

    l : domain length
    n : number of spatial nodes (no duplicated endpoint)
    T : final time
    n_t : number of time nodes / steps, dt = T / n_t
    v : constant advection velocity
    """

    l: float
    n: int
    T: float
    n_t: int
    v: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 spatial nodes, got n={self.n}")
        if self.n_t < 2:
            raise ValueError(f"need at least 2 time nodes (1 step), got n_t={self.n_t}")
        if self.l <= 0 or self.T <= 0:
            raise ValueError(f"domain length and horizon must be positive, got l={self.l}, T={self.T}")

    @property
    def dx(self) -> float:
        return self.l / self.n

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(self.n_t)

    @property
    def cfl(self) -> float:
        return abs(self.v) * self.dt / self.dx


def check_field(field: np.ndarray, grid: SpaceTimeGrid, name: str = "field") -> np.ndarray:
    field = np.asarray(field, dtype=float)
    if field.shape[0] != grid.n:
        raise ValueError(f"{name} has {field.shape[0]} rows, grid has n={grid.n}")
    return field


def check_shape(a: np.ndarray, shape: tuple[int, ...], name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def upwind_transport(y: np.ndarray, grid: SpaceTimeGrid, scale: float = 1.0,
                     transpose: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """scale * A y for the first-order upwind discretization A of -v d/dx with
    periodic wrap, or scale * A^T y when `transpose`; y is a single field or
    an (n, k) stack of fields. For v > 0 the stencil is the backward
    difference, for v < 0 the forward one, and A^T is the mirrored stencil;
    v = 0 gives zero (pure control dynamics). The result goes to `out`, an
    array of y's shape that must not overlap y, or to a new one, and no
    temporary is made."""
    if out is None:
        out = np.empty(np.shape(y))
    v = grid.v
    if v == 0.0:
        out.fill(0.0)
        return out
    # roll y into out by copying two slices, then difference in place
    if (v > 0) != transpose:  # out_i = y_{i-1}
        out[1:], out[:1] = y[:-1], y[-1:]
    else:  # out_i = y_{i+1}
        out[:-1], out[-1:] = y[1:], y[:1]
    out -= y
    out *= scale * abs(v) / grid.dx
    return out


def central_derivative(field: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Second-order periodic central first difference of a single field or an
    (n, k) stack of fields."""
    field = check_field(field, grid)
    return (np.roll(field, -1, axis=0) - np.roll(field, 1, axis=0)) / (2.0 * grid.dx)


def warn_if_cfl_violated(grid: SpaceTimeGrid) -> None:
    # sweeps over dt may legitimately exceed the stability bound; warn, don't abort
    if grid.cfl > 1.0 + 1e-12:
        warnings.warn(
            f"CFL number {grid.cfl:.6g} exceeds 1; the explicit upwind scheme may be unstable",
            RuntimeWarning,
            stacklevel=3,
        )
