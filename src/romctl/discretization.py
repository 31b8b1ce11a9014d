"""Periodic space-time grid, quadrature, and discrete transport operators.

All models share one convention: n spatial nodes x_i = i*dx on [0, l) with
periodic identification, and n_t time nodes t_j = j*dt on [0, T) (left
endpoints of the rectangle quadrature cells covering [0, T]).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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
        if self.n_t < 1:
            raise ValueError(f"need at least 1 time step, got n_t={self.n_t}")
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


def inner_product(a: np.ndarray, b: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Rectangle-rule L2 inner product on the periodic grid: dx * sum(a*b)."""
    a = check_field(a, grid, "a")
    b = check_field(b, grid, "b")
    return grid.dx * float(np.dot(a, b))


def upwind_operator(grid: SpaceTimeGrid) -> sp.csr_matrix:
    """First-order upwind discretization of -v d/dx with periodic wrap.

    For v > 0 the stencil is the backward difference, for v < 0 the forward
    difference; v = 0 yields the zero matrix (pure control dynamics).
    """
    n, dx, v = grid.n, grid.dx, grid.v
    if v == 0.0:
        return sp.csr_matrix((n, n))
    c = abs(v) / dx
    if v > 0:
        # (A y)_i = -v (y_i - y_{i-1}) / dx
        mat = sp.diags([-c * np.ones(n), c * np.ones(n - 1)], [0, -1], format="lil")
        mat[0, n - 1] = c
    else:
        # (A y)_i = -v (y_{i+1} - y_i) / dx
        mat = sp.diags([-c * np.ones(n), c * np.ones(n - 1)], [0, 1], format="lil")
        mat[n - 1, 0] = c
    return sp.csr_matrix(mat)


def central_derivative(field: np.ndarray, grid: SpaceTimeGrid, order: int = 1) -> np.ndarray:
    """Second-order periodic central difference, order 1 or 2.

    Accepts a single field or an (n, k) stack of fields.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    field = check_field(field, grid)
    up = np.roll(field, -1, axis=0)    # y_{i+1}
    down = np.roll(field, 1, axis=0)   # y_{i-1}
    if order == 1:
        return (up - down) / (2.0 * grid.dx)
    return (up - 2.0 * field + down) / grid.dx**2


def warn_if_cfl_violated(grid: SpaceTimeGrid) -> None:
    # sweeps over dt may legitimately exceed the stability bound; warn, don't abort
    if grid.cfl > 1.0 + 1e-12:
        warnings.warn(
            f"CFL number {grid.cfl:.6g} exceeds 1; the explicit upwind scheme may be unstable",
            RuntimeWarning,
            stacklevel=3,
        )
