import struct

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.basis import truncate_to_basis, weighted_svd
from romctl.discretization import check_field
from romctl.experiments import (
    build_target,
    gaussian_initial_condition,
    single_tilt_target,
    smooth_random_signal as smooth_signal,
)
from romctl.fom import CostBreakdown
from romctl.optimizer import ControlledModel, Refresh
from romctl.transform import split_shift


def coarse_grid(n=101, n_t=60, cfl=0.9, l=100.0, v=0.55):
    """Small test grid; T is chosen so the stability number comes out at cfl."""
    dx = l / n
    return SpaceTimeGrid(l=l, n=n, T=n_t * cfl * dx / v, n_t=n_t, v=v)


def inner_product(a, b, grid):
    """Rectangle-rule L2 inner product on the periodic grid: dx * sum(a*b)."""
    a = check_field(a, grid, "a")
    b = check_field(b, grid, "b")
    return grid.dx * float(np.dot(a, b))


def second_difference(field, grid):
    """Second-order periodic central second difference of a field or an (n, k)
    stack: (y_{i+1} - 2 y_i + y_{i-1}) / dx^2."""
    field = check_field(field, grid)
    return (np.roll(field, -1, axis=0) - 2.0 * field + np.roll(field, 1, axis=0)) / grid.dx**2


def split_one(z, grid):
    """split_shift of one shift, as Python scalars."""
    k, frac = split_shift(np.array([float(z)]), grid)
    return int(k[0]), float(frac[0])


def shift_field(field, z, grid):
    """Translate a field by z with periodic wrap and linear interpolation: the
    definition of the shift S(z) that the package's shifts are tested against.

    Accepts a single field or an (n, k) stack. The value at x_i is the field
    evaluated at (x_i - z) mod l.
    """
    field = check_field(field, grid)
    k, frac = split_one(z, grid)
    if frac == 0.0:
        return np.roll(field, k, axis=0)
    lo = np.roll(field, k, axis=0)
    hi = np.roll(field, (k + 1) % grid.n, axis=0)
    return (1.0 - frac) * lo + frac * hi


def load_snapshots_bin(path):
    """Read final_state.bin as experiments writes it (a <QQ header of the two
    dims, then little-endian float64 in C order)."""
    with open(path, "rb") as fh:
        n, n_t = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n_t:
        raise ValueError(f"binary payload has {data.size} values, header says {n}x{n_t}")
    return data.reshape(n, n_t).astype(float)


def svd_norm_B(shapes, grid):
    """Spectral norm of u -> sum_k b_k u_k from Euclidean R^m to the
    dx-weighted L2 norm, from an SVD of the shapes: the independent reference
    for the closed form ||B||^2 = l of the Fourier shapes."""
    return float(np.linalg.svd(np.sqrt(grid.dx) * shapes.shapes, compute_uv=False)[0])


def field_norm(a, grid):
    return float(np.sqrt(max(inner_product(a, a, grid), 0.0)))


def pod_basis(Q, r, grid):
    """First r weighted singular directions of the snapshots, plus the full
    spectrum; a rank deficiency is flagged with a warning."""
    modes, sigma = weighted_svd(Q, grid)
    return truncate_to_basis(modes, sigma, r), sigma


class QuadraticModel(ControlledModel):
    """Closed-form model J(u) = 1/2 sum_k h_k (u_k - u*_k)^2."""

    def __init__(self, u_star, hessian_diag):
        self.u_star = np.asarray(u_star, dtype=float)
        self.h = np.asarray(hessian_diag, dtype=float)

    def refine_basis(self, u):
        return Refresh(self.u_star.size, None)

    def evaluate(self, u):
        d = np.asarray(u, dtype=float) - self.u_star
        return self.cost_only(u), self.h * d

    def cost_only(self, u):
        d = np.asarray(u, dtype=float) - self.u_star
        return CostBreakdown(tracking=0.5 * float(np.sum(self.h * d * d)), regularization=0.0)


@pytest.fixture
def grid():
    return coarse_grid()


@pytest.fixture
def shapes(grid):
    return build_fourier_shapes(grid, 1)


@pytest.fixture
def y0(grid):
    return gaussian_initial_condition(grid)


def resting_path(grid):
    """Displacement of the target that halts at 3/4 of the horizon, the path
    of build_target(grid, y0, single_tilt_target(0.0, grid.v))."""
    return single_tilt_target(0.0, grid.v).displacement(grid.t, grid)


@pytest.fixture
def target(grid, y0):
    return build_target(grid, y0, single_tilt_target(0.0, grid.v))


@pytest.fixture
def target_path(grid):
    return resting_path(grid)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
