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
from romctl.optimizer import ControlledModel


def coarse_grid(n=101, n_t=60, cfl=0.9, l=100.0, v=0.55):
    """Small test grid; T is chosen so the stability number comes out at cfl."""
    dx = l / n
    return SpaceTimeGrid(l=l, n=n, T=n_t * cfl * dx / v, n_t=n_t, v=v)


def inner_product(a, b, grid):
    """Rectangle-rule L2 inner product on the periodic grid: dx * sum(a*b)."""
    a = check_field(a, grid, "a")
    b = check_field(b, grid, "b")
    return grid.dx * float(np.dot(a, b))


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

    def describe(self):
        return "quadratic"

    def refine_basis(self, u):
        return self.u_star.size

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
