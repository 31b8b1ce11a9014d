import math
import struct

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.basis import truncate_to_basis, weighted_svd
from romctl.control import ControlProblem
from romctl.discretization import check_field
from romctl.experiments import (
    build_target,
    gaussian_initial_condition,
    single_tilt_target,
    smooth_random_signal as smooth_signal,
)
from romctl.fom import CostBreakdown, DivergenceError
from romctl.optimizer import (
    ARMIJO_C,
    MAX_BLOCK,
    MAX_DOUBLINGS,
    MAX_HALVINGS,
    ControlledModel,
    Refresh,
    pointwise,
)
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


def bare_problem(grid, shapes, y0, mu=1e-3):
    """A control problem with a zero target, for the operators and solves
    that read no target."""
    return ControlProblem(grid, shapes, y0, np.zeros((grid.n, grid.n_t)), np.zeros(grid.n_t), mu)


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


def evaluated_cost(model):
    """The total cost of a control as model.evaluate gives it, with the model's
    phase clock detached for the call: a step-size search counts its work as
    update time, so the evaluation's phases must not nest inside it."""

    def cost(u):
        clock, model.clock = model.clock, None
        try:
            return model.evaluate(u)[0].total
        finally:
            model.clock = clock

    return cost


def trial_march(cost, u, g):
    """The step-size search's march by trial solves: the cost at u - w g is
    cost(u - w g), made when the search reads w, and +inf when that solve
    diverges. With evaluated_cost(model), the oracle of every closed-form and
    batched search."""

    def trial(w):
        try:
            return cost(u - w * g)
        except DivergenceError:
            return math.inf

    return pointwise(trial)


class QuadraticModel(ControlledModel):
    """Closed-form model J(u) = 1/2 sum_k h_k (u_k - u*_k)^2."""

    def __init__(self, u_star, hessian_diag):
        self.u_star = np.asarray(u_star, dtype=float)
        self.h = np.asarray(hessian_diag, dtype=float)

    def refine_basis(self, u):
        return Refresh(self.u_star.size, None)

    def _cost(self, u):
        d = np.asarray(u, dtype=float) - self.u_star
        return 0.5 * float(np.sum(self.h * d * d))

    def evaluate(self, u):
        d = np.asarray(u, dtype=float) - self.u_star
        return CostBreakdown(tracking=self._cost(u), regularization=0.0), self.h * d

    def line_cost(self, u, g, cost):
        return trial_march(self._cost, u, g)


def cost_at(march, w):
    """The cost a step-size search's march gives the step size w alone."""
    return march([w])(0)


def armijo(march, w, cost, g_sq):
    """Whether the step size w passes the search's sufficient-decrease test
    at the price the march gives it."""
    val = cost_at(march, w)
    return math.isfinite(val) and val <= cost - ARMIJO_C * w * g_sq


def reference_backtracking(f, g, omega_prev, current_cost, weight=1.0):
    """The two-way Armijo search read step size by step size, f mapping a step
    size to its cost: the reference of optimizer.two_way_backtracking, which
    reads the same step sizes in the same order from blocks it marches."""
    g_sq = weight * float(np.sum(np.asarray(g) ** 2))
    if g_sq <= 0.0:
        return omega_prev, False, 0
    trials = 0

    def ok(w):
        nonlocal trials
        trials += 1
        val = f(w)
        return math.isfinite(val) and val <= current_cost - ARMIJO_C * w * g_sq

    omega = omega_prev
    if not ok(omega):
        for _ in range(MAX_HALVINGS):
            omega *= 0.5
            if ok(omega):
                return omega, True, trials
        return omega, False, trials
    for _ in range(MAX_DOUBLINGS):
        if not ok(2.0 * omega):
            break
        omega *= 2.0
    return omega, True, trials


def reference_blocks(march):
    """The cost at a step size for reference_backtracking, from blocks of step
    sizes guessed from the reads so far and priced together by march(ws): the
    first read w marches [w, w/2, 2w, 4w]; a read outside every block marched
    so far marches it and the rest of its direction, by halving below the
    first read and doubling above it, MAX_BLOCK at most and no more than the
    search can still read there. The reference of the blocks
    optimizer.two_way_backtracking marches."""
    blocks = {}
    first = None
    below = above = 0  # step sizes read on either side of the first

    def cost(w):
        nonlocal first, below, above
        if first is None:
            first = w
        elif w < first:
            below += 1
        elif w > first:
            above += 1
        if w not in blocks:
            if w == first:
                block = [w, 0.5 * w, 2.0 * w, 2.0 * (2.0 * w)]
            else:
                factor, left = ((0.5, MAX_HALVINGS - below) if w < first
                                else (2.0, MAX_DOUBLINGS - above))
                block = [w]
                while len(block) <= min(MAX_BLOCK - 1, left):
                    block.append(factor * block[-1])
            blocks.clear()
            price = march(block)
            for k, wk in enumerate(block):
                blocks.setdefault(wk, (price, k))
        price, k = blocks[w]
        return price(k)

    return cost


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
