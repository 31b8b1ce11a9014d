import tracemalloc

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.experiments import (
    build_target,
    fd_gradient_check,
    gaussian_initial_condition,
    single_tilt_target,
)
from romctl.fom import (
    CostBreakdown,
    DivergenceError,
    cost,
    gradient_fom,
    solve_adjoint,
    solve_state,
)
from romctl.models import ControlProblem, FomModel

from conftest import coarse_grid, resting_path, smooth_signal


def unit_cfl_grid(n=321, n_t=240, l=100.0, v=0.55):
    dx = l / n
    return SpaceTimeGrid(l=l, n=n, T=n_t * dx / v, n_t=n_t, v=v)


def test_exact_transport_at_unit_cfl():
    g = unit_cfl_grid()
    sh = build_fourier_shapes(g, 1)
    y0 = gaussian_initial_condition(g)
    Y = solve_state(g, sh, np.zeros((sh.m, g.n_t)), y0)
    worst = max(np.max(np.abs(Y[:, j] - np.roll(y0, j))) for j in range(g.n_t))
    assert worst < 1e-12


def test_constant_state_stays_constant(grid, shapes):
    y0 = 3.7 * np.ones(grid.n)
    Y = solve_state(grid, shapes, np.zeros((shapes.m, grid.n_t)), y0)
    assert np.max(np.abs(Y - 3.7)) < 1e-12


def test_mass_conservation_without_control(grid, shapes, y0):
    Y = solve_state(grid, shapes, np.zeros((shapes.m, grid.n_t)), y0)
    masses = grid.dx * Y.sum(axis=0)
    assert np.max(np.abs(masses - masses[0])) < 1e-10 * abs(masses[0])


def test_state_divergence_error_names_step(shapes):
    g = coarse_grid(n_t=40, cfl=50.0)  # badly unstable
    y0 = gaussian_initial_condition(g)
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as err:
        solve_state(g, shapes, 1e300 * np.ones((shapes.m, g.n_t)), y0)
    assert err.value.step == 12


def test_cfl_warning(shapes):
    g = coarse_grid(cfl=1.5)
    y0 = gaussian_initial_condition(g)
    with pytest.warns(RuntimeWarning, match="CFL"):
        solve_state(g, shapes, np.zeros((shapes.m, g.n_t)), y0)


def test_adjoint_zero_for_matched_target(grid, shapes, y0):
    Y = solve_state(grid, shapes, np.zeros((shapes.m, grid.n_t)), y0)
    lam = solve_adjoint(grid, Y, Y)
    assert np.max(np.abs(lam)) == 0.0


def test_adjoint_terminal_column_zero(grid, shapes, y0, target, rng):
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.2)
    Y = solve_state(grid, shapes, u, y0)
    lam = solve_adjoint(grid, Y, target)
    assert np.all(lam[:, -1] == 0.0)


def test_cost_zero_on_track(grid, shapes, y0):
    Y = solve_state(grid, shapes, np.zeros((shapes.m, grid.n_t)), y0)
    c = cost(grid, Y, Y, np.zeros((shapes.m, grid.n_t)), 1e-3)
    assert c.total == 0.0


def test_cost_breakdown_sums():
    c = CostBreakdown(tracking=1.25, regularization=0.5)
    assert c.total == pytest.approx(1.75, rel=1e-12)


def test_gradient_trivial_cases(grid, shapes, rng):
    u = rng.standard_normal((shapes.m, grid.n_t))
    lam = np.zeros((grid.n, grid.n_t))
    assert np.max(np.abs(gradient_fom(grid, shapes, lam, 0.0 * u, 1e-3))) == 0.0
    np.testing.assert_allclose(gradient_fom(grid, shapes, lam, u, 1e-3), 1e-3 * u, atol=0)


def test_gradient_matches_finite_differences(grid, shapes, y0, target, target_path, rng):
    model = FomModel(ControlProblem(grid, shapes, y0, target, target_path, 1e-3))
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.1)
    errs = fd_gradient_check(model, u, n_directions=5, seed=3)
    assert max(errs) < 1e-5


def fom_model(grid, shapes, y0, target, target_path):
    return FomModel(ControlProblem(grid, shapes, y0, target, target_path, 1e-3))


def test_fom_model_evaluates_in_its_own_buffers(rng):
    # after a warm-up, an evaluation and a closed-form step-size search make no
    # (n, n_t) array: the state, the adjoint and the work array are the model's.
    # The grid holds more than the 8192 elements of numpy's iteration buffer,
    # which the mixed-order misfit takes.
    grid = coarse_grid(n=201, n_t=120)
    shapes, y0 = build_fourier_shapes(grid, 1), gaussian_initial_condition(grid)
    target = build_target(grid, y0, single_tilt_target(0.0, grid.v))
    model = fom_model(grid, shapes, y0, target, resting_path(grid))
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.1)
    J, g = model.evaluate(u)
    model.line_cost(u, g, J.total)
    tracemalloc.start()
    try:
        J, g = model.evaluate(u)
        model.line_cost(u, g, J.total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.n * grid.n_t


def test_fom_model_buffers_leave_results_alone(grid, shapes, y0, target, target_path, rng):
    # the buffers are overwritten by every solve, so nothing a call returns
    # may live in them: evaluating at u1, u2 and u1 again repeats bit for bit,
    # and the first gradient is untouched by the later calls
    model = fom_model(grid, shapes, y0, target, target_path)
    u1, u2 = (smooth_signal(rng, shapes.m, grid.n_t, 0.1) for _ in range(2))
    J1, g1 = model.evaluate(u1)
    kept = g1.copy()
    model.evaluate(u2)
    model.line_cost(u2, g1, J1.total)
    J3, g3 = model.evaluate(u1)
    assert J3 == J1 and g3.tobytes() == kept.tobytes() and g1.tobytes() == kept.tobytes()
    lifted = model.lift(u1)
    assert lifted.tobytes() == solve_state(grid, shapes, u1, y0).tobytes()
    buffers = [a for a in vars(model).values() if isinstance(a, np.ndarray)]
    assert len(buffers) == 3
    assert not any(np.shares_memory(lifted, b) for b in buffers)
    assert not any(np.shares_memory(g3, b) for b in buffers)
