from dataclasses import replace

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.basis import ModeBasis, ModeRule
from romctl.control import ControlProblem
from romctl.experiments import (
    ScenarioConfig,
    build_model,
    fd_gradient_check,
    gaussian_initial_condition,
)
from romctl.fom import cost, solve_state
from romctl.models import PodModel
from romctl.rom_pod import (
    assemble_pod_rom,
    gradient_pod,
    lift_pod,
    project_snapshots,
    solve_pod_adjoint,
    solve_pod_state,
)

from conftest import bare_problem, coarse_grid, field_norm, smooth_signal


def fourier_basis(grid, xi):
    """Exactly H-orthonormal trigonometric basis (A_h-invariant span)."""
    cols = [np.ones(grid.n) / np.sqrt(grid.l)]
    for k in range(1, xi + 1):
        cols.append(np.sin(2 * np.pi * k * grid.x / grid.l) / np.sqrt(grid.l / 2))
        cols.append(np.cos(2 * np.pi * k * grid.x / grid.l) / np.sqrt(grid.l / 2))
    return ModeBasis(modes=np.column_stack(cols))


def test_alpha0_single_mode(grid, y0):
    phi = y0 / field_norm(y0, grid)
    basis = ModeBasis(modes=phi[:, None])
    ops = assemble_pod_rom(basis, bare_problem(grid, build_fourier_shapes(grid, 1), y0))
    assert ops.alpha0[0] == pytest.approx(field_norm(y0, grid), rel=1e-12)


def test_galerkin_exactness_on_invariant_span(grid, rng):
    # initial data and shapes inside a circulant-invariant span make the
    # reduced solve agree with the full solve up to roundoff
    shapes = build_fourier_shapes(grid, 1)
    basis = fourier_basis(grid, 2)
    y0 = 2.0 + np.sin(2 * np.pi * grid.x / grid.l)
    ops = assemble_pod_rom(basis, bare_problem(grid, shapes, y0))
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.3)
    alpha = solve_pod_state(ops, u)
    Y_fom = solve_state(grid, shapes, u, y0)
    assert np.max(np.abs(lift_pod(ops, alpha) - Y_fom)) < 1e-10


def test_complete_basis_reproduces_fom(rng):
    g = coarse_grid(n=40, n_t=30)
    shapes = build_fourier_shapes(g, 1)
    basis = ModeBasis(modes=np.eye(g.n) / np.sqrt(g.dx))
    y0 = gaussian_initial_condition(g)
    ops = assemble_pod_rom(basis, bare_problem(g, shapes, y0))
    u = smooth_signal(rng, shapes.m, g.n_t, 0.5)
    lifted = lift_pod(ops, solve_pod_state(ops, u))
    assert np.max(np.abs(lifted - solve_state(g, shapes, u, y0))) < 1e-10


def test_solution_linear_in_control(grid, shapes, y0, rng):
    basis = fourier_basis(grid, 3)
    ops = assemble_pod_rom(basis, bare_problem(grid, shapes, y0))
    u1 = smooth_signal(rng, shapes.m, grid.n_t, 0.2)
    u2 = smooth_signal(rng, shapes.m, grid.n_t, 0.2)
    a1 = solve_pod_state(ops, u1)
    a2 = solve_pod_state(ops, u2)
    a12 = solve_pod_state(ops, u1 + u2)
    a0 = solve_pod_state(ops, 0 * u1)
    assert np.max(np.abs(a12 - (a1 + a2 - a0))) < 1e-10


def test_adjoint_zero_source_and_terminal(grid, shapes, y0, rng):
    basis = fourier_basis(grid, 2)
    ops = assemble_pod_rom(basis, bare_problem(grid, shapes, y0))
    alpha = solve_pod_state(ops, smooth_signal(rng, shapes.m, grid.n_t, 0.1))
    lam = solve_pod_adjoint(replace(ops, yd_reduced=alpha.copy()), alpha)
    assert np.max(np.abs(lam)) == 0.0
    lam2 = solve_pod_adjoint(ops, alpha)  # against the zero target
    assert np.all(lam2[:, -1] == 0.0)


def test_gradient_trivial_cases(grid, shapes, y0, rng):
    basis = fourier_basis(grid, 2)
    ops = assemble_pod_rom(basis, bare_problem(grid, shapes, y0))
    u = rng.standard_normal((shapes.m, grid.n_t))
    lam = np.zeros((basis.r, grid.n_t))
    assert np.max(np.abs(gradient_pod(ops, lam, 0 * u))) == 0.0
    np.testing.assert_allclose(gradient_pod(ops, lam, u), 1e-3 * u, atol=0)


def test_reduced_gradient_matches_fd(grid, shapes, y0, target, target_path, rng):
    model = PodModel(ControlProblem(grid, shapes, y0, target, target_path, 1e-3),
                     ModeRule.fixed(12))
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.1)
    model.refine_basis(u)
    errs = fd_gradient_check(model, u, n_directions=5, seed=9)
    assert max(errs) < 1e-6


def test_lift_replicates_single_mode(grid, shapes, y0):
    phi = y0 / field_norm(y0, grid)
    ops = assemble_pod_rom(ModeBasis(modes=phi[:, None]), bare_problem(grid, shapes, y0))
    alpha = np.ones((1, grid.n_t))
    np.testing.assert_allclose(lift_pod(ops, alpha), np.tile(phi[:, None], grid.n_t))


def test_lift_project_identity_on_span(grid, shapes, y0, rng):
    basis = fourier_basis(grid, 3)
    ops = assemble_pod_rom(basis, bare_problem(grid, shapes, y0))
    coeff = rng.standard_normal((basis.r, grid.n_t))
    Q = lift_pod(ops, coeff)
    np.testing.assert_allclose(lift_pod(ops, project_snapshots(basis, Q, grid)), Q, atol=1e-10)


def test_reduced_cost_matches_lifted_cost(grid, shapes, y0, target, target_path, rng):
    # reduced misfit plus the constant out-of-span energy equals the full
    # tracking value of the lifted trajectory
    model = PodModel(ControlProblem(grid, shapes, y0, target, target_path, 1e-3),
                     ModeRule.fixed(10))
    model.refine_basis(np.zeros((shapes.m, grid.n_t)))
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.2)
    reduced = model.evaluate(u)[0]
    lifted = model.lift(u)
    full = cost(grid, lifted, target, u, 1e-3)
    assert reduced.total == pytest.approx(full.total, rel=1e-10)


def test_reduced_cost_matches_lifted_cost_at_high_rank():
    # the pod-adapt-desk setting at u = 0: the r = 181 modes leave about 1e-11
    # of the target energy (about 85) out of their span, so that energy,
    # target_energy - 1/2 dt |alpha_d|^2, is rounding; the total cost is still
    # the full cost of the lifted state
    cfg = ScenarioConfig(n=401, n_t=300, T=136.02357742008616, xi=5, model="pod",
                         mode_tol=1e-6, problem="double_tilt")
    model = build_model(cfg)
    p = model.problem
    u = np.zeros((p.shapes.m, p.grid.n_t))
    assert model.refine_basis(u).modes == 181
    full = cost(p.grid, model.lift(u), p.target, u, p.mu)
    assert model.evaluate(u)[0].total == pytest.approx(full.total, rel=1e-12)


def test_projected_upwind_is_skew_plus_grid_level_dissipation(grid, shapes, y0):
    # the central part of the upwind stencil projects to a skew matrix; the
    # remaining symmetric part is the O(dx) upwind dissipation
    basis = fourier_basis(grid, 2)
    ops = assemble_pod_rom(basis, bare_problem(grid, shapes, y0))
    sym = np.linalg.norm(ops.A_l + ops.A_l.T)
    assert 0.0 < sym < 10.0 * grid.dx



@pytest.mark.parametrize("v", [0.55, -0.55, 0.0])
def test_projected_operator_is_galerkin_projection_of_upwind_matrix(v, rng):
    # A_l = dx Phi^T A Phi with A the full model's upwind matrix, built densely
    # here: (A y)_i = c (y_{i-1} - y_i) for v > 0, c (y_{i+1} - y_i) for v < 0
    g = SpaceTimeGrid(l=100.0, n=101, T=50.0, n_t=60, v=v)
    c = abs(v) / g.dx
    A = np.zeros((g.n, g.n))
    for i in range(g.n):
        A[i, i] = -c
        A[i, (i - 1 if v > 0 else i + 1) % g.n] += c
    q, _ = np.linalg.qr(rng.standard_normal((g.n, 9)))
    basis = ModeBasis(modes=q / np.sqrt(g.dx))
    ops = assemble_pod_rom(basis, bare_problem(g, build_fourier_shapes(g, 1),
                                               gaussian_initial_condition(g)))
    expected = g.dx * (basis.modes.T @ (A @ basis.modes))
    assert np.max(np.abs(ops.A_l - expected)) <= 1e-15 * np.max(np.abs(ops.A_l))
