"""The closed-form sPOD-G on an invariant basis against the Schur sweep, and
the reduced tracking cost against the lifted one on every basis.

On the span of y0 and the control shapes, N^T B1(z) = B2(z) at every shift, so
the Schur sweep marches z' = v, a' = B1(v t) u up to rounding. The closed-form
state, cost, adjoint and gradient must agree with it (state and cost within
1e-12 relative), and the gradient is the exact one of the discrete reduced
cost. The Schur path is forced on the same operators with invariant=False.

The model never lifts its state to evaluate the cost. On a snapshot basis the
shift path moves with the control, and the cost must still equal fom.cost of
the lift within 1e-12 relative.
"""
import dataclasses
import math

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.basis import ModeRule
from romctl.control import ControlProblem
from romctl.experiments import (
    build_target,
    fd_gradient_check,
    gaussian_initial_condition,
    single_tilt_target,
)
from romctl.fom import cost
from romctl.models import SpodModel
from romctl.rom_spod import (
    SingularMassError,
    assemble_spod_rom,
    certify_smallness,
    invariant_response,
    lift_spod,
    solve_spod_state,
)

from conftest import armijo, evaluated_cost, smooth_signal, trial_march

L, V = 100.0, 0.55


def unit_cfl_grid(n, n_t):
    return SpaceTimeGrid(l=L, n=n, T=n_t * (L / n) / V, n_t=n_t, v=V)


# criterion 5 (xi = 2, 5), criterion 6 (xi = 1), and spod-eig-desk.cfg
SETTINGS = {
    "criterion-5-xi2": (unit_cfl_grid(401, 300), 2),
    "criterion-5-xi5": (unit_cfl_grid(401, 300), 5),
    "criterion-6-xi1": (unit_cfl_grid(401, 300), 1),
    "spod-eig-desk": (SpaceTimeGrid(l=L, n=401, T=136.02357742008616, n_t=300, v=V), 5),
}


def invariant_model(grid, xi, y0=None):
    shapes = build_fourier_shapes(grid, xi)
    spec = single_tilt_target(0.0, V)
    target = build_target(grid, gaussian_initial_condition(grid), spec)
    if y0 is None:
        y0 = gaussian_initial_condition(grid)
    problem = ControlProblem(grid, shapes, y0, target, spec.displacement(grid.t, grid), 1e-3)
    model = SpodModel(problem, ModeRule.fixed(1), eigenfunction_basis=True)
    model.refine_basis(np.zeros((shapes.m, grid.n_t)))
    return model


def rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_closed_form_matches_schur_sweep(setting):
    grid, xi = SETTINGS[setting]
    model = invariant_model(grid, xi)
    p, ops = model.problem, model.ops
    assert ops.invariant
    schur = dataclasses.replace(ops, invariant=False)
    rng = np.random.default_rng(5)
    gaps = {}
    for amp in (0.05, 0.3):
        u = smooth_signal(rng, p.shapes.m, grid.n_t, amp)
        if setting.startswith("criterion-6"):  # inside the smallness certificate
            cert = certify_smallness(ops, u)
            u *= 0.7 * math.sqrt(cert.bound / cert.u_norm_sq)
        traj = solve_spod_state(ops, u)
        ref = solve_spod_state(schur, u)
        J = model.evaluate(u)[0]
        J_ref = cost(grid, lift_spod(ops, ref), p.target, u, p.mu)
        gaps[amp] = (rel(traj.alpha, ref.alpha), rel(traj.z, ref.z),
                     abs(J.total - J_ref.total) / J_ref.total)
        assert J.regularization == J_ref.regularization
    # the worst gap of each setting, so that a change to the pairing
    # arithmetic sees how much of the bound is left
    worst = max(gaps, key=lambda amp: max(gaps[amp]))
    print(f"[ltv] {setting}: worst gap {max(gaps[worst]):.2e} at amplitude {worst} "
          "(alpha, z, J: " + ", ".join(f"{g:.1e}" for g in gaps[worst]) + ") vs bound 1e-12")
    for amp, (alpha_gap, z_gap, J_gap) in gaps.items():
        assert alpha_gap < 1e-12, amp
        assert z_gap < 1e-12, amp
        assert J_gap < 1e-12, amp


@pytest.mark.parametrize("amp", [0.0, 1e-3, 1.0, 100.0])
def test_no_control_moves_the_schur_complement(amp):
    # s_j = a^T (M2 - N^T N) a = dx |(I - P) Phi' a|^2 with P the projection on
    # the modes, and B1(z) u adds only Fourier content, which the central
    # difference maps into their span: on the invariant basis s_j = s_0
    grid, xi = SETTINGS["spod-eig-desk"]
    ops = invariant_model(grid, xi).ops
    u = smooth_signal(np.random.default_rng(9), ops.m, grid.n_t, amp)
    alpha = invariant_response(ops, u) + ops.alpha0[:, None]
    b = ops.N @ alpha
    c = np.einsum("rj,rj->j", alpha, ops.M2 @ alpha)
    bb = np.einsum("rj,rj->j", b, b)
    s = c - bb
    assert np.all(np.abs(s - s[0]) <= 1e-13 * np.maximum(np.maximum(c, bb), 1.0))


@pytest.mark.parametrize("amp", [0.0, 1e-3])
def test_the_parabola_keeps_every_armijo_outcome_of_the_trials(amp):
    # so a trial fails its Schur margin only where c_j > 1e12 s_0, at amplitudes
    # so far above the control's that the parabola fails the Armijo test too
    grid, xi = SETTINGS["spod-eig-desk"]
    model = invariant_model(grid, xi)
    u = smooth_signal(np.random.default_rng(10), model.ops.m, grid.n_t, amp)
    J, g = model.evaluate(u)
    g_sq = grid.dt * float(np.sum(g * g))
    parabola, trials = model.line_cost(u, g, J.total), trial_march(evaluated_cost(model), u, g)
    outcomes, singular = set(), 0
    for k in range(-40, 60):
        w = 2.0**k
        ok = armijo(trials, w, J.total, g_sq)
        assert armijo(parabola, w, J.total, g_sq) == ok, w
        outcomes.add(ok)
        try:
            model.evaluate(u - w * g)
        except SingularMassError:
            singular += 1
    assert outcomes == {True, False} and singular > 0


@pytest.mark.parametrize("setting", ["criterion-5-xi2", "criterion-6-xi1"])
def test_closed_form_gradient_is_exact(setting):
    grid, xi = SETTINGS[setting]
    model = invariant_model(grid, xi)
    u = smooth_signal(np.random.default_rng(2), model.problem.shapes.m, grid.n_t, 0.05)
    assert max(fd_gradient_check(model, u, n_directions=6, seed=17)) < 1e-8


def test_tracking_terms_follow_the_model_grid():
    # criterion 3 hands one model's basis to a model on another grid, which
    # assembles its operators on its own grid: the tracking terms belong to
    # the grid and target of the model that evaluates, and to the basis it
    # holds (here also one from another y0)
    coarse = invariant_model(unit_cfl_grid(101, 60), 1)
    fine_grid = SpaceTimeGrid(l=L, n=101, T=coarse.problem.grid.T, n_t=120, v=V)
    other = invariant_model(fine_grid, 1, np.exp(-((fine_grid.x - 60.0) / 3.0) ** 2))
    for source in (coarse, other):
        fine = invariant_model(fine_grid, 1)
        p = fine.problem
        u = smooth_signal(np.random.default_rng(9), p.shapes.m, fine_grid.n_t, 0.1)
        fine.ops = assemble_spod_rom(source.ops.basis, dataclasses.replace(p, y0=source.problem.y0))
        J = fine.evaluate(u)[0]
        lifted = lift_spod(fine.ops, solve_spod_state(fine.ops, u))
        J_ref = cost(fine_grid, lifted, p.target, u, p.mu)
        assert abs(J.total - J_ref.total) < 1e-12 * J_ref.total



def test_snapshot_basis_cost_matches_lifted_cost():
    # a snapshot basis refined at a nonzero control holds no control shape, so
    # the control moves z off v t, and differently for each control: the
    # tracking terms must follow the path of every trajectory, also when
    # the evaluations alternate between two controls
    grid = unit_cfl_grid(201, 150)
    shapes = build_fourier_shapes(grid, 2)
    y0 = gaussian_initial_condition(grid)
    spec = single_tilt_target(0.5, V)
    target = build_target(grid, y0, spec)
    problem = ControlProblem(grid, shapes, y0, target, spec.displacement(grid.t, grid), 1e-3)
    model = SpodModel(problem, ModeRule.fixed(5))
    rng = np.random.default_rng(6)
    model.refine_basis(smooth_signal(rng, shapes.m, grid.n_t, 0.05))
    assert model.ops.r == 5 and not model.ops.invariant
    controls = [smooth_signal(rng, shapes.m, grid.n_t, 0.02) for _ in range(2)]
    paths = []
    for u in controls + controls:
        J = model.evaluate(u)[0]
        traj = solve_spod_state(model.ops, u)
        paths.append(traj.z)
        J_ref = cost(grid, lift_spod(model.ops, traj), target, u, model.problem.mu)
        assert abs(J.total - J_ref.total) <= 1e-12 * J_ref.total
    v_t = V * grid.t
    assert min(np.max(np.abs(z - v_t)) for z in paths) > grid.dx
    assert np.max(np.abs(paths[0] - paths[1])) > grid.dx


def test_refresh_between_invariant_and_snapshot_bases_rebuilds_the_terms():
    # a snapshot basis of all 2 xi + 2 co-moving modes spans the invariant
    # subspace, a truncated one does not: a refresh that switches between them
    # replaces the operators, and with them the target table and the terms
    # along v t of the basis before
    p = invariant_model(unit_cfl_grid(201, 150), 2).problem
    grid, m = p.grid, p.shapes.m
    model = SpodModel(p, ModeRule.fixed(m + 1))
    rng = np.random.default_rng(4)
    u = smooth_signal(rng, m, grid.n_t, 0.02)
    for r, invariant in ((m + 1, True), (3, False), (m + 1, True)):
        model.mode_rule = ModeRule.fixed(r)
        model.refine_basis(smooth_signal(rng, m, grid.n_t, 0.05))
        assert model.ops.invariant == invariant
        J = model.evaluate(u)[0]
        lifted = lift_spod(model.ops, solve_spod_state(model.ops, u))
        J_ref = cost(grid, lifted, p.target, u, p.mu)
        assert abs(J.total - J_ref.total) <= 1e-12 * J_ref.total
