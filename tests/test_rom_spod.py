import math
import tracemalloc

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes, rom_spod
from romctl.basis import ModeBasis, ModeRule, weighted_svd
from romctl.control import ControlProblem, ControlShapes
from romctl.experiments import (
    build_target,
    fd_gradient_check,
    gaussian_initial_condition,
    single_tilt_target,
)
from romctl.fom import solve_state
from romctl.models import SpodModel
from romctl.rom_spod import (
    SingularMassError,
    assemble_spod_rom,
    certify_smallness,
    gradient_spod,
    lift_spod,
    solve_spod_adjoint,
    solve_spod_state,
    SpodReducedTrajectory,
    tracking_terms,
)
from romctl.transform import shift_columns, transform_snapshots, uncontrolled_shift_path

from conftest import bare_problem, cost_at, coarse_grid, resting_path, shift_field, smooth_signal, svd_norm_B


def normalized_trig_basis(grid, cols):
    stack = []
    for kind, k in cols:
        if kind == "const":
            stack.append(np.ones(grid.n) / np.sqrt(grid.l))
        elif kind == "sin":
            stack.append(np.sin(2 * np.pi * k * grid.x / grid.l) / np.sqrt(grid.l / 2))
        else:
            stack.append(np.cos(2 * np.pi * k * grid.x / grid.l) / np.sqrt(grid.l / 2))
    return ModeBasis(modes=np.column_stack(stack))


@pytest.fixture
def eig_model(grid, shapes, y0, target, target_path):
    model = SpodModel(ControlProblem(grid, shapes, y0, target, target_path, 1e-3),
                      ModeRule.fixed(4), eigenfunction_basis=True)
    model.refine_basis(np.zeros((shapes.m, grid.n_t)))
    return model


def test_constant_mode_has_trivial_operators(grid, shapes, y0):
    basis = normalized_trig_basis(grid, [("const", 0)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    assert abs(ops.N[0, 0]) < 1e-12
    assert abs(ops.M2[0, 0]) < 1e-12


def test_sin_cos_pair_skew_structure(grid, shapes, y0):
    basis = normalized_trig_basis(grid, [("sin", 1), ("cos", 1)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    assert np.max(np.abs(ops.N + ops.N.T)) < 1e-10
    assert abs(ops.N[0, 1]) > 1e-3  # coupling between the pair
    np.testing.assert_allclose(ops.M2, ops.M2.T, atol=1e-12)


def test_structural_invariants_random_modes(grid, shapes, y0, rng):
    raw = np.column_stack(
        [np.sin(2 * np.pi * k * grid.x / grid.l + rng.uniform(0, 2 * np.pi)) for k in (1, 2, 3)]
    )
    modes, _ = np.linalg.qr(np.sqrt(grid.dx) * raw)
    basis = ModeBasis(modes=modes / np.sqrt(grid.dx))
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    assert np.max(np.abs(ops.N + ops.N.T)) < 1e-10
    eigs = np.linalg.eigvalsh(ops.M2)
    assert np.all(eigs > -1e-12)
    M_c = np.block([[np.eye(ops.r), ops.N], [ops.N.T, ops.M2]])
    assert np.min(np.linalg.eigvalsh(M_c)) > 0.0


def test_mass_matrix_factorization_identity(grid, shapes, y0, rng):
    basis = normalized_trig_basis(grid, [("sin", 1), ("cos", 1), ("sin", 2)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    a = rng.standard_normal(3)
    M = np.block([
        [np.eye(3), (ops.N @ a)[:, None]],
        [(ops.N @ a)[None, :], np.array([[a @ (ops.M2 @ a)]])],
    ])
    M_c = np.block([[np.eye(3), ops.N], [ops.N.T, ops.M2]])
    left = np.block([[np.eye(3), np.zeros((3, 3))], [np.zeros((1, 3)), a[None, :]]])
    lifted = left @ M_c @ left.T
    np.testing.assert_allclose(M, lifted, atol=1e-10)


def pairings(ops, rows, z):
    """The `rows` of the stacked pairings [B1; B2; B3] at one shift z."""
    return ops.along(rows, ops.symbol(np.full(ops.m, z)), np.eye(ops.m))


def test_invariant_basis_builds_its_drift_terms_once(eig_model, grid, shapes, rng, monkeypatch):
    # an invariant basis moves along v t on every solve: over many evaluations
    # and step-size searches the model builds the symbol and the tracking
    # terms along it once, and the search's curvature reads them
    assert eig_model.ops.invariant
    calls = {"symbol": 0, "tracking_terms": 0}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)

    count(rom_spod.SpodRomOperators, "symbol")
    count(rom_spod, "tracking_terms")
    for amp in (0.0, 0.01, 0.02):
        u = smooth_signal(rng, shapes.m, grid.n_t, amp)
        J, g = eig_model.evaluate(u)
        cost_at(eig_model.line_cost(u, g, J.total), 1.0)
        eig_model.evaluate(-u)
    assert calls == {"symbol": 1, "tracking_terms": 1}


def test_b1_at_zero_shift_matches_direct_pairing(grid, shapes, y0):
    basis = normalized_trig_basis(grid, [("const", 0), ("sin", 1)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    direct = grid.dx * (basis.modes.T @ shapes.shapes)
    np.testing.assert_allclose(pairings(ops, slice(0, ops.r), 0.0), direct, atol=1e-12)


def test_lookup_interpolation(grid, shapes, y0, rng):
    # B1(z) from the exact symbol against the pairing of the shifted modes,
    # at a node and at shifts off the nodes, negative ones and ones past l
    basis = normalized_trig_basis(grid, [("const", 0), ("sin", 1), ("cos", 2)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    for z in (3 * grid.dx, 3.5 * grid.dx, *rng.uniform(-2.0 * grid.l, 2.0 * grid.l, 8)):
        direct = grid.dx * (shift_field(basis.modes, z, grid).T @ shapes.shapes)
        np.testing.assert_allclose(pairings(ops, slice(0, ops.r), z), direct, rtol=0, atol=1e-14)


def test_b_table_slope_consistency():
    # dB1/dz = B2 and dB2/dz = B3 up to the gap between the slope of the
    # interpolated shift within a cell and the shifted mode derivatives
    g = coarse_grid(n=1001, n_t=4)
    sh = build_fourier_shapes(g, 1)
    y0 = gaussian_initial_condition(g)
    basis = normalized_trig_basis(g, [("sin", 1), ("cos", 1)])
    ops = assemble_spod_rom(basis, bare_problem(g, sh, y0))
    z, h = 13.7, 1e-4
    r = ops.r
    B1, B2, B3 = slice(0, r), slice(r, 2 * r), slice(2 * r, 3 * r)
    slope = lambda rows: (pairings(ops, rows, z + h) - pairings(ops, rows, z - h)) / (2 * h)
    np.testing.assert_allclose(slope(B1), pairings(ops, B2, z), atol=2e-3)
    np.testing.assert_allclose(slope(B2), pairings(ops, B3, z), atol=2e-3)


def test_zero_control_shift_law_and_norm(eig_model, grid, shapes):
    traj = solve_spod_state(eig_model.ops, np.zeros((shapes.m, grid.n_t)))
    np.testing.assert_allclose(traj.z, grid.v * grid.t, atol=1e-12)
    norms = np.sum(traj.alpha**2, axis=0)
    assert np.max(np.abs(norms - norms[0])) < 1e-12


def test_state_self_convergence_first_order(grid, shapes, y0, target, target_path, rng):
    # fixed basis, same smooth control function, halved step: trajectory
    # differences shrink by about the step ratio. n and l stay, so the
    # operators assembled on each grid differ only in their grid
    model = SpodModel(ControlProblem(grid, shapes, y0, target, target_path, 1e-3),
                      ModeRule.fixed(4), eigenfunction_basis=True)
    model.refine_basis(np.zeros((shapes.m, grid.n_t)))
    diffs = []
    for mult in (1, 2, 4):
        g = SpaceTimeGrid(l=grid.l, n=grid.n, T=grid.T, n_t=grid.n_t * mult, v=grid.v)
        u = smooth_signal(np.random.default_rng(5), shapes.m, g.n_t, 0.05)
        traj = solve_spod_state(assemble_spod_rom(model.ops.basis, bare_problem(g, shapes, y0)), u)
        diffs.append(traj.alpha[:, ::mult])
    e1 = np.max(np.abs(diffs[0] - diffs[1][:, : diffs[0].shape[1]]))
    e2 = np.max(np.abs(diffs[1][:, : diffs[0].shape[1]] - diffs[2][:, : diffs[0].shape[1]]))
    assert 1.5 < e1 / e2 < 3.0


def test_zero_alpha0_raises(grid, shapes):
    basis = normalized_trig_basis(grid, [("sin", 1), ("cos", 1)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, np.zeros(grid.n)))
    with pytest.raises(SingularMassError):
        solve_spod_state(ops, np.zeros((shapes.m, grid.n_t)))


def self_tracking(ops, traj):
    """Tracking terms of the uncontrolled trajectory's own lift as the target.
    Without control the amplitudes stay at alpha0, so the lift is its first
    column moved along the trajectory's path."""
    lifted = lift_spod(ops, traj)
    assert np.array_equal(shift_columns(lifted[:, 0], traj.z, ops.grid), lifted)
    p = ops.problem
    own = ControlProblem(p.grid, p.shapes, p.y0, lifted, traj.z, p.mu)
    return tracking_terms(assemble_spod_rom(ops.basis, own), traj.z)


def test_adjoint_vanishes_for_self_target(eig_model, grid, shapes, rng):
    u = np.zeros((shapes.m, grid.n_t))
    traj = solve_spod_state(eig_model.ops, u)
    tracking = self_tracking(eig_model.ops, traj)
    adj = solve_spod_adjoint(eig_model.ops, traj, u, tracking)
    # zero source up to the rounding of two float paths for the same pairing
    assert np.max(np.abs(adj.lambda_a)) < 1e-12
    assert np.max(np.abs(adj.z_a)) < 1e-12


def test_adjoint_terminal_columns_zero(eig_model, grid, shapes, rng):
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.05)
    traj = solve_spod_state(eig_model.ops, u)
    tracking = tracking_terms(eig_model.ops, traj.z)
    adj = solve_spod_adjoint(eig_model.ops, traj, u, tracking)
    assert np.all(adj.lambda_a[:, -1] == 0.0)
    assert adj.z_a[-1] == 0.0


def test_gradient_trivial_cases(eig_model, grid, shapes, rng):
    u = rng.standard_normal((shapes.m, grid.n_t))
    traj = solve_spod_state(eig_model.ops, 0 * u)
    zero_adj = solve_spod_adjoint(
        eig_model.ops, traj, 0 * u, self_tracking(eig_model.ops, traj)
    )
    g = gradient_spod(eig_model.ops, traj, zero_adj, u)
    np.testing.assert_allclose(g, 1e-3 * u, atol=0)


def test_gradient_matches_fd_and_decays(grid, shapes, y0, target):
    # adjoint/FD agreement improves about first order when the step is halved;
    # the basis is re-extracted from the snapshots at each step size
    errs = []
    for mult in (1, 2):
        g = SpaceTimeGrid(l=grid.l, n=grid.n, T=grid.T, n_t=grid.n_t * mult, v=grid.v)
        tgt = build_target(g, gaussian_initial_condition(g), single_tilt_target(0.0, g.v))
        model = SpodModel(ControlProblem(g, shapes, y0, tgt, resting_path(g), 1e-3),
                          ModeRule.fixed(5))
        u = smooth_signal(np.random.default_rng(8), shapes.m, g.n_t, 0.02)
        model.refine_basis(u)
        dir_errs = fd_gradient_check(model, u, n_directions=6, seed=21)
        errs.append(float(np.median(dir_errs)))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 1.3


def lift_trajectory(alpha, z):
    """A trajectory for lift_spod, which reads no symbol: it carries the
    empty one of the constant control shape alone (xi = 0)."""
    return SpodReducedTrajectory(alpha=alpha, z=z, sig=np.empty((len(z), 0), dtype=complex))


def test_lift_rotates_single_mode(grid, shapes, y0):
    basis = normalized_trig_basis(grid, [("sin", 1)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    z = 4 * grid.dx * np.ones(grid.n_t)
    z[0] = 0.0
    traj = lift_trajectory(np.ones((1, grid.n_t)), z)
    lifted = lift_spod(ops, traj)
    np.testing.assert_array_equal(lifted[:, 3], np.roll(basis.modes[:, 0], 4))


def test_lift_matches_column_loop(grid, shapes, y0, rng):
    # the lift forms Phi alpha in one product and shifts its columns; the
    # column loop it replaced shifted each Phi alpha_j with shift_field
    basis = normalized_trig_basis(grid, [("const", 0), ("sin", 1), ("cos", 2)])
    ops = assemble_spod_rom(basis, bare_problem(grid, shapes, y0))
    z = rng.uniform(-2.0 * grid.l, 2.0 * grid.l, grid.n_t)
    z[1:4] = (3 * grid.dx, -7 * grid.dx + 1e-12, 11 * grid.dx + 2e-9)  # on or next to nodes
    traj = lift_trajectory(rng.standard_normal((basis.r, grid.n_t)), z)
    loop = np.column_stack([
        shift_field(basis.modes @ traj.alpha[:, j], z[j], grid) for j in range(grid.n_t)
    ])
    lifted = lift_spod(ops, traj)
    assert np.max(np.abs(lifted - loop)) <= 1e-12 * np.max(np.abs(loop))


def test_uncontrolled_lift_reproduces_fom_at_unit_cfl():
    g = coarse_grid(n=201, n_t=150, cfl=1.0)
    sh = build_fourier_shapes(g, 1)
    y0 = gaussian_initial_condition(g)
    target = build_target(g, y0, single_tilt_target(0.0, g.v))
    model = SpodModel(ControlProblem(g, sh, y0, target, resting_path(g), 1e-3),
                      ModeRule.fixed(4), eigenfunction_basis=True)
    model.refine_basis(np.zeros((sh.m, g.n_t)))
    u = np.zeros((sh.m, g.n_t))
    lifted = model.lift(u)
    Y = solve_state(g, sh, u, y0)
    assert np.max(np.abs(lifted - Y)) < 1e-10


def test_certificate_zero_and_boundary(eig_model, grid, shapes):
    u0 = np.zeros((shapes.m, grid.n_t))
    cert = certify_smallness(eig_model.ops, u0)
    assert cert.satisfied
    assert cert.zeta == pytest.approx(cert.bound, rel=1e-12)
    # the closed form ||B||^2 = l against the SVD of the shapes
    a0_sq = float(eig_model.ops.alpha0 @ eig_model.ops.alpha0)
    bn = svd_norm_B(shapes, grid)
    assert cert.bound == pytest.approx(a0_sq / (bn**2 * math.e * grid.T * eig_model.ops.r),
                                       rel=1e-14)
    amp = math.sqrt(cert.bound / (grid.dt * grid.n_t * shapes.m))
    u_edge = amp * np.ones((shapes.m, grid.n_t))
    cert_edge = certify_smallness(eig_model.ops, u_edge)
    assert cert_edge.u_norm_sq == pytest.approx(cert_edge.bound, rel=1e-12)
    assert not cert_edge.satisfied


def test_certified_controls_obey_envelope(eig_model, grid, shapes, rng):
    bn = svd_norm_B(shapes, grid)
    a0_sq = float(eig_model.ops.alpha0 @ eig_model.ops.alpha0)
    for _ in range(5):
        u = smooth_signal(rng, shapes.m, grid.n_t, 1.0)
        cert0 = certify_smallness(eig_model.ops, u)
        u *= 0.7 * math.sqrt(cert0.bound / cert0.u_norm_sq)
        cert = certify_smallness(eig_model.ops, u)
        assert cert.satisfied
        traj = solve_spod_state(eig_model.ops, u)
        nsq = np.sum(traj.alpha**2, axis=0)
        lo = grid.T * eig_model.ops.r * bn**2 * cert.zeta
        hi = (math.e + 1.0) * a0_sq
        assert np.min(nsq) > 0.95 * lo
        assert np.max(nsq) < 1.05 * hi


def test_assembly_needs_fourier_shapes(grid, y0, rng):
    # B(z) = B(0) T(z) holds for the Fourier shapes only
    basis = normalized_trig_basis(grid, [("sin", 1)])
    fourier = build_fourier_shapes(grid, 2).shapes
    scaled = fourier.copy()
    scaled[:, 3] *= 2.0
    for cols in (rng.standard_normal((grid.n, 5)), scaled, fourier[:, :4]):
        with pytest.raises(ValueError, match="Fourier"):
            assemble_spod_rom(basis, bare_problem(grid, ControlShapes(shapes=cols), y0))
    assemble_spod_rom(basis, bare_problem(grid, ControlShapes(shapes=fourier), y0))


def test_a_refresh_drops_the_snapshots_before_the_svd(grid, shapes, y0, target, target_path):
    # the refresh holds the co-moving snapshots through the SVD, not the
    # snapshots they were shifted from as well: its traced peak is the SVD's
    # own plus one field, not two
    model = SpodModel(ControlProblem(grid, shapes, y0, target, target_path, 1e-3),
                      ModeRule.fixed(4))
    u = smooth_signal(np.random.default_rng(3), shapes.m, grid.n_t, 1e-3)
    model.refine_basis(u)  # first-call allocations stay out of the trace
    field = 8 * grid.n * grid.n_t
    tracemalloc.start()
    try:
        model.refine_basis(u)
        refresh = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        Qs = transform_snapshots(solve_state(grid, shapes, u, y0),
                                 uncontrolled_shift_path(grid), grid)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        weighted_svd(Qs, grid)
        svd = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert refresh <= svd + 1.5 * field
