"""The shared explicit-Euler kernel against the six time loops it replaced.

The reference solves below are the loops fom.solve_state, fom.solve_adjoint,
rom_pod.solve_pod_state, rom_pod.solve_pod_adjoint, rom_spod.solve_spod_state
and rom_spod.solve_spod_adjoint ran before they shared fom.euler_sweep, kept
verbatim as oracles, with the sPOD-G gradient loop and the three separate
shift pairings those loops read: the kernel changes no arithmetic, so
the FOM and POD-G solves must match them bit for bit. The sPOD-G solves read
the pairings of the shifted modes with the shapes as B(0) T(z), T(z) from the
symbol of the shift, where the oracles evaluate the shift loop at each step's
shift, so they match to 1e-12 relative, as B(z) itself does. The sPOD-G
adjoint oracle also pairs the target with the lifted state at every step
(three rolls of the target column, Phi a, Phi^T w and the lift Gram matrices),
while the solve reads the same pairings from rom_spod.tracking_terms, summed
in another order.
tracking_terms blends rows of the target table, the pairings of the modes with
every roll of the target profile; its oracle is the column loop it replaced,
which read each target column, matched to 1e-12 relative.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.basis import ModeBasis, eigenfunction_stationary_basis, weighted_svd
from romctl.discretization import central_derivative
from romctl.fom import CHECK_EVERY, DivergenceError, euler_sweep, solve_adjoint, solve_state
from romctl.rom_pod import assemble_pod_rom, solve_pod_adjoint, solve_pod_state
from romctl.rom_spod import (
    SingularMassError,
    SpodAdjointTrajectory,
    SpodReducedTrajectory,
    SpodTracking,
    assemble_spod_rom,
    gradient_spod,
    solve_spod_adjoint,
    solve_spod_state,
    target_table,
    tracking_terms,
)
from romctl.transform import shift_columns

from conftest import second_difference, shift_field, smooth_signal, split_one


def reference_transport(y, grid, reversed_direction):
    """dt times the upwind transport of one field, as the FOM loops wrote it."""
    v = grid.v
    if v == 0.0:
        return np.zeros_like(y)
    shift = 1 if (v > 0) != reversed_direction else -1
    return (grid.dt * abs(v) / grid.dx) * (np.roll(y, shift) - y)


def reference_state(grid, shapes, u, y0):
    dt = grid.dt
    forcing = shapes.shapes @ u  # all control fields in one matrix product
    Y = np.empty((grid.n, grid.n_t))
    Y[:, 0] = y0
    y = y0.copy()
    for j in range(grid.n_t - 1):
        y = y + reference_transport(y, grid, reversed_direction=False) + dt * forcing[:, j]
        # a single non-finite entry poisons the sum
        if not math.isfinite(float(np.sum(y))):
            raise DivergenceError(j + 1, "state")
        Y[:, j + 1] = y
    return Y


def reference_adjoint(grid, state, target):
    dt = grid.dt
    source = dt * (state - target)
    lam = np.zeros_like(state)
    cur = lam[:, -1]
    for j in range(grid.n_t - 1, 0, -1):
        cur = cur + reference_transport(cur, grid, reversed_direction=True) + source[:, j]
        if not math.isfinite(float(np.sum(cur))):
            raise DivergenceError(j - 1, "adjoint")
        lam[:, j - 1] = cur
    return lam


def reference_pod_state(ops, u, grid):
    dt = grid.dt
    forcing = ops.B_l @ u
    alpha = np.empty((ops.r, grid.n_t))
    alpha[:, 0] = ops.alpha0
    a = ops.alpha0.copy()
    for j in range(grid.n_t - 1):
        a = a + dt * (ops.A_l @ a + forcing[:, j])
        if not np.all(np.isfinite(a)):
            raise DivergenceError(j + 1, "reduced state")
        alpha[:, j + 1] = a
    return alpha


def reference_pod_adjoint(ops, alpha, yd_reduced, grid):
    dt = grid.dt
    AT = ops.A_l.T
    lam = np.zeros_like(alpha)
    cur = lam[:, -1]
    for j in range(grid.n_t - 1, 0, -1):
        cur = cur + dt * (AT @ cur + alpha[:, j] - yd_reduced[:, j])
        if not np.all(np.isfinite(cur)):
            raise DivergenceError(j - 1, "reduced adjoint")
        lam[:, j - 1] = cur
    return lam


def reference_b_table(basis, shapes, grid, shifts):
    """The stacked pairings [B1; B2; B3] at each of the shifts, by the shift
    loop that built the sampled table before the shift symbol replaced it."""
    Phi = basis.modes
    r = basis.r
    dPhi = central_derivative(Phi, grid)
    ddPhi = second_difference(Phi, grid)
    stacked = np.column_stack([Phi, dPhi, ddPhi])  # one shift call per shift
    table = np.empty((len(shifts), 3 * r, shapes.m))
    for s, z in enumerate(shifts):
        table[s] = grid.dx * (shift_field(stacked, z, grid).T @ shapes.shapes)
    table[:, r : 2 * r] *= -1.0  # d/dz of the shifted mode is minus its shifted slope
    return table


class ReferenceSpodOps:
    """The three pairings B1, B2, B3 as the sweeps read them before they were
    stacked into one, each evaluated by the shift loop at the shift it is
    read at, and the lift Gram matrices the adjoint built at every step, in
    front of the operators that did not change (N, M2, alpha0, the one-cell
    cross Gram)."""

    def __init__(self, ops, basis, shapes, grid):
        self._ops = ops
        self._pairing = lambda z: reference_b_table(basis, shapes, grid, [z])[0]
        self.z0 = 0.0

    def __getattr__(self, name):
        return getattr(self._ops, name)

    def B1(self, z: float) -> np.ndarray:
        return self._pairing(z)[: self.r]

    def B2(self, z: float) -> np.ndarray:
        return self._pairing(z)[self.r : 2 * self.r]

    def B3(self, z: float) -> np.ndarray:
        return self._pairing(z)[2 * self.r :]

    def lift_gram(self, frac: float) -> np.ndarray:
        return ((1.0 - frac) ** 2 + frac**2) * np.eye(self.r) + (
            frac * (1.0 - frac)
        ) * self.gram_cross

    def lift_gram_rate(self, frac: float, dx: float) -> np.ndarray:
        if frac == 0.0:
            return np.zeros_like(self.gram_cross)
        return ((4.0 * frac - 2.0) * np.eye(self.r) + (1.0 - 2.0 * frac) * self.gram_cross) / dx


def schur_solve(b, c, rhs_a, rhs_z, step):
    """Solve [[I, b], [b^T, c]] (x, w) = (rhs_a, rhs_z), b = N alpha and
    c = alpha^T M2 alpha, via the scalar Schur complement s = c - |b|^2, as the
    per-step sPOD-G solves did; SingularMassError at `step` unless s is finite
    and above 1e-12 max(1, c, |b|^2)."""
    bb = float(b @ b)
    s = c - bb
    if not (s < math.inf and s > 1e-12 and s > 1e-12 * c and s > 1e-12 * bb):
        raise SingularMassError(step, f"Schur complement {s:.3e}")
    w = (rhs_z - float(b @ rhs_a)) / s
    x = rhs_a - b * w
    return x, w


def reference_spod_state(ops, u, grid):
    u = np.asarray(u, dtype=float)
    if u.shape != (ops.m, grid.n_t):
        raise ValueError(f"control has shape {u.shape}, expected ({ops.m}, {grid.n_t})")
    if float(ops.alpha0 @ ops.alpha0) == 0.0:
        raise SingularMassError(0, "initial amplitudes are zero")
    dt, v = grid.dt, grid.v
    r = ops.r
    alpha = np.empty((r, grid.n_t))
    zpath = np.empty(grid.n_t)
    a = ops.alpha0.copy()
    z = float(ops.z0)
    alpha[:, 0] = a
    zpath[0] = z
    for j in range(grid.n_t - 1):
        rhs_a = v * (ops.N @ a) + ops.B1(z) @ u[:, j]
        rhs_z = v * float(a @ (ops.M2 @ a)) + float(a @ (ops.B2(z) @ u[:, j]))
        da, dz = schur_solve(ops.N @ a, float(a @ (ops.M2 @ a)), rhs_a, rhs_z, j)
        a = a + dt * da
        z = z + dt * dz
        if not (np.all(np.isfinite(a)) and math.isfinite(z)):
            raise SingularMassError(j + 1, "non-finite reduced state")
        alpha[:, j + 1] = a
        zpath[j + 1] = z
    return SpodReducedTrajectory(alpha=alpha, z=zpath, sig=ops.symbol(zpath))


def reference_spod_adjoint(ops, traj, u, target, basis, grid):
    u = np.asarray(u, dtype=float)
    target = np.asarray(target, dtype=float)
    n_t, dt, v = grid.n_t, grid.dt, grid.v
    if target.shape != (grid.n, n_t):
        raise ValueError(f"target has shape {target.shape}, expected ({grid.n}, {n_t})")
    Phi = basis.modes
    dx = grid.dx

    alpha, zpath = traj.alpha, traj.z
    adot = np.diff(alpha, axis=1) / dt        # rate used at node j for j < n_t-1
    zdot = np.diff(zpath) / dt

    lam = np.zeros((ops.r, n_t))
    za = np.zeros(n_t)
    cur_l = lam[:, -1]
    cur_z = 0.0
    for j in range(n_t - 1, 0, -1):
        a = alpha[:, j]
        z = zpath[j]
        jd = min(j, n_t - 2)
        ad_j = adot[:, jd]
        zd_j = zdot[jd]
        uj = u[:, j]
        B2z = ops.B2(z)
        B2u = B2z @ uj
        B3u = ops.B3(z) @ uj

        # exact derivative of 1/2 ||S(z) Phi a - y_d||^2 wrt (a, z)
        k, frac = split_one(z, grid)
        yd = target[:, j]
        ra = np.roll(yd, -k)
        rb = np.roll(yd, -(k + 1))
        if frac == 0.0:
            w = ra
            slope_pair = 0.5 * (rb - np.roll(yd, -(k - 1)))
        else:
            w = (1.0 - frac) * ra + frac * rb
            slope_pair = rb - ra
        lifted_g = Phi @ a
        t_alpha = dx * (Phi.T @ w) - ops.lift_gram(frac) @ a
        t_z = float(lifted_g @ slope_pair) - 0.5 * float(
            a @ (ops.lift_gram_rate(frac, dx) @ a)
        )

        NTl = ops.N.T @ cur_l
        # coefficient of the scalar adjoint: the skew pairing contributes
        # -2 N alpha_dot (operator adjoint plus mass-matrix rate; they add,
        # not cancel, because N is skew)
        e12 = -2.0 * (ops.N @ ad_j) + 2.0 * (zd_j - v) * (ops.M2 @ a) - B2u
        rhs_a = (zd_j - v) * NTl + e12 * cur_z + t_alpha
        rhs_z = (
            -float(ad_j @ NTl)
            - float(uj @ (B2z.T @ cur_l))
            + (-2.0 * float(a @ (ops.M2 @ ad_j)) - float(B3u @ a)) * cur_z
            + t_z
        )
        dl, dz = schur_solve(ops.N @ a, float(a @ (ops.M2 @ a)), rhs_a, rhs_z, j)
        cur_l = cur_l - dt * dl
        cur_z = cur_z - dt * dz
        if not (np.all(np.isfinite(cur_l)) and math.isfinite(cur_z)):
            raise SingularMassError(j - 1, "non-finite reduced adjoint")
        lam[:, j - 1] = cur_l
        za[j - 1] = cur_z
    return SpodAdjointTrajectory(lambda_a=lam, z_a=za)


def reference_tracking_terms(basis, target, z, grid):
    """The tracking terms as the column loop built them from the target
    snapshots, one column per step."""
    n, PhiT = grid.n, basis.modes.T
    P = np.empty((basis.r, grid.n_t))
    D = np.empty((basis.r, grid.n_t))
    frac = np.empty(grid.n_t)
    yy, w, wf = np.empty(2 * n), np.empty(n), np.empty(n)
    for j in range(grid.n_t):
        k, f = split_one(z[j], grid)
        frac[j] = f
        yy[:n] = yy[n:] = target[:, j]
        lo, hi = yy[k : k + n], yy[k + 1 : k + 1 + n]
        np.multiply(lo, 1.0 - f, out=w)
        w += np.multiply(hi, f, out=wf)
        P[:, j] = PhiT @ w
        if f:
            np.subtract(hi, lo, out=w)
        else:
            prev = (k - 1) % n
            np.subtract(hi, yy[prev : prev + n], out=w)
            w *= 0.5
        D[:, j] = PhiT @ w
    aligned = frac == 0.0
    return SpodTracking(
        P=grid.dx * P,
        D=D,
        self_weight=(1.0 - frac) ** 2 + frac**2,
        cross_weight=frac * (1.0 - frac),
        self_rate=np.where(aligned, 0.0, (4.0 * frac - 2.0) / grid.dx),
        cross_rate=np.where(aligned, 0.0, (1.0 - 2.0 * frac) / grid.dx),
    )


def reference_gradient_spod(ops, traj, adjoint, u, mu):
    u = np.asarray(u, dtype=float)
    g = mu * u.copy()
    for j in range(u.shape[1]):
        z = traj.z[j]
        g[:, j] += ops.B1(z).T @ adjoint.lambda_a[:, j]
        g[:, j] += (ops.B2(z).T @ traj.alpha[:, j]) * adjoint.z_a[j]
    return g


def problem(v, seed, n=97, n_t=83, r=9):
    """Random FOM and POD-G inputs on a grid at CFL 0.9 (T fixed when v = 0)."""
    l = 100.0
    T = 60.0 if v == 0.0 else n_t * 0.9 * (l / n) / abs(v)
    grid = SpaceTimeGrid(l=l, n=n, T=T, n_t=n_t, v=v)
    rng = np.random.default_rng(seed)
    shapes = build_fourier_shapes(grid, 2)
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    basis = ModeBasis(modes=q / np.sqrt(grid.dx))
    y0 = rng.standard_normal(n)
    ops = assemble_pod_rom(basis, shapes, y0, grid)
    u = smooth_signal(rng, shapes.m, n_t, 0.3) + 0.01 * rng.standard_normal((shapes.m, n_t))
    target = rng.standard_normal((n, n_t))
    yd = rng.standard_normal((r, n_t))
    return grid, shapes, ops, y0, u, target, yd


def spod_operators(grid, shapes, seed, r=5):
    """sPOD-G operators on the span of r random smooth bumps, the first of them
    the initial condition. Unlike the invariant-subspace basis, the span holds
    no control shape, so the control moves the shift off v t."""
    rng = np.random.default_rng(seed + 100)
    centers, widths = rng.uniform(0.0, grid.l, r), rng.uniform(4.0, 8.0, r)
    bumps = np.exp(-(((grid.x[:, None] - centers) / widths) ** 2))
    basis = ModeBasis(modes=weighted_svd(bumps, grid)[0])
    return basis, assemble_spod_rom(basis, shapes, bumps[:, 0], grid)


@pytest.mark.parametrize("v", [0.55, -0.55, 0.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_solves_match_parent_loops_bitwise(v, seed):
    grid, shapes, ops, y0, u, target, yd = problem(v, seed)
    Y = solve_state(grid, shapes, u, y0)
    assert np.array_equal(Y, reference_state(grid, shapes, u, y0))
    assert np.array_equal(solve_adjoint(grid, Y, target), reference_adjoint(grid, Y, target))
    alpha = solve_pod_state(ops, u, grid)
    assert np.array_equal(alpha, reference_pod_state(ops, u, grid))
    lam = solve_pod_adjoint(ops, alpha, yd, grid)
    assert np.array_equal(lam, reference_pod_adjoint(ops, alpha, yd, grid))


def rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def awkward_shifts(grid, rng, shifts):
    """The shifts with every fifth on a node, every fifth within 1e-8 cells of
    one (snapped to it), every fifth 1e-7 cells off one (not snapped), and
    the nodes up to twice l away on either side."""
    out = np.array(shifts, dtype=float)
    nodes = grid.dx * rng.integers(-2 * grid.n, 2 * grid.n, out.size)
    out[1::5] = nodes[1::5]
    out[2::5] = nodes[2::5] + grid.dx * rng.uniform(-5e-9, 5e-9, out[2::5].size)
    out[3::5] = nodes[3::5] + grid.dx * 1e-7
    return out


def moving_profile(grid, seed):
    """A random target profile on a random path from 0 that wraps past l in
    both directions, and the target snapshots they make."""
    rng = np.random.default_rng(seed + 200)
    profile = rng.standard_normal(grid.n)
    path = np.cumsum(rng.uniform(-1.0, 1.0, grid.n_t)) * (3.0 * grid.l / grid.n_t)
    path[4::7] -= 2.0 * grid.l
    path = awkward_shifts(grid, rng, path - path[0])
    return profile, path, shift_columns(profile, path, grid)


@pytest.mark.parametrize("v", [0.55, -0.55])
@pytest.mark.parametrize("seed", [0, 1])
def test_spod_solves_match_parent_loops_bitwise(v, seed):
    grid, shapes, _, _, u, _, _ = problem(v, seed)
    basis, ops = spod_operators(grid, shapes, seed)
    assert not ops.invariant  # the bumps hold no control shape: the Schur path runs
    profile, path, target = moving_profile(grid, seed)
    ref = ReferenceSpodOps(ops, basis, shapes, grid)
    traj = solve_spod_state(ops, u)
    ref_traj = reference_spod_state(ref, u, grid)
    # not bitwise: the solve pairs through B(0) T(z), the oracle through the shift loop
    assert rel(traj.alpha, ref_traj.alpha) <= 1e-12
    assert rel(traj.z, ref_traj.z) <= 1e-12
    tracking = tracking_terms(target_table(basis, profile, grid), path, traj.z, grid)
    adj = solve_spod_adjoint(ops, traj, u, tracking)
    ref_adj = reference_spod_adjoint(ref, ref_traj, u, target, basis, grid)
    assert rel(adj.lambda_a, ref_adj.lambda_a) <= 1e-12
    assert rel(adj.z_a, ref_adj.z_a) <= 1e-12
    g = gradient_spod(ops, traj, adj, u, 1e-3)
    assert rel(g, reference_gradient_spod(ref, ref_traj, ref_adj, u, 1e-3)) <= 1e-12


@pytest.mark.parametrize("n_samples", [64, 194, 800])
@pytest.mark.parametrize("seed", [0, 1])
def test_b_table_matches_shift_loop(seed, n_samples):
    # random bumps and the invariant basis on 97 nodes: B(z) read through
    # along, forward and transposed, against the shift loop evaluated at z, at
    # every whole-cell shift, at n_samples evenly spaced shifts over one
    # period (194 put every other one on a node, where split_shift snaps to a
    # whole-cell roll) and at shifts on, within the snap band of, and just
    # outside it around nodes up to 3 l away on either side
    grid, shapes, _, y0, _, _, _ = problem(0.55, seed)
    bumps, _ = spod_operators(grid, shapes, seed)
    rng = np.random.default_rng(seed + 400)
    off = awkward_shifts(grid, rng, rng.uniform(-3.0 * grid.l, 3.0 * grid.l, 40))
    even = (grid.l / n_samples) * np.arange(n_samples)
    shifts = np.concatenate([grid.dx * np.arange(grid.n), even, off])
    for basis in (bumps, eigenfunction_stationary_basis(grid, shapes, y0)):
        ops = assemble_spod_rom(basis, shapes, y0, grid)
        table = reference_b_table(basis, shapes, grid, shifts)
        tol = 1e-12 * np.max(np.abs(table))
        rows, m = slice(0, 3 * ops.r), ops.m
        for z, B in zip(shifts, table):
            sig = ops.symbol(np.full(m, z))
            assert np.max(np.abs(ops.along(rows, sig, np.eye(m)) - B)) <= tol
            sig = ops.symbol(np.full(3 * ops.r, z))
            BT = ops.along(rows, sig, np.eye(3 * ops.r), transpose=True)
            assert np.max(np.abs(BT - B.T)) <= tol


@pytest.mark.parametrize("v", [0.55, -0.55])
@pytest.mark.parametrize("seed", [0, 1])
def test_tracking_terms_match_column_loop(v, seed):
    # the terms from the target table against the column loop fed the target
    # snapshots, on a snapshot-like and on the invariant basis, along a shift
    # path near v t with steps on, next to and far off nodes
    grid, shapes, _, y0, _, _, _ = problem(v, seed)
    profile, path, target = moving_profile(grid, seed)
    rng = np.random.default_rng(seed + 300)
    z = awkward_shifts(grid, rng, v * grid.t + rng.uniform(-3.0, 3.0, grid.n_t))
    bumps, _ = spod_operators(grid, shapes, seed)
    for basis in (bumps, eigenfunction_stationary_basis(grid, shapes, y0)):
        got = tracking_terms(target_table(basis, profile, grid), path, z, grid)
        want = reference_tracking_terms(basis, target, z, grid)
        for field in dataclasses.fields(SpodTracking):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), field.name


def spod_adjoint(ops, basis, u, target, grid):
    # the target here is any array, so its terms come from the column loop
    traj = solve_spod_state(ops, u)
    tracking = reference_tracking_terms(basis, target, traj.z, grid)
    return solve_spod_adjoint(ops, traj, u, tracking)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic past the bad column
@pytest.mark.parametrize(
    "what",
    ["state", "adjoint", "reduced state", "reduced adjoint", "spod state", "spod adjoint",
     "spod state, invariant basis", "spod adjoint, invariant basis"],
)
def test_divergence_names_first_bad_column(what):
    # a forward solve first reads control column k for step k+1; a backward
    # solve first reads target column k for step k-1. An sPOD-G sweep may stop
    # there with its own DivergenceError, SingularMassError; a non-finite shift
    # must never reach the symbol read (which would raise). On the invariant
    # basis the closed-form solves raise at the same steps.
    label, _, invariant = what.partition(", ")
    backward = label.endswith("adjoint")
    for k in (7, 81):  # column 81 makes the state's last column the bad one
        for bad in (np.inf, np.nan):
            grid, shapes, ops, y0, u, target, yd = problem(0.55, 3)
            if invariant:
                basis = eigenfunction_stationary_basis(grid, shapes, y0)
                sops = assemble_spod_rom(basis, shapes, y0, grid)
            else:
                basis, sops = spod_operators(grid, shapes, 3)
            assert sops.invariant == bool(invariant)
            (yd if label == "reduced adjoint" else target if backward else u)[:, k] = bad
            solves = {
                "state": lambda: solve_state(grid, shapes, u, y0),
                "adjoint": lambda: solve_adjoint(grid, solve_state(grid, shapes, u, y0), target),
                "reduced state": lambda: solve_pod_state(ops, u, grid),
                "reduced adjoint": lambda: solve_pod_adjoint(
                    ops, solve_pod_state(ops, u, grid), yd, grid),
                "spod state": lambda: solve_spod_state(sops, u),
                "spod adjoint": lambda: spod_adjoint(sops, basis, u, target, grid),
            }
            with pytest.raises(DivergenceError) as err:
                solves[label]()
            if type(err.value) is DivergenceError:
                assert str(err.value).startswith(f"{label} solve")
            assert err.value.step == (k - 1 if backward else k + 1)


@pytest.mark.parametrize("backward", [False, True])
def test_diverging_sweep_stops_within_its_block(backward):
    # the step that writes column `bad` overflows: the sweep runs no step past
    # the end of that block, names the column, and warns of nothing
    n_t, bad = 1000, 10
    if backward:
        bad = n_t - 1 - bad
    steps = []

    def step(x, j, nxt):
        steps.append(j)
        np.multiply(x, 1e300 if j + (-1 if backward else 1) == bad else 1.0, out=nxt)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            euler_sweep(step, np.full(3, 1e10), n_t, backward, "test")
    assert err.value.step == bad
    assert len(steps) == CHECK_EVERY


@pytest.mark.parametrize("first_singular", [0, 40])
def test_singular_mass_matrix_step_matches_schur_sweep(first_singular):
    # With M2 = N^T N + w w^T every Schur complement a^T M2 a - |N a|^2 is
    # (w . a)^2: w = 0 makes every step singular, w orthogonal to alpha_40
    # makes step 40 the first. M2 does not enter the exact solution, so the
    # closed-form state, which checks the margins of its trajectory in one
    # batch, must stop at the step where the Schur sweep stops.
    grid, shapes, _, y0, u, _, _ = problem(0.55, 0)
    ops = assemble_spod_rom(eigenfunction_stationary_basis(grid, shapes, y0), shapes, y0, grid)
    assert ops.invariant
    w = np.zeros(ops.r)
    if first_singular:
        a = solve_spod_state(ops, u).alpha[:, first_singular]
        w = np.ones(ops.r) - (np.sum(a) / (a @ a)) * a
    singular = dataclasses.replace(ops, M2=ops.N.T @ ops.N + np.outer(w, w))
    for flag in (True, False):
        with pytest.raises(SingularMassError) as err:
            solve_spod_state(dataclasses.replace(singular, invariant=flag), u)
        assert err.value.step == first_singular


@pytest.mark.parametrize("singular_step", [None, 40, 82])
def test_singular_mass_matrix_adjoint_step_matches_schur_sweep(singular_step):
    # M2 = N^T N + w w^T with w orthogonal to alpha_k makes step k the only
    # singular one, and w = 0 every step. The adjoint checks the margins of
    # the forward trajectory in one batch before its sweep and must stop where
    # the per-step sweep stops: the last singular step, as it runs backward.
    # Column n_t - 1 = 82 is one the state never solves at.
    grid, shapes, _, _, u, _, _ = problem(0.55, 0)
    basis, ops = spod_operators(grid, shapes, 0)
    profile, path, target = moving_profile(grid, 0)
    traj = solve_spod_state(ops, u)
    w = np.zeros(ops.r)
    if singular_step is not None:
        a = traj.alpha[:, singular_step]
        w = np.ones(ops.r) - (np.sum(a) / (a @ a)) * a
    singular = dataclasses.replace(ops, M2=ops.N.T @ ops.N + np.outer(w, w))
    tracking = tracking_terms(target_table(basis, profile, grid), path, traj.z, grid)
    with pytest.raises(SingularMassError) as err:
        solve_spod_adjoint(singular, traj, u, tracking)
    with pytest.raises(SingularMassError) as ref_err:
        reference_spod_adjoint(ReferenceSpodOps(singular, basis, shapes, grid), traj, u, target,
                               basis, grid)
    assert err.value.step == ref_err.value.step == (singular_step or grid.n_t - 1)


def test_spod_adjoint_rejects_control_of_wrong_shape():
    # a (m, 1) control would broadcast against the path in the batched reads
    grid, shapes, _, _, u, _, _ = problem(0.55, 0)
    basis, ops = spod_operators(grid, shapes, 0)
    profile, path, _ = moving_profile(grid, 0)
    traj = solve_spod_state(ops, u)
    tracking = tracking_terms(target_table(basis, profile, grid), path, traj.z, grid)
    with pytest.raises(ValueError, match="control"):
        solve_spod_adjoint(ops, traj, u[:, :1], tracking)
