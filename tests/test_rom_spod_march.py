"""The Schur march of the sPOD-G state against a plain loop of single
steps, and the blocked step-size search against the search trial by trial.

rom_spod.solve_spod_candidates marches the controls u - omega_k g side by
side, and solve_spod_state marches its one control with it. The plain loop
below is the per-step Schur solve solve_spod_state ran before, which sums the
step in another order, so a column of either matches it to rounding where the
mass matrix is well conditioned: there the tests ask for 1e-12 relative.
Where the Schur complement s = c - |b|^2 comes within a few orders of
rounding of its scale max(1, c, |b|^2), any change of rounding moves the
trajectory by O(1), so those columns are held only to the same Armijo
outcome. A march fails at the step at which the plain loop raises.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romctl import rom_spod
from romctl.experiments import ScenarioConfig, build_model
from romctl.fom import DivergenceError
from romctl.optimizer import (
    ARMIJO_C,
    OptimizerConfig,
    optimize,
    pointwise,
    two_way_backtracking,
)
from romctl.basis import eigenfunction_stationary_basis
from romctl.transform import snap_cells, split_shift
from romctl.rom_spod import (
    SingularMassError,
    _pairs,
    assemble_spod_rom,
    solve_spod_candidates,
    solve_spod_state,
)

from conftest import (
    armijo,
    bare_problem,
    cost_at,
    evaluated_cost,
    reference_backtracking,
    reference_blocks,
    smooth_signal,
    trial_march,
)
from test_euler_sweep import problem, schur_solve, spod_operators

DESK = dict(l=100.0, n=401, n_t=300, T=136.02357742008616, v=0.55, xi=5)


def plain_spod_state(ops, u):
    """The Schur march of one control as a plain loop of single steps, as
    solve_spod_state ran it before it marched its control as a block of one:
    SingularMassError at the first step whose column is not finite or whose
    mass matrix is not regular, DivergenceError when only the last column is
    not finite."""
    grid = ops.grid
    dt, v, r, n_t = grid.dt, grid.v, ops.r, grid.n_t
    b0, B = ops.B0[: 2 * r, 0], ops.B0[: 2 * r, 1:]
    u_pairs = _pairs(u)
    x = np.empty((r + 1, n_t), order="F")
    x[:, 0] = np.append(ops.alpha0, 0.0)
    with np.errstate(all="ignore"):
        for j in range(n_t - 1):
            a, z = x[:r, j], float(x[r, j])
            if not math.isfinite(z):
                raise SingularMassError(j, "non-finite shift")
            sig = ops.symbol(np.array([z]))[0]
            Bu = b0 * u[0, j] + B @ (np.conj(sig) * u_pairs[j]).view(float)
            b = ops.N @ a
            c = float(a @ (ops.M2 @ a))
            da, dz = schur_solve(b, c, v * b + Bu[:r], v * c + float(a @ Bu[r:]), j)
            nxt_a = np.multiply(da, dt, out=x[:r, j + 1])
            nxt_a += a
            x[r, j + 1] = z + dt * dz
    if not np.all(np.isfinite(x[:, -1])):
        raise DivergenceError(n_t - 1, "spod state")
    return np.ascontiguousarray(x[:r]), x[r].copy()


def schur_margin(ops, alpha):
    """min over the steps of s / max(1, c, |b|^2) along a trajectory."""
    b = ops.N @ alpha[:, :-1]
    c = np.einsum("rj,rj->j", alpha[:, :-1], ops.M2 @ alpha[:, :-1])
    bb = np.einsum("rj,rj->j", b, b)
    return float(np.min((c - bb) / np.maximum(np.maximum(c, bb), 1.0)))


def rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def desk_model(u_amp=1e-3, seed=3):
    """The desk sPOD-G with 8 snapshot modes refreshed at a smooth control, its
    cost and gradient there."""
    model = build_model(ScenarioConfig(model="spod", modes=8, **DESK))
    p = model.problem
    u = smooth_signal(np.random.default_rng(seed), p.shapes.m, p.grid.n_t, u_amp)
    model.refine_basis(u)
    assert not model.ops.invariant
    cost, g = model.evaluate(u)
    return model, u, g, cost.total


def bumps_case(seed):
    grid, shapes, _, _, u, _, _ = problem(0.55, seed)
    _, ops = spod_operators(grid, shapes, seed)
    g = smooth_signal(np.random.default_rng(seed + 50), shapes.m, grid.n_t, 0.3)
    return ops, u, g


def check_columns(ops, u, g, omegas):
    """Each column, and the march of its control alone (K = 1), against the
    plain loop: within 1e-12 relative where the Schur margin stays above 1e-2,
    failed where the plain loop fails; returns how many columns were held to
    1e-12."""
    n_t = ops.grid.n_t
    block = solve_spod_candidates(ops, u, g, omegas)
    assert block.alpha.shape == (len(omegas), ops.r, n_t)
    held = 0
    for k, w in enumerate(omegas):
        try:
            alpha, z = plain_spod_state(ops, u - w * g)
        except DivergenceError:
            assert block.failed_at[k] < n_t, w
            with pytest.raises(DivergenceError):
                solve_spod_state(ops, u - w * g)
            continue
        if schur_margin(ops, alpha) >= 1e-2:
            held += 1
            assert block.failed_at[k] == n_t, w
            traj = solve_spod_state(ops, u - w * g)
            for got_alpha, got_z in ((block.alpha[k], block.z[k]), (traj.alpha, traj.z)):
                assert rel(got_alpha, alpha) <= 1e-12, w
                assert rel(got_z, z) <= 1e-12, w
    return held


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_columns_match_single_marches(seed):
    omegas = [1.0, 0.5, 2.0, 4.0] + [2.0**-k for k in range(2, 14)]
    ops, u, g = bumps_case(seed)
    assert check_columns(ops, u, g, omegas[:4]) + check_columns(ops, u, g, omegas) > 0
    model, u, g, _ = desk_model(seed=seed)
    assert check_columns(model.ops, u, g, omegas) > 0


@pytest.mark.parametrize("u_amp, seed", [(1e-3, 3), (1e-2, 4), (5e-2, 5)])
def test_the_march_reads_the_split_of_its_path(u_amp, seed, monkeypatch):
    # each step of solve_spod_state reads the cells and fraction split_shift
    # gives its shift, which the cost, the adjoint, the gradient and the lift
    # read along traj.z: bitwise, on desk trajectories
    model, u, _, _ = desk_model(u_amp, seed)
    read = []

    def recording(s):
        c, f = snap_cells(s)
        read.append((c.copy(), f.copy()))
        return c, f

    monkeypatch.setattr(rom_spod, "snap_cells", recording)
    traj = solve_spod_state(model.ops, u)
    grid = model.ops.grid
    c, f = (np.concatenate(a) for a in zip(*read))
    k, frac = split_shift(traj.z[:-1], grid)  # the steps solve at columns 0 .. n_t - 2
    assert np.array_equal(c % grid.n, k) and np.array_equal(f, frac)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_costs_keep_every_armijo_outcome(seed):
    model, u, g, cost = desk_model(seed=seed)
    g_sq = model.signal_weight * float(np.sum(g * g))
    batched = model.line_cost(u, g, cost)
    trials = trial_march(evaluated_cost(model), u, g)
    outcomes = set()
    for w in [2.0**k for k in range(-24, 8)]:
        ok = armijo(trials, w, cost, g_sq)
        assert armijo(batched, w, cost, g_sq) == ok, w
        outcomes.add(ok)
        traj = solve_spod_state(model.ops, u - w * g)
        if schur_margin(model.ops, traj.alpha) >= 1e-2:
            assert cost_at(batched, w) == pytest.approx(cost_at(trials, w), rel=1e-12, abs=0.0)
    assert outcomes == {True, False}


def singular_ops(ops, a):
    """ops with M2 = N^T N + w w^T, w orthogonal to a: every Schur complement is
    (w . alpha)^2, zero at a state with amplitudes a (w = 0 when a is None)."""
    w = np.zeros(ops.r) if a is None else np.ones(ops.r) - (np.sum(a) / (a @ a)) * a
    return dataclasses.replace(ops, M2=ops.N.T @ ops.N + np.outer(w, w))


def check_survivors(ops, u, g, omegas, block):
    """The candidates that did not fail against the plain loop; returns how
    many were held to 1e-12."""
    held = 0
    for k, w in enumerate(omegas):
        if block.failed_at[k] < ops.grid.n_t:
            continue
        assert np.all(np.isfinite(block.alpha[k])) and np.all(np.isfinite(block.z[k]))
        alpha, z = plain_spod_state(ops, u - w * g)
        if schur_margin(ops, alpha) >= 1e-2:
            held += 1
            assert rel(block.alpha[k], alpha) <= 1e-12, w
            assert rel(block.z[k], z) <= 1e-12, w
    return held


def plain_failure(ops, u):
    """The DivergenceError the plain loop raises for the control u."""
    with pytest.raises(DivergenceError) as err:
        plain_spod_state(ops, u)
    return err.value


def test_a_singular_candidate_fails_alone():
    # On the invariant basis the Schur march moves along z = v t, a' = B1(v t) u
    # whatever M2 is, so M2 = N^T N + w w^T with w orthogonal to alpha_40 of the
    # control u makes step 40 of omega = 0 singular, and no other candidate's.
    grid, shapes, _, y0, u, _, _ = problem(0.55, 0)
    basis = eigenfunction_stationary_basis(grid, shapes, y0)
    ops = dataclasses.replace(assemble_spod_rom(basis, bare_problem(grid, shapes, y0)),
                              invariant=False)
    sing = singular_ops(ops, solve_spod_state(ops, u).alpha[:, 40])
    with pytest.raises(SingularMassError) as err:
        solve_spod_state(sing, u)
    assert err.value.step == 40
    g = smooth_signal(np.random.default_rng(7), shapes.m, grid.n_t, 0.3)
    omegas = [0.25, 0.0, 0.5, 1.0]
    block = solve_spod_candidates(sing, u, g, omegas)
    assert list(block.failed_at) == [grid.n_t, 40, grid.n_t, grid.n_t]
    err = plain_failure(sing, u)
    assert type(err) is SingularMassError and err.step == 40
    assert check_survivors(sing, u, g, omegas, block) == 3
    # a block whose every candidate fails ends with all of them failed at step 0
    every = singular_ops(ops, None)
    assert list(solve_spod_candidates(every, u, g, omegas).failed_at) == [0] * 4
    assert plain_failure(every, u).step == 0


def test_a_diverging_candidate_fails_alone():
    ops, u, g = bumps_case(0)
    with pytest.raises(DivergenceError):
        solve_spod_state(ops, u - 1e200 * g)
    omegas = [0.25, math.inf, 0.5, 1e200, 1.0]
    block = solve_spod_candidates(ops, u, g, omegas)
    n_t = ops.grid.n_t
    failed = [plain_failure(ops, u - w * g).step for w in omegas[1::2]]
    assert list(block.failed_at) == [n_t, failed[0], n_t, failed[1], n_t]
    assert check_survivors(ops, u, g, omegas, block) > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic past the bad column
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("k", [0, 62, 63, 64, 81])
def test_state_fails_where_the_plain_loop_raises(k, bad):
    # a non-finite control column k poisons state column k + 1: k = 0 and 62
    # a column the first block of 64 steps writes and reads, 63 the last
    # column it writes, which the next block reads first, 64 the first column
    # the next block writes, and 81 the last column of the horizon (n_t = 83),
    # at which no step solves, so the state raises a plain DivergenceError
    ops, u, _ = bumps_case(1)
    u[:, k] = bad
    want = plain_failure(ops, u)
    with pytest.raises(DivergenceError) as err:
        solve_spod_state(ops, u)
    assert type(err.value) is type(want) and err.value.step == want.step == k + 1


def test_batched_march_rejects_zero_initial_amplitudes():
    # every mass matrix of zero amplitudes is singular: the march fails each
    # candidate at step 0, quietly, and the state raises there
    ops, u, g = bumps_case(0)
    zero = dataclasses.replace(ops, alpha0=np.zeros(ops.r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = solve_spod_candidates(zero, u, g, [0.5, 1.0, 2.0])
    assert list(block.failed_at) == [0, 0, 0]
    with pytest.raises(SingularMassError) as err:
        solve_spod_state(zero, u)
    assert err.value.step == 0


def trials_and_evals(report):
    return [r.trials for r in report.records], [r.evals for r in report.records]


@pytest.mark.filterwarnings("ignore:requested 8 modes")  # the refresh at u = 0 has rank 1
def test_batched_search_repeats_the_trial_search_bitwise():
    cfg = OptimizerConfig(n_iter=40)
    batched = build_model(ScenarioConfig(model="spod", modes=8, **DESK))
    trials = build_model(ScenarioConfig(model="spod", modes=8, **DESK))
    trials.line_cost = lambda u, g, cost: trial_march(evaluated_cost(trials), u, g)
    u0 = np.zeros((batched.problem.shapes.m, batched.problem.grid.n_t))
    u_b, rep_b = optimize(batched, u0, cfg)
    u_t, rep_t = optimize(trials, u0, cfg)
    assert rep_b.iterations == rep_t.iterations == 40
    assert [r.omega for r in rep_b.records] == [r.omega for r in rep_t.records]
    assert [r.total for r in rep_b.records] == [r.total for r in rep_t.records]
    assert np.array_equal(u_b, u_t)
    trials_b, evals_b = trials_and_evals(rep_b)
    trials_t, evals_t = trials_and_evals(rep_t)
    assert trials_b == trials_t
    # trial by trial each tested step size is one solve; a block of them is one
    assert evals_t == [1 + t for t in trials_t]
    assert all(1 < e <= 1 + t for e, t in zip(evals_b, trials_b))
    assert sum(evals_b) < sum(evals_t)


@settings(max_examples=300, deadline=None)
@given(
    passes=st.dictionaries(st.integers(-1100, 1100), st.booleans()),
    default=st.booleans(),
    first=st.one_of(st.floats(min_value=5e-324, max_value=1e300), st.sampled_from([1.0, 5e-324])),
    failure=st.sampled_from([math.inf, math.nan, 2.0]),
)
def test_block_guess_never_changes_the_search(passes, default, first, failure):
    # a random cost sequence: the cost at w passes or fails the Armijo test as
    # drawn for the binary exponent of w, and fails with a non-finite cost or
    # with one above the current cost
    g, cost = np.array([1.0]), 1.0

    def f(w):
        if passes.get(math.frexp(w)[1], default):
            return cost - 2.0 * ARMIJO_C * w
        return failure

    def recording(marches):
        def march(ws):
            marches.append(list(ws))
            return lambda k: f(ws[k])
        return march

    marches, guessed = [], []
    search = two_way_backtracking(recording(marches), g, first, cost)
    assert search == reference_backtracking(reference_blocks(recording(guessed)), g, first, cost)
    # the search marches the blocks the reference guessed, step size for step size
    assert marches == guessed
    assert search == reference_backtracking(f, g, first, cost)
    assert two_way_backtracking(pointwise(f), g, first, cost) == search
    trials = search[2]
    # the first two step sizes read share the first march
    assert 1 <= len(marches) <= max(1, trials - 1)
    assert all(len(ws) <= 16 for ws in marches)
