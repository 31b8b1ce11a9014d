import math
import time

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes, rom_spod
from romctl.basis import ModeRule
from romctl.experiments import (
    ScenarioConfig,
    build_model,
    build_target,
    gaussian_initial_condition,
    single_tilt_target,
)
from romctl.fom import CostBreakdown, DivergenceError
from romctl.models import ControlProblem, FomModel, PodModel, SpodModel
from romctl.optimizer import (
    MAX_BLOCK,
    MAX_HALVINGS,
    ControlledModel,
    OptimizerConfig,
    Refresh,
    barzilai_borwein_step,
    optimize,
    pointwise,
    refinement_policy,
    two_way_backtracking,
)
from romctl.rom_spod import SingularMassError

from conftest import QuadraticModel, cost_at, evaluated_cost, smooth_signal, trial_march


def quad_cfg(**kw):
    base = dict(beta=1e-5, n_iter=2000)
    base.update(kw)
    return OptimizerConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        quad_cfg(omega0=-1.0)
    with pytest.raises(ValueError):
        quad_cfg(n_iter=0)


def test_backtracking_accepts_near_exact_minimizer():
    # step cost of a 1d quadratic with unit curvature: the unit step is exact
    f = lambda w: 0.5 * (1.0 - w) ** 2
    omega, ok, trials = two_way_backtracking(pointwise(f), np.array([1.0]), 1.0, current_cost=0.5)
    assert ok
    assert omega == pytest.approx(1.0)
    assert trials == 2  # the unit step, then the doubled one that fails


def test_backtracking_halves_on_increasing_cost():
    f = lambda w: 0.5 - w + 400.0 * w**2  # decrease only for small steps
    omega, ok, trials = two_way_backtracking(pointwise(f), np.array([1.0]), 1.0, current_cost=0.5)
    assert ok
    assert omega < 0.01
    assert trials == 10  # 1, then halvings down to the accepted 2^-9


def test_backtracking_doubles_after_undershoot():
    f = lambda w: 0.5 * (1.0 - w) ** 2
    omega, ok, trials = two_way_backtracking(pointwise(f), np.array([1.0]), 1e-3, current_cost=0.5)
    assert ok
    assert omega >= 2e-3
    assert trials == 12  # 1e-3, ten doublings up to 1.024, the failed 2.048


def test_backtracking_reports_failure():
    f = lambda w: math.inf
    omega, ok, trials = two_way_backtracking(pointwise(f), np.array([1.0]), 1.0, current_cost=0.5)
    assert not ok
    assert trials == 1 + MAX_HALVINGS


def test_bb_step_trivial_and_curvature():
    s = np.full((2, 3), 0.7)
    assert barzilai_borwein_step(s, s, prev_omega=9.0) == pytest.approx(1.0)
    c = 4.0
    assert barzilai_borwein_step(s, c * s, prev_omega=9.0) == pytest.approx(1.0 / c)


def test_bb_step_fallback_and_clamp():
    s = np.ones((1, 4))
    assert barzilai_borwein_step(s, -s, prev_omega=0.25) == 0.25
    assert barzilai_borwein_step(s, 1e-9 * s, prev_omega=1.0) == 1e3
    assert barzilai_borwein_step(s, 1e12 * s, prev_omega=1.0) == 1e-8


def test_refinement_policy():
    cfg = quad_cfg()
    assert refinement_policy(5, True, cfg)
    assert not refinement_policy(7, True, cfg)
    assert refinement_policy(7, False, cfg)


def test_quadratic_converges_to_known_optimum():
    u_star = np.linspace(-1.0, 1.0, 30).reshape(3, 10)
    model = QuadraticModel(u_star, np.ones(30).reshape(3, 10))
    u, rep = optimize(model, np.zeros((3, 10)), quad_cfg())
    assert rep.status == "converged"
    assert rep.iterations <= 200
    assert np.max(np.abs(u - u_star)) < 1e-4
    assert rep.records[0].rel_grad_norm == 1.0


@pytest.mark.parametrize("kind", ["quadratic", "spod"])
def test_a_converged_run_returns_the_control_it_evaluated_last(kind):
    # the control whose gradient passed the test, not one step past it
    if kind == "quadratic":
        model = QuadraticModel(np.linspace(-1.0, 1.0, 30).reshape(3, 10),
                               np.linspace(1.0, 10.0, 30).reshape(3, 10))
        u0, cfg = np.zeros((3, 10)), quad_cfg()
    else:
        problem = small_problem(0.55)
        model = SpodModel(problem, ModeRule.fixed(4))
        u0, cfg = np.zeros((problem.shapes.m, problem.grid.n_t)), quad_cfg(beta=0.5)
    u, rep = optimize(model, u0, cfg)
    assert rep.status == "converged" and rep.iterations > 1
    assert model.evaluate(u)[0].total == rep.final_cost


def test_infinite_beta_stops_after_one_iteration():
    model = QuadraticModel(np.ones((2, 2)), np.ones((2, 2)))
    _, rep = optimize(model, np.zeros((2, 2)), quad_cfg(beta=math.inf))
    assert rep.status == "converged"
    assert rep.iterations == 1


def test_bb_phase_accelerates_ill_conditioned_quadratic():
    h = np.linspace(1.0, 100.0, 50).reshape(5, 10)
    u_star = np.ones((5, 10))
    with_bb = optimize(QuadraticModel(u_star, h), np.zeros((5, 10)),
                       quad_cfg(n_iter=5000))[1]
    without = optimize(QuadraticModel(u_star, h), np.zeros((5, 10)),
                       quad_cfg(n_iter=5000, bb_switch_threshold=0.0))[1]
    assert with_bb.status == without.status == "converged"
    assert without.iterations >= 2 * with_bb.iterations


def test_cost_monotone_under_pure_backtracking():
    h = np.linspace(1.0, 60.0, 40).reshape(4, 10)
    model = QuadraticModel(np.ones((4, 10)), h)
    _, rep = optimize(model, np.zeros((4, 10)), quad_cfg(bb_switch_threshold=0.0))
    costs = [r.total for r in rep.records]
    assert np.all(np.diff(costs) < 0)


def test_determinism():
    h = np.linspace(1.0, 10.0, 20).reshape(2, 10)
    model_a = QuadraticModel(np.ones((2, 10)), h)
    model_b = QuadraticModel(np.ones((2, 10)), h)
    _, ra = optimize(model_a, np.zeros((2, 10)), quad_cfg())
    _, rb = optimize(model_b, np.zeros((2, 10)), quad_cfg())
    assert [r.total for r in ra.records] == [r.total for r in rb.records]


class _RefreshLog(QuadraticModel):
    """Returns a new Refresh, with a new mode count, on each refresh, and
    keeps it under the iteration that asked for it."""

    def __init__(self, u_star, hessian_diag):
        super().__init__(u_star, hessian_diag)
        self.evaluations = 0
        self.returned = {}

    def refine_basis(self, u):
        refresh = Refresh(len(self.returned) + 1, np.arange(3.0))
        self.returned[self.evaluations + 1] = refresh  # the optimizer evaluates once per iteration
        return refresh

    def evaluate(self, u):
        self.evaluations += 1
        return super().evaluate(u)


def test_records_hold_the_refresh_of_their_iteration():
    model = _RefreshLog(np.ones((2, 5)), np.linspace(1.0, 10.0, 10).reshape(2, 5))
    _, rep = optimize(model, np.zeros((2, 5)), quad_cfg(n_iter=12, beta=0.0, refine_every=4))
    assert rep.iterations == 12
    assert sorted(model.returned) == [1, 4, 8, 12]
    for rec in rep.records:
        assert rec.refresh is model.returned.get(rec.iteration)
        # the mode count of the latest refresh carries over to the rows between refreshes
        latest = max(i for i in model.returned if i <= rec.iteration)
        assert rec.modes == model.returned[latest].modes


class _SleepyModel(ControlledModel):
    """Burns a fixed slice of wall time in each phase for timing tests."""

    def __init__(self, pause=0.002):
        self.pause = pause

    def refine_basis(self, u):
        time.sleep(self.pause)
        return Refresh(1, None)

    def evaluate(self, u):
        for phase in ("state", "cost", "adjoint", "gradient"):
            with self.phase(phase):
                time.sleep(self.pause)
        return CostBreakdown(tracking=float(np.sum(u * u)), regularization=0.0), 2.0 * u

    def line_cost(self, u, g, cost):
        return trial_march(evaluated_cost(self), u, g)


def test_phase_timings_cover_iteration_wall_time():
    model = _SleepyModel()
    _, rep = optimize(model, np.ones((2, 5)), quad_cfg(n_iter=10, beta=0.0))
    for rec in rep.records:
        total = sum(rec.timings.values())
        assert total <= rec.wall * 1.10
        assert total >= rec.wall * 0.5


class _ExplodingModel(ControlledModel):
    def __init__(self, error):
        self.error = error
        self.calls = 0
        self.refreshes = 0

    def refine_basis(self, u):
        self.refreshes += 1
        return Refresh(1, None)

    def evaluate(self, u):
        self.calls += 1
        if self.calls >= 3:
            raise self.error
        return CostBreakdown(tracking=float(np.sum(u * u)), regularization=0.0), 2.0 * u

    def line_cost(self, u, g, cost):
        # the trials leave the count of evaluations alone
        return trial_march(lambda v: float(np.sum(v * v)), u, g)


def test_divergence_sets_status_and_keeps_report():
    for error in (DivergenceError(7, "state"), SingularMassError(7, "Schur complement 0")):
        _, rep = optimize(_ExplodingModel(error), np.ones((1, 3)),
                          quad_cfg(n_iter=50, beta=0.0))
        assert rep.status == "diverged"
        assert rep.iterations == 2
    # iteration 3 refreshes, then its evaluation diverges: that refresh leaves no record
    model = _ExplodingModel(DivergenceError(7, "state"))
    _, rep = optimize(model, np.ones((1, 3)), quad_cfg(n_iter=50, beta=0.0, refine_every=3))
    assert rep.status == "diverged"
    assert model.refreshes == 2
    assert [r.iteration for r in rep.records if r.refresh is not None] == [1]


def test_callback_sees_each_record_and_the_control_after_its_step():
    model = QuadraticModel(np.ones((2, 4)), np.linspace(1.0, 8.0, 8).reshape(2, 4))
    seen = []
    u, rep = optimize(model, np.zeros((2, 4)), quad_cfg(n_iter=6, beta=0.0),
                      callback=lambda rec, u: seen.append((rec, u)))
    assert len(seen) == rep.iterations == 6
    assert all(rec is kept for (rec, _), kept in zip(seen, rep.records))
    # at the budget's end the returned control is the one after the last step
    assert seen[-1][1] is u
    for (rec, after), (_, before) in zip(seen[1:], seen):
        g = model.evaluate(before)[1]
        assert np.array_equal(after, before - rec.omega * g)


# --- the step-size search of the linear-quadratic models ---------------------

def trial_search(model):
    """Give the model the oracle search: one evaluation per step size."""
    model.line_cost = lambda u, g, cost: trial_march(evaluated_cost(model), u, g)
    return model


def count_evaluate(model):
    """Count the model's evaluate calls in model.evaluate_calls."""
    model.evaluate_calls = 0
    inner = model.evaluate

    def counted(u):
        model.evaluate_calls += 1
        return inner(u)

    model.evaluate = counted
    return model


def count_trials(model):
    """Count the step sizes the search reads in model.search_trials."""
    model.search_trials = 0
    inner = model.line_cost

    def line_cost(u, g, cost):
        march = inner(u, g, cost)

        def counted(ws):
            price = march(ws)

            def read(k):
                model.search_trials += 1
                return price(k)

            return read

        return counted

    model.line_cost = line_cost
    return model


def trials_column(report):
    return [r.trials for r in report.records]


def evals_column(report):
    return [r.evals for r in report.records]


def small_problem(v):
    n, n_t = 101, 60
    grid = SpaceTimeGrid(l=100.0, n=n, T=n_t * 0.9 * (100.0 / n) / abs(v), n_t=n_t, v=v)
    shapes = build_fourier_shapes(grid, 1)
    y0 = gaussian_initial_condition(grid)
    spec = single_tilt_target(0.0, v)
    target = build_target(grid, y0, spec)
    return ControlProblem(grid, shapes, y0, target, spec.displacement(grid.t, grid), 1e-3)


def quadratic_model(kind, problem):
    """A linear-quadratic model of the problem: the FOM, POD-G on a snapshot
    basis, or sPOD-G on the invariant basis, with its basis built."""
    if kind == "fom":
        return FomModel(problem)
    if kind == "spod":
        model = SpodModel(problem, ModeRule.fixed(4), eigenfunction_basis=True)
    else:
        model = PodModel(problem, ModeRule.fixed(6))
    rng = np.random.default_rng(7)
    model.refine_basis(smooth_signal(rng, problem.shapes.m, problem.grid.n_t, 0.5))
    return model


def assert_prices_alike(parabola, trial, cost, kind):
    """The parabola prices a step size as its trial solve does, within 1e-12
    relative. Only on the invariant sPOD-G may the trial fail, at a Schur
    margin that amplitudes far above the control's break, and there the
    parabola fails the Armijo test too."""
    if math.isinf(trial) and kind == "spod":
        assert parabola > cost
    else:
        assert parabola == pytest.approx(trial, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("v", [0.55, -0.55])
@pytest.mark.parametrize("kind", ["fom", "pod", "spod"])
def test_closed_form_line_cost_matches_trial_solves(kind, v):
    problem = small_problem(v)
    model = quadratic_model(kind, problem)
    grid, m = problem.grid, problem.shapes.m
    rng = np.random.default_rng(11)
    steps = [2.0**k for k in range(-10, 11)]
    for _ in range(3):
        u = smooth_signal(rng, m, grid.n_t, rng.uniform(0.1, 1.0))
        cost, g = model.evaluate(u)
        closed = model.line_cost(u, g, cost.total)
        trial = trial_march(evaluated_cost(model), u, g)
        for w in steps:
            assert_prices_alike(cost_at(closed, w), cost_at(trial, w), cost.total, kind)
        # along any direction d the cost is J - w <grad, d> + w^2/2 (c(d) + mu dt |d|^2)
        d = smooth_signal(rng, m, grid.n_t, rng.uniform(0.1, 1.0))
        slope = grid.dt * float(np.sum(g * d))
        curvature = model.tracking_curvature(d) + problem.mu * grid.dt * float(np.sum(d * d))
        along = trial_march(evaluated_cost(model), u, d)
        for w in steps:
            expected = cost.total - w * slope + 0.5 * w * w * curvature
            assert_prices_alike(expected, cost_at(along, w), cost.total, kind)


def desk_model(kind):
    base = dict(l=100.0, n=401, n_t=300, T=136.02357742008616, v=0.55, xi=5)
    if kind == "fom":
        return build_model(ScenarioConfig(model="fom", **base))
    if kind == "spod":
        return build_model(ScenarioConfig(model="spod", eigenfunction_basis=True, **base))
    return build_model(ScenarioConfig(model="pod", mode_tol=1e-6, problem="double_tilt", **base))


@pytest.mark.parametrize("kind", ["fom", "pod", "spod"])
def test_closed_form_search_repeats_the_trial_search_bitwise(kind):
    cfg = OptimizerConfig(n_iter=32)
    closed = count_trials(count_evaluate(desk_model(kind)))
    trials = count_evaluate(trial_search(desk_model(kind)))
    m, n_t = closed.problem.shapes.m, closed.problem.grid.n_t
    u_closed, rep_closed = optimize(closed, np.zeros((m, n_t)), cfg)
    u_trials, rep_trials = optimize(trials, np.zeros((m, n_t)), cfg)
    assert rep_closed.iterations == rep_trials.iterations == 32
    assert [r.omega for r in rep_closed.records] == [r.omega for r in rep_trials.records]
    assert [r.total for r in rep_closed.records] == [r.total for r in rep_trials.records]
    assert np.array_equal(u_closed, u_trials)
    assert closed.evaluate_calls == rep_closed.iterations
    assert trials_column(rep_closed) == trials_column(rep_trials)
    assert sum(trials_column(rep_closed)) == closed.search_trials
    n_iter = rep_trials.iterations
    assert n_iter + sum(trials_column(rep_trials)) == trials.evaluate_calls > n_iter


def test_schur_search_marches_blocks_of_the_step_sizes_it_reads(monkeypatch):
    # the Schur path is nonlinear: each step size the search reads is priced
    # from a march of a block of them, and a block is fewer marches than reads;
    # solve_spod_state marches its one control as the block [0.0], not counted
    marches = []
    march = rom_spod.solve_spod_candidates

    def counted(ops, u, g, omegas):
        if omegas != [0.0]:
            marches.append(len(omegas))
        return march(ops, u, g, omegas)

    monkeypatch.setattr(rom_spod, "solve_spod_candidates", counted)
    problem = small_problem(0.55)
    model = count_trials(count_evaluate(SpodModel(problem, ModeRule.fixed(4))))
    u0 = np.zeros((problem.shapes.m, problem.grid.n_t))
    _, rep = optimize(model, u0, quad_cfg(n_iter=6, beta=0.0, bb_switch_threshold=0.0))
    assert rep.iterations == 6
    assert not model.ops.invariant and model.evaluate_calls == rep.iterations
    assert sum(trials_column(rep)) == model.search_trials
    assert 0 < len(marches) < model.search_trials
    assert max(marches) <= MAX_BLOCK
    # each march is one state solve of its iteration, with the evaluation
    assert sum(evals_column(rep)) == rep.iterations + len(marches)


@pytest.mark.parametrize("kind", ["fom", "pod", "spod"])
def test_evals_count_the_state_solves_of_each_iteration(kind):
    # a closed-form search solves once along the direction, whatever it
    # reads; a Barzilai-Borwein step solves nothing more
    problem = small_problem(0.55)
    model = quadratic_model(kind, problem)
    u0 = np.zeros((problem.shapes.m, problem.grid.n_t))
    _, rep = optimize(model, u0, quad_cfg(n_iter=12, beta=0.0, bb_switch_threshold=1.0))
    trials, evals = trials_column(rep), evals_column(rep)
    assert 0 in trials and max(trials) > 0
    assert evals == [1 + (t > 0) for t in trials]


class _DivergingDirection(FomModel):
    def tracking_curvature(self, g):
        raise DivergenceError(3, "state")


class _OverflowingDirection(SpodModel):
    def tracking_curvature(self, g):
        return super().tracking_curvature(1e300 * g)  # its curvature overflows


class _DivergingTrials(FomModel):
    """The oracle search, each trial of which diverges; the evaluation at u does not."""

    def line_cost(self, u, g, cost):
        def diverging(v):
            raise DivergenceError(3, "state")

        return trial_march(diverging, u, g)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("kind", ["fom", "spod"])
def test_diverging_direction_solve_fails_the_search(kind):
    problem = small_problem(0.55)
    u0 = np.zeros((problem.shapes.m, problem.grid.n_t))
    cfg = quad_cfg(n_iter=4, beta=0.0)
    if kind == "fom":
        model = _DivergingDirection(problem)
    else:
        model = _OverflowingDirection(problem, ModeRule.fixed(4), eigenfunction_basis=True)
    _, rep = optimize(model, u0, cfg)
    _, ref = optimize(_DivergingTrials(problem), u0, cfg)
    assert rep.status == ref.status == "max_iter"
    assert rep.iterations == 4
    # every search fails after testing each halving, as when every trial diverges
    assert [r.omega for r in rep.records] == [r.omega for r in ref.records]
    assert trials_column(rep) == trials_column(ref) == [31] * 4
    with pytest.raises(DivergenceError):  # a non-finite curvature raises, not returns
        model.tracking_curvature(model.evaluate(u0)[1])


def test_trials_column_counts_the_search_trials():
    h = np.linspace(1.0, 100.0, 50).reshape(5, 10)
    model = count_trials(QuadraticModel(np.ones((5, 10)), h))
    _, rep = optimize(model, np.zeros((5, 10)), quad_cfg(n_iter=5000))
    column = trials_column(rep)
    assert sum(column) == model.search_trials
    # Barzilai-Borwein steps test no step size
    assert 0 in column and column[0] > 0
