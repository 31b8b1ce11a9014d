import csv
import math
import time
import types

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes, spod_batch
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
    barzilai_borwein_step,
    optimize,
    refinement_policy,
    two_way_backtracking,
)
from romctl.rom_spod import SingularMassError

from conftest import QuadraticModel, smooth_signal


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
    omega, ok, trials = two_way_backtracking(f, np.array([1.0]), 1.0, current_cost=0.5)
    assert ok
    assert omega == pytest.approx(1.0)
    assert trials == 2  # the unit step, then the doubled one that fails


def test_backtracking_halves_on_increasing_cost():
    f = lambda w: 0.5 - w + 400.0 * w**2  # decrease only for small steps
    omega, ok, trials = two_way_backtracking(f, np.array([1.0]), 1.0, current_cost=0.5)
    assert ok
    assert omega < 0.01
    assert trials == 10  # 1, then halvings down to the accepted 2^-9


def test_backtracking_doubles_after_undershoot():
    f = lambda w: 0.5 * (1.0 - w) ** 2
    omega, ok, trials = two_way_backtracking(f, np.array([1.0]), 1e-3, current_cost=0.5)
    assert ok
    assert omega >= 2e-3
    assert trials == 12  # 1e-3, ten doublings up to 1.024, the failed 2.048


def test_backtracking_reports_failure():
    f = lambda w: math.inf
    omega, ok, trials = two_way_backtracking(f, np.array([1.0]), 1.0, current_cost=0.5)
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


class _SleepyModel(ControlledModel):
    """Burns a fixed slice of wall time in each phase for timing tests."""

    def __init__(self, pause=0.002):
        self.pause = pause

    def refine_basis(self, u):
        time.sleep(self.pause)
        return 1

    def cost_only(self, u):
        time.sleep(self.pause)
        return CostBreakdown(tracking=float(np.sum(u * u)), regularization=0.0)

    def evaluate(self, u):
        for phase in ("state", "cost", "adjoint", "gradient"):
            with self.phase(phase):
                time.sleep(self.pause)
        return CostBreakdown(tracking=float(np.sum(u * u)), regularization=0.0), 2.0 * u


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

    def refine_basis(self, u):
        return 1

    def cost_only(self, u):
        return CostBreakdown(tracking=float(np.sum(u * u)), regularization=0.0)

    def evaluate(self, u):
        self.calls += 1
        if self.calls >= 3:
            raise self.error
        return self.cost_only(u), 2.0 * u


def test_divergence_sets_status_and_keeps_report():
    for error in (DivergenceError(7, "state"), SingularMassError(7, "Schur complement 0")):
        _, rep = optimize(_ExplodingModel(error), np.ones((1, 3)),
                          quad_cfg(n_iter=50, beta=0.0))
        assert rep.status == "diverged"
        assert rep.iterations == 2


def test_stream_csv(tmp_path):
    model = QuadraticModel(np.ones((2, 4)), np.ones((2, 4)))
    path = tmp_path / "iters.csv"
    optimize(model, np.zeros((2, 4)), quad_cfg(), stream=path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("iteration,J,tracking,regularization")
    assert len(lines) >= 2


# --- the step-size search of the linear-quadratic models ---------------------

def trial_search(model):
    """Give the model the base-class search: one cost_only trial per step size."""
    model.line_cost = types.MethodType(ControlledModel.line_cost, model)
    return model


def count_cost_only(model):
    """Count the model's cost_only calls in model.cost_only_calls."""
    model.cost_only_calls = 0
    inner = model.cost_only

    def counted(u):
        model.cost_only_calls += 1
        return inner(u)

    model.cost_only = counted
    return model


def count_trials(model):
    """Count the step sizes the search tests in model.search_trials."""
    model.search_trials = 0
    inner = model.line_cost

    def line_cost(u, g, cost):
        f = inner(u, g, cost)

        def counted(w):
            model.search_trials += 1
            return f(w)

        return counted

    model.line_cost = line_cost
    return model


def trials_column(path):
    with open(path, newline="") as fh:
        return [int(row["trials"]) for row in csv.DictReader(fh)]


def evals_column(path):
    with open(path, newline="") as fh:
        return [int(row["evals"]) for row in csv.DictReader(fh)]


def small_problem(v):
    n, n_t = 101, 60
    grid = SpaceTimeGrid(l=100.0, n=n, T=n_t * 0.9 * (100.0 / n) / abs(v), n_t=n_t, v=v)
    shapes = build_fourier_shapes(grid, 1)
    y0 = gaussian_initial_condition(grid)
    spec = single_tilt_target(0.0, v)
    target = build_target(grid, y0, spec)
    return ControlProblem(grid, shapes, y0, target, spec.displacement(grid.t, grid), 1e-3)


def quadratic_model(kind, problem):
    if kind == "fom":
        return FomModel(problem)
    model = PodModel(problem, ModeRule.fixed(6))
    rng = np.random.default_rng(7)
    model.refine_basis(smooth_signal(rng, problem.shapes.m, problem.grid.n_t, 0.5))
    return model


@pytest.mark.parametrize("v", [0.55, -0.55])
@pytest.mark.parametrize("kind", ["fom", "pod"])
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
        trial = ControlledModel.line_cost(model, u, g, cost.total)
        for w in steps:
            assert closed(w) == pytest.approx(trial(w), rel=1e-12, abs=0.0)
        # along any direction d the cost is J - w <grad, d> + w^2/2 (c(d) + mu dt |d|^2)
        d = smooth_signal(rng, m, grid.n_t, rng.uniform(0.1, 1.0))
        slope = grid.dt * float(np.sum(g * d))
        curvature = model.tracking_curvature(d) + problem.mu * grid.dt * float(np.sum(d * d))
        for w in steps:
            expected = cost.total - w * slope + 0.5 * w * w * curvature
            assert expected == pytest.approx(model.cost_only(u - w * d).total, rel=1e-12, abs=0.0)


def desk_model(kind):
    base = dict(l=100.0, n=401, n_t=300, T=136.02357742008616, v=0.55, xi=5)
    if kind == "fom":
        return build_model(ScenarioConfig(model="fom", **base))
    return build_model(ScenarioConfig(model="pod", mode_tol=1e-6, problem="double_tilt", **base))


@pytest.mark.parametrize("kind", ["fom", "pod"])
def test_closed_form_search_repeats_the_trial_search_bitwise(kind, tmp_path):
    cfg = OptimizerConfig(n_iter=32)
    closed = count_trials(count_cost_only(desk_model(kind)))
    trials = count_cost_only(trial_search(desk_model(kind)))
    m, n_t = closed.problem.shapes.m, closed.problem.grid.n_t
    u_closed, rep_closed = optimize(closed, np.zeros((m, n_t)), cfg, stream=tmp_path / "c.csv")
    u_trials, rep_trials = optimize(trials, np.zeros((m, n_t)), cfg, stream=tmp_path / "t.csv")
    assert rep_closed.iterations == rep_trials.iterations == 32
    assert [r.omega for r in rep_closed.records] == [r.omega for r in rep_trials.records]
    assert [r.total for r in rep_closed.records] == [r.total for r in rep_trials.records]
    assert np.array_equal(u_closed, u_trials)
    assert closed.cost_only_calls == 0
    assert trials_column(tmp_path / "c.csv") == trials_column(tmp_path / "t.csv")
    assert sum(trials_column(tmp_path / "c.csv")) == closed.search_trials
    assert sum(trials_column(tmp_path / "t.csv")) == trials.cost_only_calls > 0


@pytest.mark.parametrize("eigenfunction_basis", [True])
def test_spod_search_keeps_trial_solves(eigenfunction_basis, tmp_path):
    # the invariant path checks the Schur margins of every trial trajectory
    problem = small_problem(0.55)
    model = count_cost_only(SpodModel(problem, ModeRule.fixed(4), eigenfunction_basis))
    u0 = np.zeros((problem.shapes.m, problem.grid.n_t))
    _, rep = optimize(model, u0, quad_cfg(n_iter=6, beta=0.0, bb_switch_threshold=0.0),
                      stream=tmp_path / "s.csv")
    assert rep.iterations == 6
    assert sum(trials_column(tmp_path / "s.csv")) == model.cost_only_calls > 0


def test_schur_search_marches_blocks_of_the_step_sizes_it_reads(tmp_path, monkeypatch):
    # the Schur path is nonlinear: each step size the search reads is priced
    # from a march of a block of them, and a block is fewer marches than reads
    marches = []
    march = spod_batch.solve_spod_candidates

    def counted(ops, u, g, omegas):
        marches.append(len(omegas))
        return march(ops, u, g, omegas)

    monkeypatch.setattr(spod_batch, "solve_spod_candidates", counted)
    problem = small_problem(0.55)
    model = count_trials(count_cost_only(SpodModel(problem, ModeRule.fixed(4))))
    u0 = np.zeros((problem.shapes.m, problem.grid.n_t))
    _, rep = optimize(model, u0, quad_cfg(n_iter=6, beta=0.0, bb_switch_threshold=0.0),
                      stream=tmp_path / "s.csv")
    assert rep.iterations == 6
    assert not model.ops.invariant and model.cost_only_calls == 0
    assert sum(trials_column(tmp_path / "s.csv")) == model.search_trials
    assert 0 < len(marches) < model.search_trials
    assert max(marches) <= MAX_BLOCK
    # each march is one state solve of its iteration, with the evaluation
    assert sum(evals_column(tmp_path / "s.csv")) == rep.iterations + len(marches)


@pytest.mark.parametrize("kind", ["fom", "pod", "spod"])
def test_evals_count_the_state_solves_of_each_iteration(kind, tmp_path):
    # the closed-form searches solve once along the direction, the invariant
    # sPOD-G once per step size; a Barzilai-Borwein step solves nothing more
    problem = small_problem(0.55)
    if kind == "spod":
        model = SpodModel(problem, ModeRule.fixed(4), eigenfunction_basis=True)
    else:
        model = quadratic_model(kind, problem)
    u0 = np.zeros((problem.shapes.m, problem.grid.n_t))
    _, rep = optimize(model, u0, quad_cfg(n_iter=12, beta=0.0, bb_switch_threshold=1.0),
                      stream=tmp_path / "e.csv")
    trials, evals = trials_column(tmp_path / "e.csv"), evals_column(tmp_path / "e.csv")
    assert evals == [r.evals for r in rep.records]
    assert 0 in trials and max(trials) > 0
    if kind == "spod":
        assert evals == [1 + t for t in trials]
    else:
        assert evals == [1 + (t > 0) for t in trials]


class _DivergingDirection(FomModel):
    def tracking_curvature(self, g):
        raise DivergenceError(3, "state")


class _DivergingTrials(FomModel):
    def cost_only(self, u):
        raise DivergenceError(3, "state")


def test_diverging_direction_solve_fails_the_search(tmp_path):
    problem = small_problem(0.55)
    u0 = np.zeros((problem.shapes.m, problem.grid.n_t))
    cfg = quad_cfg(n_iter=4, beta=0.0)
    _, rep = optimize(_DivergingDirection(problem), u0, cfg, stream=tmp_path / "d.csv")
    _, ref = optimize(trial_search(_DivergingTrials(problem)), u0, cfg)
    assert rep.status == ref.status == "max_iter"
    assert rep.iterations == 4
    # every search fails after testing each halving, as when every trial diverges
    assert [r.omega for r in rep.records] == [r.omega for r in ref.records]
    assert [r.trials for r in rep.records] == [r.trials for r in ref.records] == [31] * 4
    assert trials_column(tmp_path / "d.csv") == [31] * 4


def test_trials_column_counts_the_search_trials(tmp_path):
    h = np.linspace(1.0, 100.0, 50).reshape(5, 10)
    model = count_trials(QuadraticModel(np.ones((5, 10)), h))
    path = tmp_path / "iters.csv"
    _, rep = optimize(model, np.zeros((5, 10)), quad_cfg(n_iter=5000), stream=path)
    column = trials_column(path)
    assert column == [r.trials for r in rep.records]
    assert sum(column) == model.search_trials
    # Barzilai-Borwein steps test no step size
    assert 0 in column and column[0] > 0
