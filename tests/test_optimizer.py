import math
import time

import numpy as np
import pytest

from romctl.fom import CostBreakdown, DivergenceError
from romctl.optimizer import (
    ControlledModel,
    OptimizerConfig,
    barzilai_borwein_step,
    optimize,
    refinement_policy,
    two_way_backtracking,
)
from romctl.rom_spod import SingularMassError

from conftest import QuadraticModel


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
    omega, ok = two_way_backtracking(f, np.array([1.0]), 1.0, current_cost=0.5)
    assert ok
    assert omega == pytest.approx(1.0)


def test_backtracking_halves_on_increasing_cost():
    f = lambda w: 0.5 - w + 400.0 * w**2  # decrease only for small steps
    omega, ok = two_way_backtracking(f, np.array([1.0]), 1.0, current_cost=0.5)
    assert ok
    assert omega < 0.01


def test_backtracking_doubles_after_undershoot():
    f = lambda w: 0.5 * (1.0 - w) ** 2
    omega, ok = two_way_backtracking(f, np.array([1.0]), 1e-3, current_cost=0.5)
    assert ok
    assert omega >= 2e-3


def test_backtracking_reports_failure():
    f = lambda w: math.inf
    omega, ok = two_way_backtracking(f, np.array([1.0]), 1.0, current_cost=0.5)
    assert not ok


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
