"""Model adapters binding the solvers to the descent driver's interface."""
from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import replace
from typing import Callable

import numpy as np

from . import fom, rom_pod, rom_spod
from .basis import (
    ModeRule,
    eigenfunction_stationary_basis,
    truncate_to_basis,
    weighted_svd,
)
from .control import ControlProblem
from .fom import CostBreakdown, DivergenceError
from .optimizer import ControlledModel, March, Refresh, pointwise
from .transform import transform_snapshots, uncontrolled_shift_path


class ProblemModel(ControlledModel):
    """A model of one ControlProblem. Its time signals pair with weight dt; the
    reduced subclasses hold what their basis determines in one frozen operator
    set, `ops`, which each refresh replaces, and a snapshot refresh keeps the
    modes their `mode_rule` selects. The FOM, POD-G and the invariant
    sPOD-G have an exactly quadratic cost and an exact discrete adjoint, so
    along the gradient g at u the cost is the parabola
    J - w dt|g|^2 + w^2/2 (c(g) + mu dt |g|^2), c(g) the tracking curvature
    (Nocedal & Wright, Numerical Optimization, ch. 3): the step-size search
    reads it, one direction solve per search. The FOM keeps that solve, the
    state response to g, and `move` steps its held state by it, so a searched
    FOM iteration sweeps the direction and the adjoint but not the state."""

    def __init__(self, problem: ControlProblem):
        self.problem = problem

    @property
    def signal_weight(self) -> float:
        return self.problem.grid.dt

    def _require_basis(self) -> None:
        if self.ops is None:
            raise RuntimeError("reduced model has no basis yet; call refine_basis first")

    def _refresh(self, snapshots: np.ndarray, assemble: Callable) -> Refresh:
        """Replace the held operators with those `assemble` builds on the modes
        of the snapshots that the mode rule keeps."""
        p = self.problem
        modes, sigma = weighted_svd(snapshots, p.grid)
        basis = truncate_to_basis(modes, sigma, self.mode_rule.select(sigma))
        self.ops = None  # the held operators go before the new ones are built
        self.ops = assemble(basis, p)
        return Refresh(self.ops.r, sigma)

    @abstractmethod
    def tracking_curvature(self, g: np.ndarray) -> float:
        """c(g): twice the tracking cost, against a zero target, of the state
        solved under the control g from a zero initial condition."""

    def line_cost(self, u: np.ndarray, g: np.ndarray, cost: float) -> March:
        try:
            tracking = self.tracking_curvature(g)
        except DivergenceError:
            return pointwise(lambda w: math.inf)  # every step size fails the search
        g_sq = self.signal_weight * float(np.sum(np.asarray(g) ** 2))
        curvature = tracking + self.problem.mu * g_sq
        return pointwise(lambda w: cost - w * g_sq + 0.5 * w * w * curvature)


class FomModel(ProblemModel):
    """Full-order model: no reduction, refine_basis is a no-op. Its solves
    write into four buffers it holds for the run: in Fortran order the state,
    the adjoint and the direction response Y_g of the step-size search, and
    one C-order work array that holds in turn the control source, the squared
    misfit and the adjoint source. The state is affine in the control, so the
    direction solve doubles as the next state, Y(u - w g) = Y(u) - w Y_g:
    `move` makes it in place, and `evaluate` at the control `move` returned
    makes no state sweep. Controls and directions are told apart by identity,
    never by value. Gradients and `lift` are new arrays."""

    def __init__(self, problem: ControlProblem):
        super().__init__(problem)
        shape = (problem.grid.n, problem.grid.n_t)
        self._state = np.empty(shape, order="F")
        self._adjoint = np.empty(shape, order="F")
        self._direction = np.empty(shape, order="F")
        self._work = np.empty(shape)
        self._state_of: np.ndarray | None = None  # the control whose state `_state` holds
        self._moved_to: np.ndarray | None = None  # that control, when `move` returned it
        self._response_of: np.ndarray | None = None  # the direction `_direction` answers

    def refine_basis(self, u: np.ndarray) -> Refresh:
        return Refresh(self.problem.grid.n, None)

    def _solve_state(self, u: np.ndarray, y0: np.ndarray, out: np.ndarray) -> np.ndarray:
        p = self.problem
        self.state_solves += 1
        return fom.solve_state(p.grid, p.shapes, u, y0, out=out, work=self._work)

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        p = self.problem
        with self.phase("state"):
            if u is not self._moved_to:
                self._state_of = self._moved_to = None  # a diverging solve leaves no state
                self._solve_state(u, p.y0, self._state)
                self._state_of = u
            Y = self._state
        with self.phase("cost"):
            J = fom.cost(p.grid, Y, p.target, u, p.mu, work=self._work)
        with self.phase("adjoint"):
            lam = fom.solve_adjoint(p.grid, Y, p.target, out=self._adjoint, work=self._work)
        with self.phase("gradient"):
            g = fom.gradient_fom(p.grid, p.shapes, lam, u, p.mu)
        return J, g

    def tracking_curvature(self, g: np.ndarray) -> float:
        """c(g) from the response Y_g, which the model keeps for `move`; a
        non-finite c(g) raises DivergenceError and keeps no response."""
        p = self.problem
        self._response_of = None
        Y = self._solve_state(g, np.zeros(p.grid.n), self._direction)
        # the adjoint buffer is free once evaluate has made its gradient
        sq = np.multiply(Y, Y, out=self._adjoint)
        c = p.grid.dt * p.grid.dx * float(np.sum(sq))
        if not math.isfinite(c):
            raise DivergenceError(p.grid.n_t - 1, "direction")
        self._response_of = g
        return c

    def move(self, u: np.ndarray, g: np.ndarray, omega: float) -> np.ndarray:
        """u - omega g. When the model holds the state at u and the response
        to g, the state moves to the new control in place; otherwise the
        held state goes, and the next evaluation solves afresh."""
        u_next = super().move(u, g, omega)
        if u is self._state_of and g is self._response_of:
            self._direction *= omega
            self._state -= self._direction
            self._state_of = self._moved_to = u_next
        else:
            self._state_of = self._moved_to = None
        self._response_of = None  # scaled in place, or of an older direction
        return u_next

    def lift(self, u: np.ndarray) -> np.ndarray:
        p = self.problem
        return fom.solve_state(p.grid, p.shapes, u, p.y0)


class PodModel(ProblemModel):
    """Linear reduced model refreshed from full-order snapshots at the current
    control. Its lifted tracking cost, the reduced misfit plus the target's
    energy outside the span of the modes, equals the full model's."""

    def __init__(self, problem: ControlProblem, mode_rule: ModeRule):
        super().__init__(problem)
        self.mode_rule = mode_rule
        self.ops: rom_pod.PodRomOperators | None = None

    def refine_basis(self, u: np.ndarray) -> Refresh:
        p = self.problem
        return self._refresh(fom.solve_state(p.grid, p.shapes, u, p.y0), rom_pod.assemble_pod_rom)

    def _solve_state(self, ops: rom_pod.PodRomOperators, u: np.ndarray) -> np.ndarray:
        self.state_solves += 1
        return rom_pod.solve_pod_state(ops, u)

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        self._require_basis()
        ops, grid = self.ops, self.problem.grid
        with self.phase("state"):
            alpha = self._solve_state(ops, u)
        with self.phase("cost"):
            diff = alpha - ops.yd_reduced
            tracking = 0.5 * grid.dt * float(np.sum(diff * diff)) + ops.yd_residual_energy
            reg = 0.5 * self.problem.mu * grid.dt * float(np.sum(np.asarray(u) ** 2))
            J = CostBreakdown(tracking=tracking, regularization=reg)
        with self.phase("adjoint"):
            lam = rom_pod.solve_pod_adjoint(ops, alpha)
        with self.phase("gradient"):
            g = rom_pod.gradient_pod(ops, lam, u)
        return J, g

    def tracking_curvature(self, g: np.ndarray) -> float:
        # the modes are dx-orthonormal, so the lifted response has the energy of its amplitudes
        self._require_basis()
        alpha = self._solve_state(replace(self.ops, alpha0=np.zeros(self.ops.r)), g)
        return self.problem.grid.dt * float(np.sum(alpha * alpha))

    def lift(self, u: np.ndarray) -> np.ndarray:
        self._require_basis()
        return rom_pod.lift_pod(self.ops, rom_pod.solve_pod_state(self.ops, u))


class SpodModel(ProblemModel):
    """Shifted reduced model. The basis is extracted from snapshots shifted
    back along the frozen uncontrolled wave path; with no mode rule the
    invariant-subspace basis is built once and kept for the whole run. The
    cost and the adjoint read the tracking terms that the reduced trajectory
    carries along its shift path, so no evaluation lifts the state; `lift`
    alone does, for the artifacts."""

    def __init__(self, problem: ControlProblem, mode_rule: ModeRule | None):
        super().__init__(problem)
        self.mode_rule = mode_rule
        self.ops: rom_spod.SpodRomOperators | None = None

    def refine_basis(self, u: np.ndarray) -> Refresh:
        p = self.problem
        if self.mode_rule is None:
            if self.ops is None:
                basis = eigenfunction_stationary_basis(p.grid, p.shapes, p.y0)
                self.ops = rom_spod.assemble_spod_rom(basis, p)
            return Refresh(self.ops.r, None)
        # the snapshots go once they are shifted, before the SVD
        Qs = transform_snapshots(fom.solve_state(p.grid, p.shapes, u, p.y0),
                                 uncontrolled_shift_path(p.grid), p.grid)
        return self._refresh(Qs, rom_spod.assemble_spod_rom)

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        self._require_basis()
        ops = self.ops
        with self.phase("state"):
            self.state_solves += 1
            traj = rom_spod.solve_spod_state(ops, u)
        with self.phase("cost"):
            J = rom_spod.reduced_cost(ops, traj.tracking, traj.alpha, u)
        with self.phase("adjoint"):
            adj = rom_spod.solve_spod_adjoint(ops, traj, u)
        with self.phase("gradient"):
            g = rom_spod.gradient_spod(ops, traj, adj, u)
        return J, g

    def tracking_curvature(self, g: np.ndarray) -> float:
        """rom_spod.invariant_curvature: c(g) on an invariant basis."""
        self._require_basis()
        self.state_solves += 1
        return rom_spod.invariant_curvature(self.ops, g)

    def line_cost(self, u: np.ndarray, g: np.ndarray, cost: float) -> March:
        """On an invariant basis the parabola. On a Schur basis each block of
        step sizes the search marches is one rom_spod.candidate_costs, the
        march solve_spod_state runs for its one control, and only the
        candidates the search reads are priced."""
        self._require_basis()
        if self.ops.invariant:
            return super().line_cost(u, g, cost)
        ops = self.ops

        def march(omegas: list[float]) -> Callable[[int], float]:
            self.state_solves += 1
            return rom_spod.candidate_costs(ops, u, g, omegas)

        return march

    def lift(self, u: np.ndarray) -> np.ndarray:
        self._require_basis()
        return rom_spod.lift_spod(self.ops, rom_spod.solve_spod_state(self.ops, u))
