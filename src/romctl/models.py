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
    set, `ops`, which each refresh replaces. The FOM, POD-G and the invariant
    sPOD-G have an exactly quadratic cost and an exact discrete adjoint, so
    along the gradient g at u the cost is the parabola
    J - w dt|g|^2 + w^2/2 (c(g) + mu dt |g|^2), c(g) the tracking curvature
    (Nocedal & Wright, Numerical Optimization, ch. 3): the step-size search
    reads it, one direction solve per search."""

    def __init__(self, problem: ControlProblem):
        self.problem = problem

    @property
    def signal_weight(self) -> float:
        return self.problem.grid.dt

    def _require_basis(self) -> None:
        if self.ops is None:
            raise RuntimeError("reduced model has no basis yet; call refine_basis first")

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
    write into buffers it holds for the run: the state and the adjoint, in
    Fortran order, and one C-order work array that holds in turn the control
    source, the squared misfit and the adjoint source. Gradients and `lift`
    are new arrays."""

    def __init__(self, problem: ControlProblem):
        super().__init__(problem)
        shape = (problem.grid.n, problem.grid.n_t)
        self._state = np.empty(shape, order="F")
        self._adjoint = np.empty(shape, order="F")
        self._work = np.empty(shape)

    def refine_basis(self, u: np.ndarray) -> Refresh:
        return Refresh(self.problem.grid.n, None)

    def _solve_state(self, u: np.ndarray, y0: np.ndarray) -> np.ndarray:
        p = self.problem
        self.state_solves += 1
        return fom.solve_state(p.grid, p.shapes, u, y0, out=self._state, work=self._work)

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        p = self.problem
        with self.phase("state"):
            Y = self._solve_state(u, p.y0)
        with self.phase("cost"):
            J = fom.cost(p.grid, Y, p.target, u, p.mu, work=self._work)
        with self.phase("adjoint"):
            lam = fom.solve_adjoint(p.grid, Y, p.target, out=self._adjoint, work=self._work)
        with self.phase("gradient"):
            g = fom.gradient_fom(p.grid, p.shapes, lam, u, p.mu)
        return J, g

    def tracking_curvature(self, g: np.ndarray) -> float:
        p = self.problem
        Y = self._solve_state(g, np.zeros(p.grid.n))
        Y *= Y  # the state buffer is free again once the curvature is read
        return p.grid.dt * p.grid.dx * float(np.sum(Y))

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
        Q = fom.solve_state(p.grid, p.shapes, u, p.y0)
        modes, sigma = weighted_svd(Q, p.grid)
        basis = truncate_to_basis(modes, sigma, self.mode_rule.select(sigma))
        self.ops = None  # the held operators go before the new ones are built
        self.ops = rom_pod.assemble_pod_rom(basis, p)
        return Refresh(self.ops.r, sigma)

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
    back along the frozen uncontrolled wave path; with `eigenfunction_basis`
    the invariant-subspace basis is built once and kept for the whole run.
    The cost and the adjoint read the tracking terms of the target along the
    reduced trajectory's shift path, so no evaluation lifts the state; `lift`
    alone does, for the artifacts. The terms come from the target table of
    the held operators in O(n_t r) per path. On an invariant basis the model
    is linear-quadratic along z = v t, and every solve reads the operators'
    drift terms."""

    def __init__(
        self,
        problem: ControlProblem,
        mode_rule: ModeRule,
        eigenfunction_basis: bool = False,
    ):
        super().__init__(problem)
        self.mode_rule = mode_rule
        self.eigenfunction_basis = eigenfunction_basis
        self.ops: rom_spod.SpodRomOperators | None = None

    def refine_basis(self, u: np.ndarray) -> Refresh:
        p = self.problem
        if self.eigenfunction_basis:
            if self.ops is None:
                basis = eigenfunction_stationary_basis(p.grid, p.shapes, p.y0)
                self.ops = rom_spod.assemble_spod_rom(basis, p)
            return Refresh(self.ops.r, None)
        # the snapshots go once they are shifted, before the SVD
        Qs = transform_snapshots(fom.solve_state(p.grid, p.shapes, u, p.y0),
                                 uncontrolled_shift_path(p.grid), p.grid)
        modes, sigma = weighted_svd(Qs, p.grid)
        basis = truncate_to_basis(modes, sigma, self.mode_rule.select(sigma))
        self.ops = None  # the held operators go before the new ones are built
        self.ops = rom_spod.assemble_spod_rom(basis, p)
        return Refresh(self.ops.r, sigma)

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        self._require_basis()
        ops = self.ops
        with self.phase("state"):
            self.state_solves += 1
            traj = rom_spod.solve_spod_state(ops, u)
        with self.phase("cost"):
            # an invariant basis moves along v t on every solve
            tracking = ops.drift_tracking if ops.invariant else rom_spod.tracking_terms(ops, traj.z)
            J = rom_spod.reduced_cost(ops, tracking, traj.alpha, u)
        with self.phase("adjoint"):
            adj = rom_spod.solve_spod_adjoint(ops, traj, u, tracking)
        with self.phase("gradient"):
            g = rom_spod.gradient_spod(ops, traj, adj, u)
        return J, g

    def tracking_curvature(self, g: np.ndarray) -> float:
        """On an invariant basis, c(g) = dt sum_j alpha_j^T G_j alpha_j of the
        invariant response alpha to g, G_j the Gram of the drift tracking
        terms; a non-finite c(g) raises DivergenceError."""
        self._require_basis()
        self.state_solves += 1
        tr, alpha = self.ops.drift_tracking, rom_spod.invariant_response(self.ops, g)
        Ga = rom_spod.gram_apply(self.ops, tr.self_weight, tr.cross_weight, alpha)
        c = self.problem.grid.dt * float(np.einsum("rj,rj->", alpha, Ga))
        if not math.isfinite(c):
            raise DivergenceError(self.problem.grid.n_t - 1, "spod direction")
        return c

    def line_cost(self, u: np.ndarray, g: np.ndarray, cost: float) -> March:
        """On an invariant basis the parabola. On a Schur basis each block of
        step sizes the search marches is one rom_spod.solve_spod_candidates,
        the march solve_spod_state runs for its one control, and only the
        candidates the search reads are priced; one that fails costs +inf."""
        self._require_basis()
        if self.ops.invariant:
            return super().line_cost(u, g, cost)
        ops = self.ops

        def march(omegas: list[float]) -> Callable[[int], float]:
            self.state_solves += 1
            block = rom_spod.solve_spod_candidates(ops, u, g, omegas)

            def price(k: int) -> float:
                if block.failed_at[k] < ops.grid.n_t:
                    return math.inf
                return rom_spod.reduced_cost(
                    ops, rom_spod.tracking_terms(ops, block.z[k]), block.alpha[k],
                    u - omegas[k] * g,
                ).total

            return price

        return march

    def lift(self, u: np.ndarray) -> np.ndarray:
        self._require_basis()
        return rom_spod.lift_spod(self.ops, rom_spod.solve_spod_state(self.ops, u))
