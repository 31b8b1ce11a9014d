"""Model adapters binding the solvers to the descent driver's interface."""
from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import fom, rom_pod, rom_spod
from .basis import (
    ModeBasis,
    ModeRule,
    eigenfunction_stationary_basis,
    truncate_to_basis,
    weighted_svd,
)
from .control import ControlShapes
from .discretization import SpaceTimeGrid, check_shape
from .fom import CostBreakdown, DivergenceError
from .optimizer import ControlledModel, March, Refresh, pointwise
from .transform import shift_columns, transform_snapshots, uncontrolled_shift_path

# columns per block of the target check and energy sum: they form no second target
_CHECK_COLUMNS = 64


@dataclass(frozen=True)
class ControlProblem:
    """The control problem all three models solve: steer the state from y0
    onto the target snapshots through the control shapes, with regularization
    weight mu, on one space-time grid. The target is one profile moved along
    a path: column j is target[:, 0] shifted by target_path[j], and
    target_path[0] = 0; the check is bitwise. Alongside it, block by block,
    it sums target_energy = 1/2 dt dx |target|_F^2."""

    grid: SpaceTimeGrid
    shapes: ControlShapes
    y0: np.ndarray
    target: np.ndarray
    target_path: np.ndarray
    mu: float
    target_energy: float = field(init=False)

    def __post_init__(self) -> None:
        grid = self.grid
        target = check_shape(self.target, (grid.n, grid.n_t), "target")
        path = check_shape(self.target_path, (grid.n_t,), "target path")
        if path[0] != 0.0:
            raise ValueError(f"target path must start at 0, got {path[0]!r}")
        energy = 0.0
        for start in range(0, grid.n_t, _CHECK_COLUMNS):
            block = target[:, start : start + _CHECK_COLUMNS]
            moved = shift_columns(target[:, 0], path[start : start + _CHECK_COLUMNS], grid)
            bad = np.flatnonzero(np.any(moved != block, axis=0))
            if bad.size:
                raise ValueError(
                    f"target column {start + int(bad[0])} is not target[:, 0] "
                    "shifted along the target path"
                )
            energy += float(np.einsum("ij,ij->", block, block))
        object.__setattr__(self, "target_energy", 0.5 * grid.dt * grid.dx * energy)
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_path", path)


class ProblemModel(ControlledModel):
    """A model of one ControlProblem. Its time signals pair with weight dt; the
    reduced subclasses keep the operators refine_basis builds in `ops`. The
    FOM, POD-G and the invariant sPOD-G have an exactly quadratic cost and an
    exact discrete adjoint, so along the gradient g at u the cost is the
    parabola J - w dt|g|^2 + w^2/2 (c(g) + mu dt |g|^2), c(g) the tracking
    curvature (Nocedal & Wright, Numerical Optimization, ch. 3): the step-size
    search reads it, one direction solve per search."""

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
    control. The modes are dx-orthonormal, so the lifted tracking cost is the
    reduced misfit plus the target's energy outside their span,
    target_energy - 1/2 dt |alpha_d|^2, and equals the full model's."""

    def __init__(self, problem: ControlProblem, mode_rule: ModeRule):
        super().__init__(problem)
        self.mode_rule = mode_rule
        self.basis: ModeBasis | None = None
        self.ops: rom_pod.PodRomOperators | None = None
        self._yd_reduced: np.ndarray | None = None
        self._yd_residual_energy = 0.0

    def refine_basis(self, u: np.ndarray) -> Refresh:
        p = self.problem
        Q = fom.solve_state(p.grid, p.shapes, u, p.y0)
        modes, sigma = weighted_svd(Q, p.grid)
        self.basis = truncate_to_basis(modes, sigma, self.mode_rule.select(sigma))
        self.ops = rom_pod.assemble_pod_rom(self.basis, p.shapes, p.y0, p.grid)
        self._yd_reduced = rom_pod.project_snapshots(self.basis, p.target, p.grid)
        in_span = 0.5 * p.grid.dt * float(np.sum(self._yd_reduced * self._yd_reduced))
        self._yd_residual_energy = p.target_energy - in_span
        return Refresh(self.basis.r, sigma)

    def _solve_state(self, ops: rom_pod.PodRomOperators, u: np.ndarray) -> np.ndarray:
        self.state_solves += 1
        return rom_pod.solve_pod_state(ops, u, self.problem.grid)

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        self._require_basis()
        grid = self.problem.grid
        with self.phase("state"):
            alpha = self._solve_state(self.ops, u)
        with self.phase("cost"):
            diff = alpha - self._yd_reduced
            tracking = 0.5 * grid.dt * float(np.sum(diff * diff)) + self._yd_residual_energy
            reg = 0.5 * self.problem.mu * grid.dt * float(np.sum(np.asarray(u) ** 2))
            J = CostBreakdown(tracking=tracking, regularization=reg)
        with self.phase("adjoint"):
            lam = rom_pod.solve_pod_adjoint(self.ops, alpha, self._yd_reduced, grid)
        with self.phase("gradient"):
            g = rom_pod.gradient_pod(self.ops, lam, u, self.problem.mu)
        return J, g

    def tracking_curvature(self, g: np.ndarray) -> float:
        # the modes are dx-orthonormal, so the lifted response has the energy of its amplitudes
        self._require_basis()
        alpha = self._solve_state(replace(self.ops, alpha0=np.zeros(self.ops.r)), g)
        return self.problem.grid.dt * float(np.sum(alpha * alpha))

    def lift(self, u: np.ndarray) -> np.ndarray:
        self._require_basis()
        return rom_pod.lift_pod(self.basis, rom_pod.solve_pod_state(self.ops, u, self.problem.grid))


class SpodModel(ProblemModel):
    """Shifted reduced model. The basis is extracted from snapshots shifted
    back along the frozen uncontrolled wave path; with `eigenfunction_basis`
    the invariant-subspace basis is built once and kept for the whole run.
    The cost and the adjoint read the tracking terms of the target along the
    reduced trajectory's shift path, so no evaluation lifts the state; `lift`
    alone does, for the artifacts. The terms come from the target table of
    the held basis, built on first use after each refresh, in O(n_t r) per
    path. On an invariant basis it is linear-quadratic along z = v t."""

    def __init__(
        self,
        problem: ControlProblem,
        mode_rule: ModeRule,
        eigenfunction_basis: bool = False,
    ):
        super().__init__(problem)
        self.mode_rule = mode_rule
        self.eigenfunction_basis = eigenfunction_basis
        self._path = uncontrolled_shift_path(problem.grid)
        self.basis: ModeBasis | None = None
        self.ops: rom_spod.SpodRomOperators | None = None
        self._table: np.ndarray | None = None  # the target table of the held basis
        self._drift_tracking: rom_spod.SpodTracking | None = None  # an invariant basis's terms

    def refine_basis(self, u: np.ndarray) -> Refresh:
        p = self.problem
        if self.eigenfunction_basis:
            if self.ops is None:
                self.basis = eigenfunction_stationary_basis(p.grid, p.shapes, p.y0)
                self.ops = rom_spod.assemble_spod_rom(self.basis, p.shapes, p.y0, p.grid)
            return Refresh(self.basis.r, None)
        # the snapshots go once they are shifted, before the SVD
        Qs = transform_snapshots(fom.solve_state(p.grid, p.shapes, u, p.y0), self._path, p.grid)
        modes, sigma = weighted_svd(Qs, p.grid)
        self.basis = truncate_to_basis(modes, sigma, self.mode_rule.select(sigma))
        self.ops = rom_spod.assemble_spod_rom(self.basis, p.shapes, p.y0, p.grid)
        self._table = self._drift_tracking = None
        return Refresh(self.basis.r, sigma)

    def _tracking(self, z: np.ndarray) -> rom_spod.SpodTracking:
        """Tracking terms of the held basis along the shift path z of one of
        its trajectories. An invariant basis moves along v t on every solve, so
        its terms are built once; on other bases each path builds its own."""
        p = self.problem
        if self._table is None:
            # column 0 of the target is its profile (target_path[0] = 0)
            self._table = rom_spod.target_table(self.basis, p.target[:, 0], p.grid)
        if not self.ops.invariant:
            return rom_spod.tracking_terms(self._table, p.target_path, z, p.grid)
        if self._drift_tracking is None:
            self._drift_tracking = rom_spod.tracking_terms(self._table, p.target_path, z, p.grid)
        return self._drift_tracking

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        self._require_basis()
        p = self.problem
        with self.phase("state"):
            self.state_solves += 1
            traj = rom_spod.solve_spod_state(self.ops, u)
        with self.phase("cost"):
            tracking = self._tracking(traj.z)
            J = rom_spod.reduced_cost(self.ops, tracking, traj.alpha, u, p.mu, p.target_energy)
        with self.phase("adjoint"):
            adj = rom_spod.solve_spod_adjoint(self.ops, traj, u, tracking)
        with self.phase("gradient"):
            g = rom_spod.gradient_spod(self.ops, traj, adj, u, p.mu)
        return J, g

    def tracking_curvature(self, g: np.ndarray) -> float:
        """On an invariant basis, c(g) = dt sum_j alpha_j^T G_j alpha_j of the
        invariant response alpha to g, G_j the Gram of the drift tracking
        terms; a non-finite c(g) raises DivergenceError."""
        self._require_basis()
        self.state_solves += 1
        tr, alpha = self._tracking(self._path), rom_spod.invariant_response(self.ops, g)
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
        p = self.problem

        def march(omegas: list[float]) -> Callable[[int], float]:
            self.state_solves += 1
            block = rom_spod.solve_spod_candidates(self.ops, u, g, omegas)

            def price(k: int) -> float:
                if block.failed_at[k] < p.grid.n_t:
                    return math.inf
                return rom_spod.reduced_cost(
                    self.ops, self._tracking(block.z[k]), block.alpha[k], u - omegas[k] * g,
                    p.mu, p.target_energy,
                ).total

            return price

        return march

    def lift(self, u: np.ndarray) -> np.ndarray:
        self._require_basis()
        return rom_spod.lift_spod(self.basis, rom_spod.solve_spod_state(self.ops, u),
                                  self.problem.grid)
