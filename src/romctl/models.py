"""Model adapters binding the solvers to the descent driver's interface."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fom, rom_pod, rom_spod
from .basis import ModeBasis, eigenfunction_stationary_basis, truncate_to_basis, weighted_svd
from .control import ControlShapes
from .discretization import SpaceTimeGrid, check_shape, upwind_operator
from .fom import CostBreakdown
from .optimizer import ControlledModel, ModeRule
from .transform import shift_columns, transform_snapshots, uncontrolled_shift_path

# columns per block of the target check, so that it forms no second target
_CHECK_COLUMNS = 64


@dataclass(frozen=True)
class ControlProblem:
    """The control problem all three models solve: steer the state from y0
    onto the target snapshots through the control shapes, with regularization
    weight mu, on one space-time grid. The target is one profile moved along
    a path: column j is target[:, 0] shifted by target_path[j], and
    target_path[0] = 0; the check is bitwise."""

    grid: SpaceTimeGrid
    shapes: ControlShapes
    y0: np.ndarray
    target: np.ndarray
    target_path: np.ndarray
    mu: float

    def __post_init__(self) -> None:
        grid = self.grid
        target = check_shape(self.target, (grid.n, grid.n_t), "target")
        path = check_shape(self.target_path, (grid.n_t,), "target path")
        if path[0] != 0.0:
            raise ValueError(f"target path must start at 0, got {path[0]!r}")
        for start in range(0, grid.n_t, _CHECK_COLUMNS):
            cols = slice(start, start + _CHECK_COLUMNS)
            moved = shift_columns(target[:, 0], path[cols], grid)
            bad = np.flatnonzero(np.any(moved != target[:, cols], axis=0))
            if bad.size:
                raise ValueError(
                    f"target column {start + int(bad[0])} is not target[:, 0] "
                    "shifted along the target path"
                )
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_path", path)


class ProblemModel(ControlledModel):
    """A model of one ControlProblem. Its time signals pair with weight dt; the
    reduced subclasses keep the operators refine_basis builds in `ops`."""

    def __init__(self, problem: ControlProblem):
        self.problem = problem

    @property
    def signal_weight(self) -> float:
        return self.problem.grid.dt

    def _require_basis(self) -> None:
        if self.ops is None:
            raise RuntimeError("reduced model has no basis yet; call refine_basis first")


class FomModel(ProblemModel):
    """Full-order model: no reduction, refine_basis is a no-op."""

    def describe(self) -> str:
        return "fom"

    def refine_basis(self, u: np.ndarray) -> int:
        return self.problem.grid.n

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        p = self.problem
        with self.phase("state"):
            Y = fom.solve_state(p.grid, p.shapes, u, p.y0)
        with self.phase("cost"):
            J = fom.cost(p.grid, Y, p.target, u, p.mu)
        with self.phase("adjoint"):
            lam = fom.solve_adjoint(p.grid, Y, p.target)
        with self.phase("gradient"):
            g = fom.gradient_fom(p.grid, p.shapes, lam, u, p.mu)
        return J, g

    def cost_only(self, u: np.ndarray) -> CostBreakdown:
        p = self.problem
        Y = fom.solve_state(p.grid, p.shapes, u, p.y0)
        return fom.cost(p.grid, Y, p.target, u, p.mu)

    def lift(self, u: np.ndarray) -> np.ndarray:
        p = self.problem
        return fom.solve_state(p.grid, p.shapes, u, p.y0)


class PodModel(ProblemModel):
    """Linear reduced model refreshed from full-order snapshots at the current
    control. The tracking cost adds the constant out-of-span target energy so
    the reported values are comparable with the full model's."""

    def __init__(self, problem: ControlProblem, mode_rule: ModeRule):
        super().__init__(problem)
        self.mode_rule = mode_rule
        self._A = upwind_operator(problem.grid)
        self.basis: ModeBasis | None = None
        self.ops: rom_pod.PodRomOperators | None = None
        self._yd_reduced: np.ndarray | None = None
        self._yd_residual_energy = 0.0
        self.last_spectrum: np.ndarray | None = None

    def describe(self) -> str:
        return "pod"

    def refine_basis(self, u: np.ndarray) -> int:
        p = self.problem
        Q = fom.solve_state(p.grid, p.shapes, u, p.y0)
        modes, sigma = weighted_svd(Q, p.grid)
        self.basis = truncate_to_basis(modes, sigma, self.mode_rule.select(sigma))
        self.last_spectrum = sigma
        self.ops = rom_pod.assemble_pod_rom(self.basis, self._A, p.shapes, p.y0, p.grid)
        self._yd_reduced = rom_pod.project_snapshots(self.basis, p.target, p.grid)
        resid = p.target - rom_pod.lift_pod(self.basis, self._yd_reduced)
        self._yd_residual_energy = 0.5 * p.grid.dt * p.grid.dx * float(np.sum(resid * resid))
        return self.basis.r

    def _cost_from_alpha(self, alpha: np.ndarray, u: np.ndarray) -> CostBreakdown:
        # orthonormal modes make the lifted tracking term split into the
        # reduced misfit plus the constant out-of-span energy of the target
        dt = self.problem.grid.dt
        diff = alpha - self._yd_reduced
        tracking = 0.5 * dt * float(np.sum(diff * diff)) + self._yd_residual_energy
        reg = 0.5 * self.problem.mu * dt * float(np.sum(np.asarray(u) ** 2))
        return CostBreakdown(tracking=tracking, regularization=reg)

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        self._require_basis()
        grid = self.problem.grid
        with self.phase("state"):
            alpha = rom_pod.solve_pod_state(self.ops, u, grid)
        with self.phase("cost"):
            J = self._cost_from_alpha(alpha, u)
        with self.phase("adjoint"):
            lam = rom_pod.solve_pod_adjoint(self.ops, alpha, self._yd_reduced, grid)
        with self.phase("gradient"):
            g = rom_pod.gradient_pod(self.ops, lam, u, self.problem.mu)
        return J, g

    def cost_only(self, u: np.ndarray) -> CostBreakdown:
        self._require_basis()
        alpha = rom_pod.solve_pod_state(self.ops, u, self.problem.grid)
        return self._cost_from_alpha(alpha, u)

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
    the held basis, built when the operators change, in O(n_t r) per path."""

    def __init__(
        self,
        problem: ControlProblem,
        mode_rule: ModeRule,
        n_samples: int = 800,
        eigenfunction_basis: bool = False,
    ):
        super().__init__(problem)
        self.mode_rule = mode_rule
        self.n_samples = n_samples
        self.eigenfunction_basis = eigenfunction_basis
        self._path = uncontrolled_shift_path(problem.grid)
        self.basis: ModeBasis | None = None
        self.ops: rom_spod.SpodRomOperators | None = None
        self.last_spectrum: np.ndarray | None = None
        self._table = None  # (operators, the target table of their basis)
        self._tracking = None  # (operators, shift path, their tracking terms)

    def describe(self) -> str:
        return "spod"

    def refine_basis(self, u: np.ndarray) -> int:
        p = self.problem
        if self.eigenfunction_basis:
            if self.ops is None:
                self.basis = eigenfunction_stationary_basis(p.grid, p.shapes, p.y0)
                self.ops = rom_spod.assemble_spod_rom(
                    self.basis, p.shapes, p.y0, p.grid, self.n_samples
                )
            return self.basis.r
        Q = fom.solve_state(p.grid, p.shapes, u, p.y0)
        Qs = transform_snapshots(Q, self._path, p.grid)
        modes, sigma = weighted_svd(Qs, p.grid)
        self.basis = truncate_to_basis(modes, sigma, self.mode_rule.select(sigma))
        self.last_spectrum = sigma
        self.ops = rom_spod.assemble_spod_rom(self.basis, p.shapes, p.y0, p.grid, self.n_samples)
        return self.basis.r

    def _tracking_along(self, z: np.ndarray) -> rom_spod.SpodTracking:
        """Tracking terms of the held basis along the shift path z, kept while
        the operators and the path stay the same: on an invariant basis z = v t
        on every call, so they are built once per basis; on a snapshot basis
        the cost and the adjoint of one evaluation share one build."""
        p = self.problem
        if self._table is None or self._table[0] is not self.ops:
            # column 0 of the target is its profile (target_path[0] = 0)
            self._table = (self.ops, rom_spod.target_table(self.basis, p.target[:, 0], p.grid))
        held = self._tracking
        if held is None or held[0] is not self.ops or not np.array_equal(held[1], z):
            tracking = rom_spod.tracking_terms(self._table[1], p.target_path, z, p.grid)
            held = self._tracking = (self.ops, z, tracking)
        return held[2]

    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        self._require_basis()
        p = self.problem
        with self.phase("state"):
            traj = rom_spod.solve_spod_state(self.ops, u, p.grid)
        with self.phase("cost"):
            tracking = self._tracking_along(traj.z)
            J = rom_spod.reduced_cost(self.ops, tracking, traj, u, p.mu, p.grid.dt)
        with self.phase("adjoint"):
            adj = rom_spod.solve_spod_adjoint(self.ops, traj, u, tracking, p.grid)
        with self.phase("gradient"):
            g = rom_spod.gradient_spod(self.ops, traj, adj, u, p.mu)
        return J, g

    def cost_only(self, u: np.ndarray) -> CostBreakdown:
        self._require_basis()
        p = self.problem
        traj = rom_spod.solve_spod_state(self.ops, u, p.grid)
        tracking = self._tracking_along(traj.z)
        return rom_spod.reduced_cost(self.ops, tracking, traj, u, p.mu, p.grid.dt)

    def lift(self, u: np.ndarray) -> np.ndarray:
        self._require_basis()
        grid = self.problem.grid
        return rom_spod.lift_spod(self.basis, rom_spod.solve_spod_state(self.ops, u, grid), grid)
