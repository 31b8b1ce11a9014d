"""Gradient-descent driver with adaptive basis refinement and a two-way
backtracking / Barzilai-Borwein step-size rule, generic over a model interface."""
from __future__ import annotations

import csv
import math
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .control import FMT
from .fom import CostBreakdown, DivergenceError

PHASES = ("basis", "state", "cost", "adjoint", "gradient", "update")

ARMIJO_C = 1e-4  # sufficient-decrease constant of the step-size search
MAX_HALVINGS = 30
MAX_DOUBLINGS = 30
BB_MIN_STEP, BB_MAX_STEP = 1e-8, 1e3  # clamp of the Barzilai-Borwein step


class PhaseClock:
    """Accumulates wall time per pipeline phase; models and driver share one."""

    def __init__(self) -> None:
        self.acc = {p: 0.0 for p in PHASES}

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.acc[name] += time.perf_counter() - t0

    def drain(self) -> dict[str, float]:
        out = dict(self.acc)
        for p in PHASES:
            self.acc[p] = 0.0
        return out


@dataclass(frozen=True)
class OptimizerConfig:
    beta: float = 1e-5
    omega0: float = 1.0
    n_iter: int = 20000
    refine_every: int = 5
    bb_switch_threshold: float = 5e-3

    def __post_init__(self) -> None:
        if self.n_iter < 1 or self.refine_every < 1:
            raise ValueError("iteration counts must be positive")
        if self.omega0 <= 0:
            raise ValueError(f"initial step must be positive, got {self.omega0}")


class ControlledModel(ABC):
    """What the descent loop needs from a model.

    `evaluate` must be deterministic for a fixed control and basis state.
    """

    clock: PhaseClock | None = None

    def phase(self, name: str):
        """Timing context for one pipeline phase; no-op when unclocked."""
        return nullcontext() if self.clock is None else self.clock.phase(name)

    @abstractmethod
    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        """Cost and gradient at the control u."""

    @abstractmethod
    def refine_basis(self, u: np.ndarray) -> int:
        """Rebuild the reduced basis from fresh snapshots at u; returns the
        mode count (a no-op for the full model)."""

    @abstractmethod
    def cost_only(self, u: np.ndarray) -> CostBreakdown:
        """Cost without the adjoint work: one state solve. It records no
        phase; the default line_cost calls it once per step size."""

    def line_cost(self, u: np.ndarray, g: np.ndarray, cost: float) -> Callable[[float], float]:
        """The cost at u - w g as a function of the step size w, for g the
        gradient `evaluate` returned at u with total cost `cost`; the step-size
        search reads it. Here each step size is one cost_only trial, and a
        trial that diverges costs +inf. Its work counts as update time."""

        def trial(w: float) -> float:
            try:
                return self.cost_only(u - w * g).total
            except DivergenceError:
                return math.inf

        return trial

    @property
    def signal_weight(self) -> float:
        """Quadrature weight of the control pairing (dt for time signals)."""
        return 1.0


@dataclass
class IterationRecord:
    iteration: int
    total: float
    tracking: float
    regularization: float
    grad_norm: float
    rel_grad_norm: float
    omega: float
    modes: int
    refined: bool
    timings: dict[str, float]
    wall: float
    trials: int  # step sizes the search tested; 0 on a Barzilai-Borwein step


@dataclass
class OptimizerReport:
    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iter"

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_cost(self) -> float:
        return self.records[-1].total if self.records else math.nan


STREAM_COLUMNS = (
    "iteration", "J", "tracking", "regularization", "grad_norm",
    "rel_grad_norm", "omega", "modes", "refined",
    *PHASES, "wall", "trials",
)


def record_row(rec: IterationRecord) -> list:
    """The record as CSV fields, in STREAM_COLUMNS order."""
    return (
        [rec.iteration, FMT % rec.total, FMT % rec.tracking, FMT % rec.regularization,
         FMT % rec.grad_norm, FMT % rec.rel_grad_norm, FMT % rec.omega, rec.modes,
         int(rec.refined)]
        + [FMT % rec.timings[p] for p in PHASES]
        + [FMT % rec.wall, rec.trials]
    )


def two_way_backtracking(
    f: Callable[[float], float],
    g: np.ndarray,
    omega_prev: float,
    current_cost: float,
    weight: float = 1.0,
) -> tuple[float, bool, int]:
    """Armijo search that shrinks or grows from the previous step size.

    f maps a step size to the cost of the candidate control; the sufficient
    decrease test is f(w) <= J - ARMIJO_C w ||g||^2 in the weighted pairing.
    Returns the step size, whether it passed, and the number of step sizes
    tested, each once.
    """
    g_sq = weight * float(np.sum(np.asarray(g) ** 2))
    if g_sq <= 0.0:
        return omega_prev, False, 0
    trials = 0

    def ok(w: float) -> bool:
        nonlocal trials
        trials += 1
        val = f(w)
        return math.isfinite(val) and val <= current_cost - ARMIJO_C * w * g_sq

    omega = omega_prev
    if not ok(omega):
        for _ in range(MAX_HALVINGS):
            omega *= 0.5
            if ok(omega):
                return omega, True, trials
        return omega, False, trials
    for _ in range(MAX_DOUBLINGS):
        if not ok(2.0 * omega):
            break
        omega *= 2.0
    return omega, True, trials


def barzilai_borwein_step(
    s: np.ndarray,
    y: np.ndarray,
    prev_omega: float,
    weight: float = 1.0,
) -> float:
    """First Barzilai-Borwein step <s,s>/<s,y>, clamped; degenerate curvature
    falls back to the previous step size."""
    sy = weight * float(np.sum(np.asarray(s) * np.asarray(y)))
    ss = weight * float(np.sum(np.asarray(s) ** 2))
    if not math.isfinite(sy) or sy <= 0.0 or ss == 0.0:
        return prev_omega
    return float(min(max(ss / sy, BB_MIN_STEP), BB_MAX_STEP))


def refinement_policy(i: int, last_linesearch_ok: bool, config: OptimizerConfig) -> bool:
    """Refine on the fixed cadence and whenever the step-size search failed."""
    return (i % config.refine_every == 0) or (not last_linesearch_ok)


def optimize(
    model: ControlledModel,
    u0: np.ndarray,
    config: OptimizerConfig,
    stream: str | Path | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, OptimizerReport]:
    """Descend from u0 until the relative gradient norm drops below beta or the
    iteration budget runs out. Returns the final control and the full report;
    with `stream`, the records also go to that CSV file, flushed every 50
    iterations."""
    clock = PhaseClock()
    model.clock = clock
    weight = model.signal_weight

    report = OptimizerReport()
    u = np.array(u0, dtype=float, copy=True)
    omega = config.omega0
    last_ok = True
    bb_phase = False
    mode_count = 0
    prev_u: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    g1_norm: float | None = None

    with (nullcontext() if stream is None else open(stream, "w", newline="")) as fh:
        writer = None if fh is None else csv.writer(fh)
        if writer is not None:
            writer.writerow(STREAM_COLUMNS)
        for i in range(1, config.n_iter + 1):
            t_iter = time.perf_counter()
            refined = False
            try:
                if i == 1 or refinement_policy(i, last_ok, config):
                    with clock.phase("basis"):
                        mode_count = model.refine_basis(u)
                    refined = True
                    prev_u = prev_g = None  # gradient coordinates changed
                cost, g = model.evaluate(u)
            except DivergenceError:  # in the snapshot solve of a refresh or in the model
                report.status = "diverged"
                break

            gnorm = math.sqrt(weight * float(np.sum(g * g)))
            if g1_norm is None:
                g1_norm = gnorm if gnorm > 0.0 else 1.0
            rel = gnorm / g1_norm
            if rel < config.bb_switch_threshold:
                bb_phase = True

            with clock.phase("update"):
                if bb_phase and prev_u is not None:
                    omega = barzilai_borwein_step(u - prev_u, g - prev_g, omega, weight)
                    success, trials = True, 0
                else:
                    omega, success, trials = two_way_backtracking(
                        model.line_cost(u, g, cost.total), g, omega, cost.total, weight
                    )
                prev_u, prev_g = u, g
                u = u - omega * g
            last_ok = success

            timings = clock.drain()
            rec = IterationRecord(
                iteration=i,
                total=cost.total,
                tracking=cost.tracking,
                regularization=cost.regularization,
                grad_norm=gnorm,
                rel_grad_norm=rel,
                omega=omega,
                modes=mode_count,
                refined=refined,
                timings=timings,
                wall=time.perf_counter() - t_iter,
                trials=trials,
            )
            report.records.append(rec)
            if writer is not None:
                writer.writerow(record_row(rec))
                if i % 50 == 0:
                    fh.flush()
            if callback is not None:
                callback(i, u)

            if rel < config.beta:
                report.status = "converged"
                break
    return u, report
