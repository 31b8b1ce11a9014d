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
from typing import Callable, IO

import numpy as np

from .basis import mode_count_by_tolerance
from .control import FMT
from .fom import CostBreakdown, DivergenceError
from .rom_spod import SingularMassError

PHASES = ("basis", "state", "cost", "adjoint", "gradient", "update")


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
class ModeRule:
    """Mode-count selection: either a fixed count or a spectrum tolerance."""

    count: int | None = None
    tol: float | None = None

    def __post_init__(self) -> None:
        if (self.count is None) == (self.tol is None):
            raise ValueError("set exactly one of count and tol")
        if self.count is not None and self.count < 1:
            raise ValueError(f"mode count must be positive, got {self.count}")
        if self.tol is not None and not 0.0 < self.tol < 1.0:
            raise ValueError(f"mode tolerance must lie in (0, 1), got {self.tol}")

    @classmethod
    def fixed(cls, r: int) -> "ModeRule":
        return cls(count=int(r))

    @classmethod
    def tolerance(cls, tol: float) -> "ModeRule":
        return cls(tol=float(tol))

    def select(self, sigma: np.ndarray) -> int:
        if self.count is not None:
            return min(self.count, len(sigma))
        return mode_count_by_tolerance(sigma, self.tol)


@dataclass(frozen=True)
class OptimizerConfig:
    mu: float = 1e-3
    beta: float = 1e-5
    omega0: float = 1.0
    n_iter: int = 20000
    mode_rule: ModeRule = field(default_factory=lambda: ModeRule.fixed(10))
    refine_every: int = 5
    bb_switch_threshold: float = 5e-3

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError(f"regularization weight must be positive, got {self.mu}")
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
    def describe(self) -> str:
        ...

    @abstractmethod
    def cost_only(self, u: np.ndarray) -> CostBreakdown:
        """Cost without the adjoint work, as the line search needs it. It
        records no phase, so line-search work counts as update time."""

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

    def cost_history(self) -> np.ndarray:
        return np.asarray([r.total for r in self.records])


STREAM_COLUMNS = (
    "iteration", "J", "tracking", "regularization", "grad_norm",
    "rel_grad_norm", "omega", "modes", "refined",
    *PHASES, "wall",
)


def record_row(rec: IterationRecord) -> list:
    """The record as CSV fields, in STREAM_COLUMNS order."""
    return (
        [rec.iteration, FMT % rec.total, FMT % rec.tracking, FMT % rec.regularization,
         FMT % rec.grad_norm, FMT % rec.rel_grad_norm, FMT % rec.omega, rec.modes,
         int(rec.refined)]
        + [FMT % rec.timings[p] for p in PHASES]
        + [FMT % rec.wall]
    )


def two_way_backtracking(
    f: Callable[[float], float],
    g: np.ndarray,
    omega_prev: float,
    current_cost: float,
    weight: float = 1.0,
    c: float = 1e-4,
    max_halvings: int = 30,
    max_doublings: int = 30,
) -> tuple[float, bool]:
    """Armijo search that shrinks or grows from the previous step size.

    f maps a step size to the cost of the candidate control; the sufficient
    decrease test is f(w) <= J - c w ||g||^2 in the weighted pairing.
    """
    g_sq = weight * float(np.sum(np.asarray(g) ** 2))
    if g_sq <= 0.0:
        return omega_prev, False

    def ok(w: float) -> bool:
        val = f(w)
        return math.isfinite(val) and val <= current_cost - c * w * g_sq

    omega = omega_prev
    if not ok(omega):
        for _ in range(max_halvings):
            omega *= 0.5
            if ok(omega):
                return omega, True
        return omega, False
    for _ in range(max_doublings):
        if not ok(2.0 * omega):
            break
        omega *= 2.0
    return omega, True


def barzilai_borwein_step(
    s: np.ndarray,
    y: np.ndarray,
    prev_omega: float,
    weight: float = 1.0,
    lo: float = 1e-8,
    hi: float = 1e3,
) -> float:
    """First Barzilai-Borwein step <s,s>/<s,y>, clamped; degenerate curvature
    falls back to the previous step size."""
    sy = weight * float(np.sum(np.asarray(s) * np.asarray(y)))
    ss = weight * float(np.sum(np.asarray(s) ** 2))
    if not math.isfinite(sy) or sy <= 0.0 or ss == 0.0:
        return prev_omega
    return float(min(max(ss / sy, lo), hi))


def refinement_policy(i: int, last_linesearch_ok: bool, config: OptimizerConfig) -> bool:
    """Refine on the fixed cadence and whenever the step-size search failed."""
    return (i % config.refine_every == 0) or (not last_linesearch_ok)


def optimize(
    model: ControlledModel,
    u0: np.ndarray,
    config: OptimizerConfig,
    stream: str | Path | IO[str] | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
    flush_every: int = 50,
) -> tuple[np.ndarray, OptimizerReport]:
    """Descend from u0 until the relative gradient norm drops below beta or the
    iteration budget runs out. Returns the final control and the full report."""
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

    own_stream = None
    writer = None
    if stream is not None:
        if isinstance(stream, (str, Path)):
            own_stream = open(stream, "w", newline="")
            fh = own_stream
        else:
            fh = stream
        writer = csv.writer(fh)
        writer.writerow(STREAM_COLUMNS)

    try:
        for i in range(1, config.n_iter + 1):
            t_iter = time.perf_counter()
            refined = False
            if i == 1 or refinement_policy(i, last_ok, config):
                with clock.phase("basis"):
                    mode_count = model.refine_basis(u)
                refined = True
                prev_u = prev_g = None  # gradient coordinates changed
                last_ok = True
            try:
                cost, g = model.evaluate(u)
            except (DivergenceError, SingularMassError):
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
                    success = True
                else:
                    cache: dict[float, float] = {}

                    def trial(w: float) -> float:
                        if w not in cache:
                            try:
                                cache[w] = model.cost_only(u - w * g).total
                            except (DivergenceError, SingularMassError):
                                cache[w] = math.inf
                        return cache[w]

                    omega, success = two_way_backtracking(trial, g, omega, cost.total, weight)
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
            )
            report.records.append(rec)
            if writer is not None:
                writer.writerow(record_row(rec))
                if i % flush_every == 0:
                    fh.flush()
            if callback is not None:
                callback(i, u)

            if rel < config.beta:
                report.status = "converged"
                break
        else:
            report.status = "max_iter"
    finally:
        if own_stream is not None:
            own_stream.close()
        elif writer is not None:
            fh.flush()
    return u, report
