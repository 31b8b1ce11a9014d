"""Gradient-descent driver with adaptive basis refinement and a two-way
backtracking / Barzilai-Borwein step-size rule, generic over a model interface."""
from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fom import CostBreakdown, DivergenceError

PHASES = ("basis", "state", "cost", "adjoint", "gradient", "update")

ARMIJO_C = 1e-4  # sufficient-decrease constant of the step-size search
MAX_HALVINGS = 30
MAX_DOUBLINGS = 30
BB_MIN_STEP, BB_MAX_STEP = 1e-8, 1e3  # clamp of the Barzilai-Borwein step
MAX_BLOCK = 16  # step sizes the search marches at once after its first block

# march(ws) prices the step sizes ws together: price(k) is the cost at ws[k]
March = Callable[[list[float]], Callable[[int], float]]


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


@dataclass(frozen=True)
class Refresh:
    """What one basis refresh did: the mode count it leaves and, when it ran an
    SVD, the snapshot spectrum; never the snapshots or the singular vectors."""

    modes: int
    spectrum: np.ndarray | None


class ControlledModel(ABC):
    """What the descent loop needs from a model.

    `evaluate` must be deterministic for a fixed control and basis state; at
    a control that `move` carried the model's state to, it may differ from a
    fresh evaluation by rounding.
    A model counts the state solves of `evaluate` and its step-size search in
    `state_solves`; a march of a block of step sizes counts once.
    """

    clock: PhaseClock | None = None
    state_solves: int = 0

    def phase(self, name: str):
        """Timing context for one pipeline phase; no-op when unclocked."""
        return nullcontext() if self.clock is None else self.clock.phase(name)

    @abstractmethod
    def evaluate(self, u: np.ndarray) -> tuple[CostBreakdown, np.ndarray]:
        """Cost and gradient at the control u."""

    @abstractmethod
    def refine_basis(self, u: np.ndarray) -> Refresh:
        """Rebuild the reduced basis from fresh snapshots at u; returns what the
        refresh did (no spectrum for the full model or a fixed basis)."""

    @abstractmethod
    def line_cost(self, u: np.ndarray, g: np.ndarray, cost: float) -> March:
        """The step-size search's march: the cost at u - w g for blocks of step
        sizes w, g the gradient `evaluate` gave at u with total cost `cost`; a
        failed step size costs +inf. Its work counts as update time."""

    def move(self, u: np.ndarray, g: np.ndarray, omega: float) -> np.ndarray:
        """The step's control u - omega g, a new array. A model may carry what
        it holds at u along to it: the FOM's direction solve doubles as its
        next state. Its work counts as update time."""
        return u - omega * g

    @property
    def signal_weight(self) -> float:
        """Quadrature weight of the control pairing (dt for time signals)."""
        return 1.0


@dataclass
class IterationRecord:
    """One descent iteration: `refresh` is what refine_basis returned, None when
    the iteration kept the basis; `modes` carries over between refreshes."""

    iteration: int
    total: float
    tracking: float
    regularization: float
    grad_norm: float
    rel_grad_norm: float
    omega: float
    modes: int
    refresh: Refresh | None
    timings: dict[str, float]
    wall: float
    trials: int  # step sizes the search tested; 0 on a Barzilai-Borwein step
    evals: int   # state solves of the evaluation and its search, not of the refresh


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


def pointwise(f: Callable[[float], float]) -> March:
    """The march that prices each step size alone, by f, when it is read."""
    return lambda ws: lambda k: f(ws[k])


def two_way_backtracking(
    march: March,
    g: np.ndarray,
    omega_prev: float,
    current_cost: float,
    weight: float = 1.0,
) -> tuple[float, bool, int]:
    """Armijo search that shrinks or grows from the previous step size.

    march(ws) prices the step sizes ws together and returns price(k), the
    cost of the candidate control at ws[k], computed when it is read; the
    sufficient decrease test is cost(w) <= J - ARMIJO_C w ||g||^2 in the
    weighted pairing. The search reads w = omega_prev, then w/2, w/4, ...
    until one passes if w fails, or 2w, 4w, ... until one fails if w passes.
    It marches the step sizes it can still read: first [w, w/2, 2w, 4w], and
    at a read outside the block it holds, that step size and the next of its
    run, MAX_BLOCK at most. Halving and doubling are exact, so a block holds
    the step sizes the search reads, bit for bit: blocks change how many
    marches run, never which step size is accepted. Returns the step size,
    whether it passed, and the number of step sizes read, each once.
    """
    g_sq = weight * float(np.sum(np.asarray(g) ** 2))
    if g_sq <= 0.0:
        return omega_prev, False, 0
    trials = 0
    omega = omega_prev
    block = [omega, 0.5 * omega, 2.0 * omega, 2.0 * (2.0 * omega)]
    price = march(block)

    def ok(w: float, factor: float, left: int) -> bool:
        """The test at w, a read of the run that steps by factor with `left`
        reads after it; the first read is in the first block."""
        nonlocal trials, block, price
        trials += 1
        if w not in block:
            block = [w]
            for _ in range(min(MAX_BLOCK - 1, left)):
                block.append(factor * block[-1])
            price = march(block)
        val = price(block.index(w))
        return math.isfinite(val) and val <= current_cost - ARMIJO_C * w * g_sq

    if not ok(omega, 0.5, MAX_HALVINGS):
        for i in range(MAX_HALVINGS):
            omega *= 0.5
            if ok(omega, 0.5, MAX_HALVINGS - 1 - i):
                return omega, True, trials
        return omega, False, trials
    for i in range(MAX_DOUBLINGS):
        if not ok(2.0 * omega, 2.0, MAX_DOUBLINGS - 1 - i):
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
    callback: Callable[[IterationRecord, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, OptimizerReport]:
    """Descend from u0 until the relative gradient norm drops below beta or the
    iteration budget runs out. Returns the final control and the full report:
    on convergence the control whose gradient passed the test, whose cost is
    the report's final_cost; at the budget's end the control one step past
    the last one evaluated. `callback` receives each record as it is made,
    with the control after the record's step."""
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

    for i in range(1, config.n_iter + 1):
        t_iter = time.perf_counter()
        refresh = None
        try:
            if i == 1 or refinement_policy(i, last_ok, config):
                with clock.phase("basis"):
                    refresh = model.refine_basis(u)
                mode_count = refresh.modes
                prev_u = prev_g = None  # gradient coordinates changed
            solves = model.state_solves  # the refresh's snapshot solve does not count
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
            u = model.move(u, g, omega)
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
            refresh=refresh,
            timings=timings,
            wall=time.perf_counter() - t_iter,
            trials=trials,
            evals=model.state_solves - solves,
        )
        report.records.append(rec)
        if callback is not None:
            callback(rec, u)

        if rel < config.beta:
            report.status = "converged"
            u = prev_u
            break
    return u, report
