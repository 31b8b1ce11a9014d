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
MAX_BLOCK = 16  # step sizes a batched search marches at once after its first block


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

    `evaluate` must be deterministic for a fixed control and basis state.
    A model counts the state solves of `evaluate`, `cost_only` and its step-size
    search in `state_solves`; a march of a block of step sizes counts once.
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
    evals: int   # state solves of the evaluation and the search, not of the refresh


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
    *PHASES, "wall", "trials", "evals",
)


def record_row(rec: IterationRecord) -> list:
    """The record as CSV fields, in STREAM_COLUMNS order."""
    return (
        [rec.iteration, FMT % rec.total, FMT % rec.tracking, FMT % rec.regularization,
         FMT % rec.grad_norm, FMT % rec.rel_grad_norm, FMT % rec.omega, rec.modes,
         int(rec.refresh is not None)]
        + [FMT % rec.timings[p] for p in PHASES]
        + [FMT % rec.wall, rec.trials, rec.evals]
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


def blocked_line_cost(
    march: Callable[[list[float]], Callable[[int], float]],
) -> Callable[[float], float]:
    """The cost at a step size for two_way_backtracking, from blocks of step sizes
    priced together: march(ws) marches the block ws at once and returns
    price(k), the cost at ws[k], computed when it is read.

    The first step size read, w, marches [w, w/2, 2w, 4w]: if w fails the search
    reads w/2 next; if w passes it reads 2w, and 4w if 2w passes too. A step size outside every block
    marched so far marches the rest of its direction from it, by repeated
    halving below w and doubling above it, MAX_BLOCK at most and no more than
    the search can still read there. Halving and doubling are exact, so the
    step sizes of a block are the ones the search reads, bit for bit, and the
    search reads the costs it would read trial by trial: the blocks change how
    many marches run, never which step size is accepted. A block is dropped
    when the next one is marched."""
    blocks: dict[float, tuple[Callable[[int], float], int]] = {}
    first: float | None = None
    below = above = 0  # step sizes read on either side of the first

    def cost(w: float) -> float:
        nonlocal first, below, above
        if first is None:
            first = w
        elif w < first:
            below += 1
        elif w > first:
            above += 1
        if w not in blocks:
            if w == first:
                block = [w, 0.5 * w, 2.0 * w, 2.0 * (2.0 * w)]
            else:
                factor, left = ((0.5, MAX_HALVINGS - below) if w < first
                                else (2.0, MAX_DOUBLINGS - above))
                block = [w]
                while len(block) <= min(MAX_BLOCK - 1, left):
                    block.append(factor * block[-1])
            blocks.clear()  # the search moves one way and reads no step size twice
            price = march(block)
            for k, wk in enumerate(block):
                blocks.setdefault(wk, (price, k))
        price, k = blocks[w]
        return price(k)

    return cost


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
    iteration budget runs out. Returns the final control and the full report:
    on convergence the control whose gradient passed the test, whose cost is
    the report's final_cost; at the budget's end the control one step past
    the last one evaluated. With `stream`, the records also go to that CSV
    file, flushed every 50 iterations."""
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
                refresh=refresh,
                timings=timings,
                wall=time.perf_counter() - t_iter,
                trials=trials,
                evals=model.state_solves - solves,
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
                u = prev_u
                break
    return u, report
