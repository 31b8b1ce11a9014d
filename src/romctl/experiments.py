"""Scenario assembly, configuration files, the artifact-producing runs, and
the writers of the artifact files."""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fom
from .basis import ModeRule, singular_values
from .control import build_fourier_shapes
from .discretization import SpaceTimeGrid
from .fom import DivergenceError
from .models import ControlProblem, FomModel, PodModel, ProblemModel, SpodModel
from .optimizer import (
    PHASES,
    ControlledModel,
    IterationRecord,
    OptimizerConfig,
    OptimizerReport,
    optimize,
)
from .rom_spod import certify_smallness
from .transform import shift_columns, transform_snapshots, uncontrolled_shift_path


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TargetSpec:
    """Piecewise-constant target velocity: the wave travels at v until the
    first kink, then at the listed velocities after each kink time fraction."""

    segments: tuple[tuple[float, float], ...] = ()

    def displacement(self, t: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
        """Integral of the target velocity from 0 to each time."""
        t = np.asarray(t, dtype=float)
        times = [0.0] + [f * grid.T for f, _ in self.segments]
        vels = [grid.v] + [v for _, v in self.segments]
        zeta = np.zeros_like(t)
        base = 0.0
        for k, (t0, v) in enumerate(zip(times, vels)):
            t1 = times[k + 1] if k + 1 < len(times) else np.inf
            inside = (t >= t0) & (t < t1)
            zeta[inside] = base + v * (t[inside] - t0)
            if np.isfinite(t1):
                base += v * (t1 - t0)
        return zeta


def single_tilt_target(tilt_factor: float, v: float) -> TargetSpec:
    return TargetSpec(segments=((0.75, tilt_factor * v),))


def double_tilt_target(tilt_factor: float, v: float) -> TargetSpec:
    return TargetSpec(segments=((0.25, tilt_factor * v), (0.75, v)))


def build_target(grid: SpaceTimeGrid, y0: np.ndarray, spec: TargetSpec) -> np.ndarray:
    """Snapshot matrix of the target wave: column j is y0 shifted by the
    accumulated target displacement at t_j."""
    return shift_columns(y0, spec.displacement(grid.t, grid), grid)


def gaussian_initial_condition(grid: SpaceTimeGrid) -> np.ndarray:
    """exp(-(x - l/12)^2), its subnormal tail flushed to zero."""
    y0 = np.exp(-((grid.x - grid.l / 12.0) ** 2))
    y0[y0 < np.finfo(float).tiny] = 0.0
    return y0


SIGNAL_HARMONICS = 3
FD_STEP = 1e-5  # central finite-difference step of fd_gradient_check
RANK_STUDY_EVERY = 10  # iterations between the rank study's spectrum samples


def smooth_random_signal(rng, m: int, n_t: int, amp: float = 1.0) -> np.ndarray:
    """Random control signal that is smooth in time (SIGNAL_HARMONICS Fourier
    harmonics), so that its identity is resolution independent."""
    tg = np.linspace(0.0, 1.0, n_t)
    sig = np.zeros((m, n_t))
    for q in range(1, SIGNAL_HARMONICS + 1):
        sig += rng.standard_normal((m, 1)) * np.sin(np.pi * q * tg)
        sig += rng.standard_normal((m, 1)) * np.cos(np.pi * q * tg)
    return amp * sig


@dataclass(frozen=True)
class ScenarioConfig:
    l: float = 100.0
    n: int = 3201
    T: float = 136.2642
    n_t: int = 2400
    v: float = 0.55
    xi: int = 20
    mu: float = 1e-3
    beta: float = OptimizerConfig.beta
    omega0: float = OptimizerConfig.omega0
    n_iter: int = OptimizerConfig.n_iter
    refine_every: int = OptimizerConfig.refine_every
    bb_switch_threshold: float = OptimizerConfig.bb_switch_threshold
    model: str = "fom"
    modes: int | None = None
    mode_tol: float | None = None
    problem: str = "single_tilt"
    tilt_factor: float = 0.0
    eigenfunction_basis: bool = False
    out: str = "out"

    def __post_init__(self) -> None:
        """Reject bad settings before any output is written; every replace()
        of a config runs these checks again."""
        if self.model not in ("fom", "pod", "spod"):
            raise ConfigError(f"model must be fom, pod, or spod, got {self.model!r}")
        if self.modes is not None and self.mode_tol is not None:
            raise ConfigError("set at most one of modes and mode_tol")
        if self.model == "fom" and (self.modes is not None or self.mode_tol is not None):
            raise ConfigError("modes and mode_tol choose a reduced basis; model = fom has none")
        if self.eigenfunction_basis and self.model != "spod":
            raise ConfigError(f"model = {self.model} ignores eigenfunction_basis, an sPOD-G basis")
        if self.eigenfunction_basis and (self.modes is not None or self.mode_tol is not None):
            raise ConfigError("eigenfunction_basis fixes the basis; it ignores modes and mode_tol")
        if self.mu <= 0:
            raise ConfigError(f"regularization weight mu must be positive, got {self.mu}")
        if not self.out:  # Path("") is the working directory
            raise ConfigError("out must name an output directory, got an empty value")
        try:
            build_fourier_shapes(self.grid(), self.xi)  # checks 0 <= 2 xi < n
            self.target_spec()
            self.mode_rule()
            self.optimizer_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> SpaceTimeGrid:
        return SpaceTimeGrid(l=self.l, n=self.n, T=self.T, n_t=self.n_t, v=self.v)

    def target_spec(self) -> TargetSpec:
        if self.problem == "double_tilt":
            return double_tilt_target(self.tilt_factor, self.v)
        if self.problem == "single_tilt":
            return single_tilt_target(self.tilt_factor, self.v)
        raise ConfigError(f"unknown problem {self.problem!r}")

    def mode_rule(self) -> ModeRule:
        if self.mode_tol is not None:
            return ModeRule.tolerance(self.mode_tol)
        if self.modes is not None:
            return ModeRule.fixed(self.modes)
        return ModeRule.fixed(2 * self.xi + 2)  # invariant-subspace dimension

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(**{f.name: getattr(self, f.name) for f in fields(OptimizerConfig)})


def _finite(s: str) -> float:
    val = float(s)
    if not math.isfinite(val):
        raise ValueError(f"{s!r} is not a finite number")
    return val


def _bool(s: str) -> bool:
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    if s.lower() not in words:
        raise ValueError(f"expected true or false, got {s!r}")
    return words[s.lower()]


# each key parses by the annotation of its field, a string under the
# future import
_BY_TYPE = {
    "int": int, "int | None": int, "float": _finite, "float | None": _finite,
    "str": str, "bool": _bool,
}
_PARSERS = {f.name: _BY_TYPE[f.type] for f in fields(ScenarioConfig)}


# a comment starts at a '#' at the start of a line or after whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(path: str | Path) -> ScenarioConfig:
    """Flat key = value file with # comments, each starting at a # at the start
    of a line or after whitespace; any other # (as in `out = run#1`), unknown
    keys and repeated keys are errors, missing keys take the defaults."""
    path = Path(path)
    overrides: dict = {}
    set_at: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0]
        if "#" in line:
            raise ConfigError(f"{path}:{lineno}: '#' inside a value; a comment starts at "
                              f"a '#' after whitespace, got {raw!r}")
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_at:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {set_at[key]}")
        set_at[key] = lineno
        try:
            overrides[key] = _PARSERS[key](value)
        except Exception as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return ScenarioConfig(**overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_model(cfg: ScenarioConfig) -> ProblemModel:
    grid = cfg.grid()
    shapes = build_fourier_shapes(grid, cfg.xi)
    y0 = gaussian_initial_condition(grid)
    spec = cfg.target_spec()
    problem = ControlProblem(
        grid, shapes, y0, build_target(grid, y0, spec), spec.displacement(grid.t, grid), cfg.mu
    )
    if cfg.model == "fom":
        return FomModel(problem)
    if cfg.model == "pod":
        return PodModel(problem, cfg.mode_rule())
    return SpodModel(problem, cfg.mode_rule(), cfg.eigenfunction_basis)


FMT = "%.17g"  # every float of a CSV artifact, round-trip exact

STREAM_COLUMNS = (
    "iteration", "J", "tracking", "regularization", "grad_norm",
    "rel_grad_norm", "omega", "modes", "refined",
    *PHASES, "wall", "trials", "evals",
)
STREAM_FLUSH_EVERY = 50  # iterations between flushes of iterations.csv


def record_row(rec: IterationRecord) -> list:
    """The record as CSV fields, in STREAM_COLUMNS order."""
    return (
        [rec.iteration, FMT % rec.total, FMT % rec.tracking, FMT % rec.regularization,
         FMT % rec.grad_norm, FMT % rec.rel_grad_norm, FMT % rec.omega, rec.modes,
         int(rec.refresh is not None)]
        + [FMT % rec.timings[p] for p in PHASES]
        + [FMT % rec.wall, rec.trials, rec.evals]
    )


# each history file is a column subset of the iteration records
_HISTORY_CSVS = (
    ("cost_history.csv", ("iteration", "J", "tracking", "regularization")),
    ("gradient_history.csv", ("iteration", "grad_norm", "rel_grad_norm", "omega")),
    ("modes_per_iteration.csv", ("iteration", "modes", "refined")),
    ("timings.csv", ("iteration", *PHASES, "wall")),
)


def _write_csv(path: Path, columns, table, fmt) -> None:
    """Every CSV artifact: the header `columns`, then one line per row of
    `table` with its values in `fmt`, comma-separated, each line ending in
    CRLF (RFC 4180)."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", header=",".join(columns),
                   comments="", newline="\r\n")


def _write_state_bin(path: Path, Q: np.ndarray) -> None:
    """final_state.bin: the two dims as a 16-byte little-endian header (<QQ),
    then Q as little-endian float64 in C order, written from Q itself when it
    is C-ordered float64 (not by ndarray.tofile, which writes other layouts
    element by element and raised the peak RSS of a run)."""
    with open(path, "wb") as fh:
        fh.write(np.array(Q.shape, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(Q, "<f8").data)


def _write_history_csvs(outdir: Path, report: OptimizerReport) -> None:
    rows = [record_row(r) for r in report.records]
    for name, columns in _HISTORY_CSVS:
        idx = [STREAM_COLUMNS.index(c) for c in columns]
        _write_csv(outdir / name, columns, [[row[k] for k in idx] for row in rows], "%s")


_PLOT_SCRIPT = """\
# gnuplot command file for the run artifacts
set datafile separator ','
set key autotitle columnhead
set logscale y
set xlabel 'iteration'
set ylabel 'J'
plot 'cost_history.csv' using 1:2 with lines
pause -1
set ylabel 'relative gradient norm'
plot 'gradient_history.csv' using 1:3 with lines
pause -1
set ylabel 'modes'
unset logscale y
plot 'modes_per_iteration.csv' using 1:2 with steps
pause -1
"""


def _save_final_state(outdir: Path, model: ProblemModel, u: np.ndarray) -> dict:
    """Write the model's state at u to final_state.bin and return the
    full-order cost at u (fom_cost) with the relative gap of the cost of the
    written state from it (rom_gap; the FOM's state is the full-order one).
    rom_gap is None when fom_cost is 0, where no relative gap exists. When
    the model's solve at u diverges (at the budget's end u is one step past
    the last evaluated control), no file is written and rom_gap is None;
    fom_cost is None when the full-order solve at u diverges."""
    p = model.problem
    try:
        lifted = model.lift(u)
    except DivergenceError:
        lifted_cost = None
    else:
        _write_state_bin(outdir / "final_state.bin", lifted)
        lifted_cost = fom.cost(p.grid, lifted, p.target, u, p.mu).total
        del lifted  # the full-order state below takes its place
    if isinstance(model, FomModel):
        fom_cost = lifted_cost
    else:
        try:
            state = fom.solve_state(p.grid, p.shapes, u, p.y0)
        except DivergenceError:
            fom_cost = None
        else:
            fom_cost = fom.cost(p.grid, state, p.target, u, p.mu).total
    gap = (abs(lifted_cost - fom_cost) / fom_cost
           if fom_cost and lifted_cost is not None else None)
    return {"fom_cost": fom_cost, "rom_gap": gap}


def _strict(meta: dict) -> dict:
    """meta with every non-finite float as None: strict JSON (RFC 8259) has
    no NaN or Infinity."""
    return {k: _strict(v) if isinstance(v, dict)
            else None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in meta.items()}


def _smallness(model: ProblemModel, u: np.ndarray) -> dict:
    """The sPOD-G smallness certificate of the held operators at u: its slack
    zeta and whether it holds. None for the linear models, which need none,
    before the first refresh has built operators, and when zero initial
    amplitudes make the bound vacuous."""
    none = {"smallness_zeta": None, "smallness_satisfied": None}
    if not isinstance(model, SpodModel) or model.ops is None:
        return none
    try:
        cert = certify_smallness(model.ops, u)
    except ValueError:
        return none
    return {"smallness_zeta": cert.zeta, "smallness_satisfied": cert.satisfied}


def run_scenario(cfg: ScenarioConfig, quiet: bool = False) -> int:
    """Run one optimization scenario and write all artifacts; returns the exit
    status (0 on converged or max_iter, 3 on divergence). A completed iteration
    i whose refresh ran an SVD writes its spectrum to singular_values_iter{i:05d}.csv."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model = build_model(cfg)
    grid = model.problem.grid
    u0 = np.zeros((model.problem.shapes.m, grid.n_t))

    # iterations.csv is written as the run goes, one CRLF line per record
    with open(outdir / "iterations.csv", "w", newline="") as fh:
        fh.write(",".join(STREAM_COLUMNS) + "\r\n")

        def stream(rec: IterationRecord, u: np.ndarray) -> None:
            fh.write(",".join(map(str, record_row(rec))) + "\r\n")
            if rec.iteration % STREAM_FLUSH_EVERY == 0:
                fh.flush()

        u, report = optimize(model, u0, cfg.optimizer_config(), callback=stream)

    _write_history_csvs(outdir, report)
    for rec in report.records:
        if rec.refresh is not None and rec.refresh.spectrum is not None:
            _write_csv(outdir / f"singular_values_iter{rec.iteration:05d}.csv", ["sigma"],
                       rec.refresh.spectrum, FMT)
    _write_csv(outdir / "final_control.csv", [f"u_{k + 1}" for k in range(u.shape[0])], u.T, FMT)
    (outdir / "plots.gp").write_text(_PLOT_SCRIPT)

    meta = {
        "config": vars(cfg),
        "status": report.status,
        "iterations": report.iterations,
        "final_cost": report.final_cost,
        "cfl": grid.cfl,
        "modes_final": report.records[-1].modes if report.records else 0,
        **_smallness(model, u),
    }
    if report.status != "diverged":
        meta.update(_save_final_state(outdir, model, u))
    (outdir / "run_meta.json").write_text(json.dumps(_strict(meta), indent=2, allow_nan=False)
                                          + "\n")
    if not quiet:
        print(
            f"[{cfg.model}] {report.status} after {report.iterations} iterations, "
            f"J = {report.final_cost:.6g} -> {outdir}"
        )
    return 0 if report.status in ("converged", "max_iter") else 3


def run_rank_study(cfg: ScenarioConfig, quiet: bool = False) -> int:
    """Optimize with the invariant-subspace basis while recording the relative
    singular values sigma_{m+1}/sigma_1 and sigma_{m+2}/sigma_1 of the
    co-moving snapshot matrix at the start and every RANK_STUDY_EVERY
    iterations."""
    if cfg.model != "spod" or not cfg.eigenfunction_basis:
        raise ConfigError(
            "rank-study runs sPOD-G on the invariant-subspace basis; "
            "set model = spod and eigenfunction_basis = true"
        )
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model = build_model(cfg)
    grid, shapes, y0 = model.problem.grid, model.problem.shapes, model.problem.y0
    path = uncontrolled_shift_path(grid)
    m = shapes.m
    rows: list[tuple[int, float, float]] = []

    def ratios(u: np.ndarray) -> tuple[float, float]:
        Q = fom.solve_state(grid, shapes, u, y0)
        sigma = singular_values(transform_snapshots(Q, path, grid), grid)
        s1 = sigma[0]
        get = lambda k: float(sigma[k] / s1) if k < len(sigma) else 0.0
        return get(m), get(m + 1)

    u0 = np.zeros((m, grid.n_t))
    rows.append((0, *ratios(u0)))

    def spy(rec: IterationRecord, u: np.ndarray) -> None:
        if rec.iteration % RANK_STUDY_EVERY == 0:
            rows.append((rec.iteration, *ratios(u)))

    u, report = optimize(model, u0, cfg.optimizer_config(), callback=spy)
    _write_csv(outdir / "rank_study.csv", ["iteration", "sv_ratio_m_plus_1", "sv_ratio_m_plus_2"],
               rows, ["%d", FMT, FMT])
    if not quiet:
        worst = max(r2 for _, _, r2 in rows)
        print(
            f"[rank-study] {report.status} after {report.iterations} iterations; "
            f"max sigma_(m+2)/sigma_1 = {worst:.3e} -> {outdir}"
        )
    return 0 if report.status in ("converged", "max_iter") else 3


def fd_gradient_check(
    model: ControlledModel,
    u: np.ndarray,
    n_directions: int = 10,
    seed: int = 0,
) -> list[float]:
    """Relative errors between the adjoint directional derivative and central
    finite differences of the model cost, over random smooth directions. A
    reduced model is checked on the basis it holds."""
    rng = np.random.default_rng(seed)
    weight = model.signal_weight
    _, g = model.evaluate(u)
    m, n_t = u.shape
    errors = []
    for _ in range(n_directions):
        du = smooth_random_signal(rng, m, n_t)
        jp = model.evaluate(u + FD_STEP * du)[0].total
        jm = model.evaluate(u - FD_STEP * du)[0].total
        fd = (jp - jm) / (2.0 * FD_STEP)
        ad = weight * float(np.sum(g * du))
        denom = max(abs(fd), 1e-300)
        errors.append(abs(ad - fd) / denom)
    return errors
