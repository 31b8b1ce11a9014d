"""Scenario assembly, configuration files, and the artifact-producing runs."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fom
from .basis import save_spectrum_csv, weighted_svd
from .control import FMT, build_fourier_shapes, save_control_csv
from .discretization import SpaceTimeGrid
from .models import ControlProblem, FomModel, PodModel, ProblemModel, SpodModel
from .optimizer import (
    PHASES,
    STREAM_COLUMNS,
    ControlledModel,
    ModeRule,
    OptimizerConfig,
    OptimizerReport,
    optimize,
    record_row,
)
from .transform import shift_columns, transform_snapshots, uncontrolled_shift_path


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TargetSpec:
    """Piecewise-constant target velocity: the wave travels at v until the
    first kink, then at the listed velocities after each kink time fraction."""

    segments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        fracs = [f for f, _ in self.segments]
        if any(not 0.0 < f < 1.0 for f in fracs):
            raise ConfigError(f"kink fractions must lie in (0, 1), got {fracs}")
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise ConfigError(f"kink fractions must be strictly increasing, got {fracs}")

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
    return np.exp(-((grid.x - grid.l / 12.0) ** 2))


def smooth_random_signal(rng, m: int, n_t: int, amp: float = 1.0, harmonics: int = 3) -> np.ndarray:
    """Random control signal that is smooth in time (a few Fourier harmonics),
    so that its identity is resolution independent."""
    tg = np.linspace(0.0, 1.0, n_t)
    sig = np.zeros((m, n_t))
    for q in range(1, harmonics + 1):
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
    beta: float = 1e-5
    omega0: float = 1.0
    n_iter: int = 20000
    n_samples: int = 800
    refine_every: int = 5
    bb_switch_threshold: float = 5e-3
    model: str = "fom"
    modes: int | None = None
    mode_tol: float | None = None
    problem: str = "single_tilt"
    tilt_factor: float = 0.0
    kinks: tuple[float, ...] = ()
    kink_velocities: tuple[float, ...] = ()  # in units of v, paired with kinks
    eigenfunction_basis: bool = False
    rank_study_every: int = 10
    seed: int = 0
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
        if self.problem != "custom" and (self.kinks or self.kink_velocities):
            raise ConfigError("kinks and kink_velocities are read only by problem = custom")
        if self.problem == "custom" and self.tilt_factor != 0.0:
            raise ConfigError("problem = custom ignores tilt_factor; set kink_velocities")
        if self.xi < 0:
            raise ConfigError(f"xi must be nonnegative, got {self.xi}")
        if self.n_samples < 2:
            raise ConfigError(f"n_samples must be at least 2, got {self.n_samples}")
        if self.rank_study_every < 1:
            raise ConfigError(f"rank_study_every must be positive, got {self.rank_study_every}")
        try:
            self.grid()
            self.target_spec()
            self.optimizer_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> SpaceTimeGrid:
        return SpaceTimeGrid(l=self.l, n=self.n, T=self.T, n_t=self.n_t, v=self.v)

    def target_spec(self) -> TargetSpec:
        if self.problem == "custom":
            if len(self.kinks) != len(self.kink_velocities):
                raise ConfigError("custom problem needs matching kinks and kink_velocities")
            return TargetSpec(
                segments=tuple((f, w * self.v) for f, w in zip(self.kinks, self.kink_velocities))
            )
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
        return OptimizerConfig(
            mu=self.mu,
            beta=self.beta,
            omega0=self.omega0,
            n_iter=self.n_iter,
            mode_rule=self.mode_rule(),
            refine_every=self.refine_every,
            bb_switch_threshold=self.bb_switch_threshold,
        )


def _finite(s: str) -> float:
    val = float(s)
    if not math.isfinite(val):
        raise ValueError(f"{s!r} is not a finite number")
    return val


def _finites(s: str) -> tuple[float, ...]:
    return tuple(_finite(v) for v in s.split(",") if v.strip())


def _bool(s: str) -> bool:
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    if s.lower() not in words:
        raise ValueError(f"expected true or false, got {s!r}")
    return words[s.lower()]


_PARSERS = {
    "l": _finite, "n": int, "T": _finite, "n_t": int, "v": _finite, "xi": int,
    "mu": _finite, "beta": _finite, "omega0": _finite, "n_iter": int,
    "n_samples": int, "refine_every": int, "bb_switch_threshold": _finite,
    "model": str, "modes": int, "mode_tol": _finite, "problem": str,
    "tilt_factor": _finite, "eigenfunction_basis": _bool,
    "rank_study_every": int, "seed": int, "out": str,
    "kinks": _finites, "kink_velocities": _finites,
}


def parse_config(path: str | Path) -> ScenarioConfig:
    """Flat key = value file with # comments; unknown keys are errors, missing
    keys take the defaults."""
    path = Path(path)
    overrides: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = _PARSERS[key](value)
        except ConfigError:
            raise
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
    return SpodModel(problem, cfg.mode_rule(), cfg.n_samples, cfg.eigenfunction_basis)


# each history file is a column subset of the iteration records
_HISTORY_CSVS = (
    ("cost_history.csv", ("iteration", "J", "tracking", "regularization")),
    ("gradient_history.csv", ("iteration", "grad_norm", "rel_grad_norm", "omega")),
    ("modes_per_iteration.csv", ("iteration", "modes", "refined")),
    ("timings.csv", ("iteration", *PHASES, "wall")),
)


def _write_history_csvs(outdir: Path, report: OptimizerReport) -> None:
    table = [dict(zip(STREAM_COLUMNS, record_row(r))) for r in report.records]
    for name, columns in _HISTORY_CSVS:
        with open(outdir / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(columns)
            w.writerows([row[c] for c in columns] for row in table)


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
    written state from it (rom_gap; the FOM's state is the full-order one)."""
    p = model.problem
    lifted = model.lift(u)
    fom.save_snapshots_bin(outdir / "final_state.bin", lifted)
    lifted_cost = fom.cost(p.grid, lifted, p.target, u, p.mu).total
    del lifted  # the full-order state below takes its place
    if isinstance(model, FomModel):
        fom_cost = lifted_cost
    else:
        state = fom.solve_state(p.grid, p.shapes, u, p.y0)
        fom_cost = fom.cost(p.grid, state, p.target, u, p.mu).total
    return {"fom_cost": fom_cost, "rom_gap": abs(lifted_cost - fom_cost) / fom_cost}


def run_scenario(cfg: ScenarioConfig, quiet: bool = False) -> int:
    """Run one optimization scenario and write all artifacts; returns the exit
    status (0 on converged or max_iter, 3 on divergence)."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model = build_model(cfg)
    grid = model.problem.grid
    u0 = np.zeros((model.problem.shapes.m, grid.n_t))

    spectra: list[tuple[int, np.ndarray]] = []

    def snoop_spectrum(i: int, u: np.ndarray) -> None:
        sig = getattr(model, "last_spectrum", None)
        if sig is not None and (not spectra or spectra[-1][1] is not sig):
            spectra.append((i, sig))

    u, report = optimize(
        model, u0, cfg.optimizer_config(),
        stream=outdir / "iterations.csv",
        callback=snoop_spectrum,
    )

    _write_history_csvs(outdir, report)
    for i, sigma in spectra:
        save_spectrum_csv(outdir / f"singular_values_iter{i:05d}.csv", sigma)
    save_control_csv(outdir / "final_control.csv", u)
    (outdir / "plots.gp").write_text(_PLOT_SCRIPT)

    meta = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(cfg).items()},
        "status": report.status,
        "iterations": report.iterations,
        "final_cost": report.final_cost,
        "tilt_factor": cfg.tilt_factor,
        "cfl": grid.cfl,
        "modes_final": report.records[-1].modes if report.records else 0,
    }
    if report.status != "diverged":
        meta.update(_save_final_state(outdir, model, u))
    (outdir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    if not quiet:
        print(
            f"[{model.describe()}] {report.status} after {report.iterations} iterations, "
            f"J = {report.final_cost:.6g} -> {outdir}"
        )
    return 0 if report.status in ("converged", "max_iter") else 3


def run_rank_study(cfg: ScenarioConfig, quiet: bool = False) -> int:
    """Optimize with the invariant-subspace basis while recording the relative
    singular values sigma_{m+1}/sigma_1 and sigma_{m+2}/sigma_1 of the
    co-moving snapshot matrix every few iterations."""
    if cfg.modes is not None or cfg.mode_tol is not None:
        raise ConfigError(
            "rank-study uses the invariant-subspace basis; it ignores modes and mode_tol"
        )
    cfg = replace(cfg, model="spod", eigenfunction_basis=True)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model = build_model(cfg)
    grid, shapes, y0 = model.problem.grid, model.problem.shapes, model.problem.y0
    path = uncontrolled_shift_path(grid)
    m = shapes.m
    rows: list[tuple[int, float, float]] = []

    def ratios(u: np.ndarray) -> tuple[float, float]:
        Q = fom.solve_state(grid, shapes, u, y0)
        _, sigma = weighted_svd(transform_snapshots(Q, path, grid), grid)
        s1 = sigma[0]
        get = lambda k: float(sigma[k] / s1) if k < len(sigma) else 0.0
        return get(m), get(m + 1)

    u0 = np.zeros((m, grid.n_t))
    rows.append((0, *ratios(u0)))

    def spy(i: int, u: np.ndarray) -> None:
        if i % cfg.rank_study_every == 0:
            rows.append((i, *ratios(u)))

    u, report = optimize(model, u0, cfg.optimizer_config(), callback=spy)
    with open(outdir / "rank_study.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "sv_ratio_m_plus_1", "sv_ratio_m_plus_2"])
        for i, r1, r2 in rows:
            w.writerow([i, FMT % r1, FMT % r2])
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
    eps: float = 1e-5,
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
        jp = model.cost_only(u + eps * du).total
        jm = model.cost_only(u - eps * du).total
        fd = (jp - jm) / (2.0 * eps)
        ad = weight * float(np.sum(g * du))
        denom = max(abs(fd), 1e-300)
        errors.append(abs(ad - fd) / denom)
    return errors
