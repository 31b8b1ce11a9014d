"""Command-line entry point: run scenarios, mode sweeps, rank studies, and
gradient checks from flat config files."""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiments import (
    ConfigError,
    ScenarioConfig,
    build_model,
    fd_gradient_check,
    parse_config,
    run_rank_study,
    run_scenario,
    smooth_random_signal,
)
from .fom import DivergenceError


def _load(args) -> ScenarioConfig:
    cfg = parse_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("ROMCTL_THREADS")
    # the CPUs this process may run on, where the platform can tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_jobs, cpus or 1)
    if cap:
        try:
            workers = max(1, min(workers, int(cap)))
        except ValueError:
            raise ConfigError(f"ROMCTL_THREADS must be an integer, got {cap!r}") from None
    return workers


def _sweep_job(cfg: ScenarioConfig) -> tuple[int, int]:
    return cfg.modes, run_scenario(cfg, quiet=True)


def cmd_run(args) -> int:
    return run_scenario(_load(args), quiet=args.quiet)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if cfg.model == "fom" or cfg.eigenfunction_basis:
        raise ConfigError("sweep varies the mode count of a snapshot basis; set model = pod "
                          "or spod without eigenfunction_basis")
    if cfg.modes is not None or cfg.mode_tol is not None:
        raise ConfigError("sweep takes its mode counts from --modes; it ignores modes "
                          "and mode_tol")
    try:
        mode_counts = [int(v) for v in args.modes.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--modes takes comma-separated integers: {exc}") from None
    if not mode_counts:
        raise ConfigError("sweep needs at least one mode count")
    if len(set(mode_counts)) < len(mode_counts):
        raise ConfigError(f"--modes repeats a mode count ({args.modes}): each job writes "
                          "the directory modes_<count>")
    # every job's config is checked before the first one starts
    jobs = [
        replace(cfg, modes=r, mode_tol=None, out=str(Path(cfg.out) / f"modes_{r:04d}"))
        for r in mode_counts
    ]
    workers = _worker_count(len(jobs))
    status = 0
    # one worker runs the jobs in this process
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for r, code in (pool.map if pool else map)(_sweep_job, jobs):
            if not args.quiet:
                print(f"modes={r}: exit {code}")
            status = max(status, code)
    return status


def cmd_rank_study(args) -> int:
    return run_rank_study(_load(args), quiet=args.quiet)


def cmd_gradient_check(args) -> int:
    model = build_model(parse_config(args.config))
    rng = np.random.default_rng(args.seed)
    u = smooth_random_signal(rng, model.problem.shapes.m, model.problem.grid.n_t, 0.05)
    model.refine_basis(u)
    errors = fd_gradient_check(model, u, seed=args.seed)
    worst = max(errors)
    if not args.quiet:
        for k, e in enumerate(errors):
            print(f"direction {k + 1:2d}: relative error {e:.3e}")
        print(f"worst relative error: {worst:.3e}")
    return 0 if worst < 1e-3 else 1


# each subcommand takes only the flags it reads
MODES = ("--modes", dict(required=True, help="comma-separated mode counts"))
OUT = ("--out", dict(default=None, help="output directory (overrides config)"))
SEED = ("--seed", dict(type=int, default=0, help="seed of the control and the directions"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="romctl",
        description="Optimal control of 1D periodic advection with full-order and reduced models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in (
        ("run", cmd_run, (OUT,)),
        ("sweep", cmd_sweep, (MODES, OUT)),
        ("rank-study", cmd_rank_study, (OUT,)),
        ("gradient-check", cmd_gradient_check, (SEED,)),
    ):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a flat key = value config file")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:  # gradient-check's or rank-study's; run reports its own
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
