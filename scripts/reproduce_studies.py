#!/usr/bin/env python3
"""Drive the reference studies through the CLI: reference runs, mode sweeps,
tolerance sweeps, and the rank study.

Everything is expressed as flat config files plus `romctl` invocations, so each
piece can also be launched by hand. The commands run `python -m romctl.cli` with
this interpreter, so a checkout on PYTHONPATH needs no installed `romctl`.
Full-scale runs take hours; pass --desk for a ~400-point desk-scale variant of
the same studies.
"""
import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

FULL = {"n": 3201, "n_t": 2400, "T": 136.2642}
DESK = {"n": 401, "n_t": 300, "T": 300 * (100.0 / 401) / 0.55}

MODE_SWEEP_SPOD = "2,5,8,10,12,15,20,25,30,35,40,45,50"
MODE_SWEEP_POD = "5,10,20,30,40,50,60,70,80,90,100,200,300"
TOLERANCES = ["1e-2", "1e-3", "1e-4", "1e-5", "1e-6", "1e-7", "1e-8", "1e-9"]
ROMCTL = [sys.executable, "-m", "romctl.cli"]


def write_cfg(path: Path, scale: dict, **kv) -> Path:
    lines = [f"{k} = {v}" for k, v in {**scale, **kv}.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def run(args: list[str]) -> None:
    print("+", " ".join(args), flush=True)
    subprocess.run(args, check=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="studies", help="output root directory")
    ap.add_argument("--desk", action="store_true", help="desk-scale grids instead of full-scale")
    ap.add_argument("--problem", default="single_tilt", choices=["single_tilt", "double_tilt"])
    ap.add_argument(
        "--studies",
        default="reference,modes,tolerance,rank",
        help="comma list from: reference,modes,tolerance,rank",
    )
    args = ap.parse_args()
    scale = DESK if args.desk else FULL
    out = Path(args.out) / args.problem
    out.mkdir(parents=True, exist_ok=True)
    todo = set(args.studies.split(","))
    with tempfile.TemporaryDirectory(prefix="romctl-cfg-") as tmp_dir:
        tmp = Path(tmp_dir)

        if "reference" in todo:
            cfg = write_cfg(tmp / "fom.cfg", scale, model="fom", problem=args.problem)
            run([*ROMCTL, "run", str(cfg), "--out", str(out / "fom_reference")])

        if "modes" in todo:
            for model, sweep in (("spod", MODE_SWEEP_SPOD), ("pod", MODE_SWEEP_POD)):
                cfg = write_cfg(tmp / f"{model}.cfg", scale, model=model, problem=args.problem)
                run([*ROMCTL, "sweep", str(cfg), "--modes", sweep,
                     "--out", str(out / f"mode_study_{model}")])

        if "tolerance" in todo:
            for model in ("spod", "pod"):
                for tol in TOLERANCES:
                    cfg = write_cfg(tmp / f"{model}_{tol}.cfg", scale, model=model,
                                    problem=args.problem, mode_tol=tol)
                    run([*ROMCTL, "run", str(cfg),
                         "--out", str(out / f"tolerance_study_{model}" / f"tol_{tol}")])

        if "rank" in todo:
            # m = 9 controls, unit CFL so the co-moving snapshots stay grid-aligned
            n = scale["n"]
            rank_scale = dict(scale)
            rank_scale["T"] = scale["n_t"] * (100.0 / n) / 0.55
            cfg = write_cfg(tmp / "rank.cfg", rank_scale, model="spod", problem=args.problem,
                            xi=4, eigenfunction_basis="true")
            run([*ROMCTL, "rank-study", str(cfg), "--out", str(out / "rank_study")])

    return 0


if __name__ == "__main__":
    sys.exit(main())
