#!/usr/bin/env python3
"""Run the adjoint-vs-finite-difference verification for all three models on a
coarse grid, sPOD-G on a snapshot basis and on the invariant basis (its exact
closed-form gradient), and print the per-direction relative errors."""
import sys
import tempfile
from pathlib import Path

from romctl.cli import main as cli

COARSE = "n = 101\nn_t = 80\nT = 116.5\nxi = 1\n"


def main() -> int:
    worst = 0
    with tempfile.TemporaryDirectory(prefix="romctl-gc-") as tmp:
        for name, model, extra in (
            ("fom", "fom", ""),
            ("pod", "pod", "modes = 12\n"),
            ("spod", "spod", "modes = 5\n"),
            ("spod-invariant", "spod", "eigenfunction_basis = true\n"),
        ):
            cfg = Path(tmp) / f"{name}.cfg"
            cfg.write_text(COARSE + f"model = {model}\n" + extra)
            print(f"--- {name} ---")
            worst = max(worst, cli(["gradient-check", str(cfg)]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
