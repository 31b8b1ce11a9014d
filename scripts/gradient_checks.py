#!/usr/bin/env python3
"""Run the adjoint-vs-finite-difference verification for all three models on a
coarse grid and print the per-direction relative errors."""
import sys
import tempfile
from pathlib import Path

from romctl.cli import main as cli

COARSE = "n = 101\nn_t = 80\nT = 116.5\nxi = 1\n"


def main() -> int:
    worst = 0
    with tempfile.TemporaryDirectory(prefix="romctl-gc-") as tmp:
        for model, extra in (("fom", ""), ("pod", "modes = 12\n"), ("spod", "modes = 5\n")):
            cfg = Path(tmp) / f"{model}.cfg"
            cfg.write_text(COARSE + f"model = {model}\n" + extra)
            print(f"--- {model} ---")
            worst = max(worst, cli(["gradient-check", str(cfg)]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
