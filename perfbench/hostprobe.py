"""Host-speed probe: fixed numpy kernels timed between benchmark repetitions.

The benchmark shares its host, whose speed drifts by tens of percent over
minutes, so two runs of the same code minutes apart can differ by more than a
run's own spread. The probe times kernels that do not come from romctl, so no
change to romctl moves them, and the benchmark divides its timings by how much
slower the probe ran than on the reference host (see `Probe.slowdown`). Over
three sets of ten seeds this cut the quartile spread of run_s across seeds on
fom-desk and pod-adapt-desk to between a third and nine tenths of the
wall-clock spread, and left spod-eig-desk and spod-adapt-half within a few
points of it, better in some sets and worse in others.

Each kernel stands for one kind of work in the workloads:
- `stepper`: an explicit upwind time loop on 401 points for 300 steps, bound
  by the interpreter and numpy's per-call cost, like the desk time loops;
- `dense`: the SVD of a fixed 400 x 300 matrix, bound by BLAS, like a basis
  refresh.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

N, N_T = 401, 300
_FORCING = np.full((N, N_T), 1e-3)
_Y0 = np.exp(-np.linspace(-4.0, 4.0, N) ** 2)
_DENSE = np.random.default_rng(20260).standard_normal((400, 300))


def stepper() -> float:
    Y = np.empty((N, N_T))
    y = _Y0
    for j in range(N_T):
        flux = np.empty_like(y)
        flux[1:] = y[1:] - y[:-1]
        flux[0] = y[0] - y[-1]
        y = y - 0.5 * flux + 0.01 * _FORCING[:, j]
        if not math.isfinite(float(np.sum(y))):
            raise FloatingPointError("probe stepper diverged")
        Y[:, j] = y
    return float(Y[0, -1])


def dense() -> float:
    return float(np.linalg.svd(_DENSE, compute_uv=True, full_matrices=False)[1][0])


KERNELS = {"stepper": stepper, "dense": dense}
# Median seconds per kernel call over 40 benchmark runs on a 2-core Xeon VM
# (numpy with one OpenBLAS thread); a slowdown of 1 means the host ran at
# that speed.
REFERENCE_S = {"stepper": 0.0055, "dense": 0.0313}


class Probe:
    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {k: [] for k in KERNELS}

    def run(self, budget_s: float) -> None:
        """Time every kernel in turn until budget_s is spent, each at least once."""
        end = time.perf_counter() + budget_s
        while True:
            for name, kernel in KERNELS.items():
                t = time.perf_counter()
                kernel()
                self.samples[name].append(time.perf_counter() - t)
            if time.perf_counter() >= end:
                return

    def medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.samples.items() if v}

    def slowdown(self) -> float:
        """Host slowdown against the reference: the mean over kernels of the
        median kernel time over its reference time (1.0 before any sample)."""
        meds = self.medians()
        if not meds:
            return 1.0
        return statistics.fmean(meds[k] / REFERENCE_S[k] for k in meds)
