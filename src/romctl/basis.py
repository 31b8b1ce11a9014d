"""Reduced bases from snapshot data: truncated SVD extraction (a certified
randomized range finder for numerically low-rank snapshots, the dense SVD
otherwise), the mode-count rule, and the invariant-subspace basis built from
the initial condition and the control shapes."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import FMT, ControlShapes
from .discretization import SpaceTimeGrid, check_field

# relative singular-value floor below which directions count as numerically null
RANK_FLOOR = 1e-12
# Randomized range finder (Halko, Martinsson & Tropp, SIAM Review 2011) of one
# width, tried when it is at most a quarter of the smaller dimension. A sketch's
# SVD is kept only when its explicit residual ||A - P P^T A||_F is at most
# SKETCH_CERTIFICATE * sigma_1.
SKETCH_WIDTH = 64
SKETCH_CERTIFICATE = 1e-14
# Gaussian columns sketched beside the SKETCH_WIDTH of the range. The sketch's
# Gram matrix then shows a (SKETCH_WIDTH + 1)-th singular value of A clearly
# above zero, and the sketch is dropped before P^T A is formed.
SKETCH_PROBES = 8
SKETCH_SEED = 2011


@dataclass(frozen=True)
class ModeBasis:
    """Weighted-orthonormal spatial modes."""

    modes: np.ndarray  # (n, r), H-orthonormal columns

    @property
    def r(self) -> int:
        return self.modes.shape[1]


def weighted_svd(Q: np.ndarray, grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """SVD of the sqrt(dx)-weighted snapshots A; left vectors rescaled so the
    returned columns are orthonormal in the dx-weighted inner product.

    When a randomized sketch of width k = SKETCH_WIDTH certifies
    ||A - P P^T A||_F <= SKETCH_CERTIFICATE * sigma_1, the k left vectors and
    values of that sketch are returned: every value left out lies below the
    certificate. Otherwise (and always when min(n, n_t) < 4 * SKETCH_WIDTH)
    the dense SVD runs and all min(n, n_t) are returned. The sketch draws
    from its own fixed seed, so reruns are bit-identical and the global
    random state is untouched."""
    Q = check_field(Q, grid, "snapshots")
    w = np.sqrt(grid.dx)
    certified = _certified_svd(Q, w)
    if certified is not None:
        return certified
    U, sigma, _ = np.linalg.svd(w * Q, full_matrices=False)
    return U / w, sigma


def singular_values(Q: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """All min(n, n_t) singular values of the sqrt(dx)-weighted snapshots, from
    the dense SVD: the trailing values a certified sketch leaves out."""
    Q = check_field(Q, grid, "snapshots")
    return np.linalg.svd(np.sqrt(grid.dx) * Q, compute_uv=False)


def _certified_svd(Q: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray] | None:
    """weighted_svd from a randomized range finder, or None when the sketch
    does not certify the residual."""
    n, n_t = Q.shape
    k = SKETCH_WIDTH
    if 4 * k > min(n, n_t):
        return None
    rng = np.random.default_rng(SKETCH_SEED)
    Y = Q @ rng.standard_normal((n_t, k + SKETCH_PROBES))
    # squared singular values of Y, ascending; rounding leaves about
    # (k + SKETCH_PROBES) * eps of the largest in the null ones, so a squared
    # sigma_{k+1}(Y) above 1e-12 of the largest (sigma_{k+1}(Y) above
    # 1e-6 sigma_1(Y)) shows that rank(Q) > k
    gram = np.linalg.eigvalsh(Y.T @ Y)
    if gram[SKETCH_PROBES - 1] > 1e-12 * gram[-1]:
        return None
    A = w * Q  # owned, so the residual is formed in it
    P = np.linalg.qr(Y[:, :k])[0]
    B = P.T @ A
    U_B, sigma, _ = np.linalg.svd(B, full_matrices=False)
    for i in range(0, n, k):  # A - P B, k rows at a time
        A[i:i + k] -= P[i:i + k] @ B
    if np.linalg.norm(A) > SKETCH_CERTIFICATE * sigma[0]:
        return None
    return (P @ U_B) / w, sigma


def truncate_to_basis(modes: np.ndarray, sigma: np.ndarray, r: int) -> ModeBasis:
    """Keep the first r singular directions, capped at the numerical rank
    (a deficiency is flagged with a warning)."""
    if r < 1:
        raise ValueError(f"mode count must be positive, got {r}")
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise ValueError("snapshot matrix is identically zero; no basis to extract")
    rank = int(np.sum(sigma > RANK_FLOOR * sigma[0]))
    r_eff = min(r, rank, modes.shape[1])
    if r_eff < r:
        warnings.warn(
            f"requested {r} modes but numerical rank is {rank}; returning {r_eff}",
            RuntimeWarning,
            stacklevel=2,
        )
    # a copy, so the basis does not keep the whole singular-vector matrix alive
    return ModeBasis(modes=modes[:, :r_eff].copy())


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
        """The fixed count, or the number of singular values with
        sigma_i / sigma_1 > tol, at least 1. truncate_to_basis caps either at
        the numerical rank."""
        if self.count is not None:
            return self.count
        sigma = np.asarray(sigma, dtype=float)
        if sigma.size == 0 or sigma[0] <= 0.0:
            raise ValueError("empty or all-zero spectrum")
        return max(1, int(np.sum(sigma / sigma[0] > self.tol)))


def eigenfunction_stationary_basis(
    grid: SpaceTimeGrid,
    shapes: ControlShapes,
    y0: np.ndarray,
) -> ModeBasis:
    """Orthonormal basis of span{y0, b_1, ..., b_m} via the weighted SVD.

    Has m+1 modes when y0 is independent of the shapes; a degenerate stack is
    flagged with a warning and yields fewer modes.
    """
    y0 = check_field(y0, grid, "y0")
    stack = np.column_stack([y0, shapes.shapes])
    modes, sigma = weighted_svd(stack, grid)
    keep = int(np.sum(sigma > RANK_FLOOR * sigma[0]))
    if keep < shapes.m + 1:
        warnings.warn(
            f"initial condition lies in the span of the control shapes; "
            f"basis has {keep} modes instead of {shapes.m + 1}",
            RuntimeWarning,
            stacklevel=2,
        )
    return ModeBasis(modes=modes[:, :keep])


def save_spectrum_csv(path: str | Path, sigma: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma"])
        for val in np.asarray(sigma, dtype=float):
            writer.writerow([FMT % val])
