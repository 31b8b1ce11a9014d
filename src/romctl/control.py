"""Control shape functions, the control operator B, its adjoint, and the
control problem every model solves."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import SpaceTimeGrid, check_field, check_shape
from .transform import shift_columns

# columns per block of the target check and energy sum: they form no second target
_CHECK_COLUMNS = 64


@dataclass(frozen=True)
class ControlShapes:
    """Spatial shape functions; column k of `shapes` samples b_k on the grid."""

    shapes: np.ndarray  # (n, m)

    @property
    def m(self) -> int:
        return self.shapes.shape[1]


def build_fourier_shapes(grid: SpaceTimeGrid, xi: int) -> ControlShapes:
    """Constant plus xi sine/cosine pairs: b_1 = 1, b_2k = sin(2 pi k x / l),
    b_2k+1 = -cos(2 pi k x / l); m = 2 xi + 1. For 2 xi < n they are
    dx-orthogonal with squared norms l and l / 2, so ||B||^2 = l; from
    2 xi = n on the top pair degenerates or aliases onto lower shapes, and
    such xi are rejected."""
    if not 0 <= 2 * xi < grid.n:
        raise ValueError(f"xi must satisfy 0 <= 2 xi < n = {grid.n}, got {xi}")
    x = grid.x
    cols = [np.ones(grid.n)]
    for k in range(1, xi + 1):
        cols.append(np.sin(2.0 * np.pi * k * x / grid.l))
        cols.append(-np.cos(2.0 * np.pi * k * x / grid.l))
    return ControlShapes(shapes=np.column_stack(cols))


def apply_control(shapes: ControlShapes, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Nodal fields sum_k b_k u_k of one (m,) time slice or of an (m, n_t)
    signal, written to `out` when given."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != shapes.m:
        raise ValueError(f"control has {u.shape[0]} components, shapes have m={shapes.m}")
    return np.matmul(shapes.shapes, u, out=out)


def adjoint_control(shapes: ControlShapes, field: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Component k is the L2 pairing of b_k with the field (or with each column)."""
    field = check_field(field, grid)
    return grid.dx * (shapes.shapes.T @ field)


@dataclass(frozen=True)
class ControlProblem:
    """The control problem all three models solve: steer the state from y0
    onto the target snapshots through the control shapes, with regularization
    weight mu, on one space-time grid. The target is one profile moved along
    a path: column j is target[:, 0] shifted by target_path[j], and
    target_path[0] = 0; the check is bitwise. Alongside it, block by block,
    it sums target_energy = 1/2 dt dx |target|_F^2."""

    grid: SpaceTimeGrid
    shapes: ControlShapes
    y0: np.ndarray
    target: np.ndarray
    target_path: np.ndarray
    mu: float
    target_energy: float = field(init=False)

    def __post_init__(self) -> None:
        grid = self.grid
        target = check_shape(self.target, (grid.n, grid.n_t), "target")
        path = check_shape(self.target_path, (grid.n_t,), "target path")
        if path[0] != 0.0:
            raise ValueError(f"target path must start at 0, got {path[0]!r}")
        energy = 0.0
        for start in range(0, grid.n_t, _CHECK_COLUMNS):
            block = target[:, start : start + _CHECK_COLUMNS]
            moved = shift_columns(target[:, 0], path[start : start + _CHECK_COLUMNS], grid)
            bad = np.flatnonzero(np.any(moved != block, axis=0))
            if bad.size:
                raise ValueError(
                    f"target column {start + int(bad[0])} is not target[:, 0] "
                    "shifted along the target path"
                )
            energy += float(np.einsum("ij,ij->", block, block))
        object.__setattr__(self, "target_energy", 0.5 * grid.dt * grid.dx * energy)
        object.__setattr__(self, "y0", check_shape(self.y0, (grid.n,), "y0"))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_path", path)
