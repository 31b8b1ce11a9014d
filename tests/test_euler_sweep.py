"""The shared explicit-Euler kernel against the four time loops it replaced.

The reference solves below are the loops fom.solve_state, fom.solve_adjoint,
rom_pod.solve_pod_state and rom_pod.solve_pod_adjoint ran before they shared
fom.euler_sweep, kept verbatim as oracles: the kernel changes no arithmetic,
so the solves must match them bit for bit.
"""
import math

import numpy as np
import pytest

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.basis import ModeBasis
from romctl.discretization import upwind_operator
from romctl.fom import DivergenceError, _transport_step, solve_adjoint, solve_state
from romctl.rom_pod import assemble_pod_rom, solve_pod_adjoint, solve_pod_state

from conftest import smooth_signal


def reference_state(grid, shapes, u, y0):
    dt = grid.dt
    forcing = shapes.shapes @ u  # all control fields in one matrix product
    Y = np.empty((grid.n, grid.n_t))
    Y[:, 0] = y0
    y = y0.copy()
    for j in range(grid.n_t - 1):
        y = y + _transport_step(y, grid, reversed_direction=False) + dt * forcing[:, j]
        # a single non-finite entry poisons the sum
        if not math.isfinite(float(np.sum(y))):
            raise DivergenceError(j + 1, "state")
        Y[:, j + 1] = y
    return Y


def reference_adjoint(grid, state, target):
    dt = grid.dt
    source = dt * (state - target)
    lam = np.zeros_like(state)
    cur = lam[:, -1]
    for j in range(grid.n_t - 1, 0, -1):
        cur = cur + _transport_step(cur, grid, reversed_direction=True) + source[:, j]
        if not math.isfinite(float(np.sum(cur))):
            raise DivergenceError(j - 1, "adjoint")
        lam[:, j - 1] = cur
    return lam


def reference_pod_state(ops, u, grid):
    dt = grid.dt
    forcing = ops.B_l @ u
    alpha = np.empty((ops.r, grid.n_t))
    alpha[:, 0] = ops.alpha0
    a = ops.alpha0.copy()
    for j in range(grid.n_t - 1):
        a = a + dt * (ops.A_l @ a + forcing[:, j])
        if not np.all(np.isfinite(a)):
            raise DivergenceError(j + 1, "reduced state")
        alpha[:, j + 1] = a
    return alpha


def reference_pod_adjoint(ops, alpha, yd_reduced, grid):
    dt = grid.dt
    AT = ops.A_l.T
    lam = np.zeros_like(alpha)
    cur = lam[:, -1]
    for j in range(grid.n_t - 1, 0, -1):
        cur = cur + dt * (AT @ cur + alpha[:, j] - yd_reduced[:, j])
        if not np.all(np.isfinite(cur)):
            raise DivergenceError(j - 1, "reduced adjoint")
        lam[:, j - 1] = cur
    return lam


def problem(v, seed, n=97, n_t=83, r=9):
    """Random FOM and POD-G inputs on a grid at CFL 0.9 (T fixed when v = 0)."""
    l = 100.0
    T = 60.0 if v == 0.0 else n_t * 0.9 * (l / n) / abs(v)
    grid = SpaceTimeGrid(l=l, n=n, T=T, n_t=n_t, v=v)
    rng = np.random.default_rng(seed)
    shapes = build_fourier_shapes(grid, 2)
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    basis = ModeBasis(modes=q / np.sqrt(grid.dx))
    y0 = rng.standard_normal(n)
    ops = assemble_pod_rom(basis, upwind_operator(grid), shapes, y0, grid)
    u = smooth_signal(rng, shapes.m, n_t, 0.3) + 0.01 * rng.standard_normal((shapes.m, n_t))
    target = rng.standard_normal((n, n_t))
    yd = rng.standard_normal((r, n_t))
    return grid, shapes, ops, y0, u, target, yd


@pytest.mark.parametrize("v", [0.55, -0.55, 0.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_solves_match_parent_loops_bitwise(v, seed):
    grid, shapes, ops, y0, u, target, yd = problem(v, seed)
    Y = solve_state(grid, shapes, u, y0)
    assert np.array_equal(Y, reference_state(grid, shapes, u, y0))
    assert np.array_equal(solve_adjoint(grid, Y, target), reference_adjoint(grid, Y, target))
    alpha = solve_pod_state(ops, u, grid)
    assert np.array_equal(alpha, reference_pod_state(ops, u, grid))
    lam = solve_pod_adjoint(ops, alpha, yd, grid)
    assert np.array_equal(lam, reference_pod_adjoint(ops, alpha, yd, grid))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic past the bad column
@pytest.mark.parametrize("what", ["state", "adjoint", "reduced state", "reduced adjoint"])
def test_divergence_names_first_bad_column(what):
    # a forward solve first reads control column k for step k+1; a backward
    # solve first reads target column k for step k-1
    k = 7
    grid, shapes, ops, y0, u, target, yd = problem(0.55, 3)
    backward = what.endswith("adjoint")
    (yd if what == "reduced adjoint" else target if backward else u)[:, k] = np.inf
    solves = {
        "state": lambda: solve_state(grid, shapes, u, y0),
        "adjoint": lambda: solve_adjoint(grid, solve_state(grid, shapes, u, y0), target),
        "reduced state": lambda: solve_pod_state(ops, u, grid),
        "reduced adjoint": lambda: solve_pod_adjoint(ops, solve_pod_state(ops, u, grid), yd, grid),
    }
    with pytest.raises(DivergenceError, match=f"^{what} solve") as err:
        solves[what]()
    assert err.value.step == (k - 1 if backward else k + 1)
