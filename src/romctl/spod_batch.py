"""The Schur march of solve_spod_state for a block of controls at once.

The step-size search on a Schur (non-invariant) sPOD-G basis tests the
controls u - omega g at several step sizes omega. One march costs its
per-step call overhead, not its arithmetic, so solve_spod_candidates marches a
block of step sizes side by side, and the search reads their costs in its own
order (optimizer.blocked_line_cost). The batched step sums the Schur step
in another order, so the single-control solves of rom_spod, which evaluate,
cost_only and lift run, keep their own step and its bitwise results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import check_shape
from .fom import CHECK_EVERY, euler_sweep
from .rom_spod import SingularMassError, SpodRomOperators, _pairs, _regular_mass
from .transform import _ALIGN_TOL


@dataclass(frozen=True)
class SpodCandidates:
    """The trajectories of a block of controls u - omega_k g from one march."""

    alpha: np.ndarray   # (K, r, n_t) the amplitudes of candidate k
    z: np.ndarray       # (K, n_t) its shift path
    failed: np.ndarray  # (K,) whose mass matrix turned singular or whose state went non-finite


class _AllFailed(Exception):
    """Ends a candidate march once every candidate has failed."""


def _cell_split(zeta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole cells c and fraction f of shifts zeta given in cells, as
    split_shift splits z = zeta dx up to rounding: c = floor(zeta + tol) mod n
    and f = zeta - floor(zeta + tol), set to 0 within tol of a node, so that a
    shift near a node reads the exact node symbol. A non-finite zeta gives some
    c in [0, n) (euler_sweep ignores the invalid cast), and only its own
    candidate reads garbage."""
    k = np.floor(zeta + _ALIGN_TOL)
    f = zeta - k
    f *= np.abs(f) >= _ALIGN_TOL
    c = k.astype(np.intp)
    c %= n
    return c, f


def solve_spod_candidates(ops: SpodRomOperators, u: np.ndarray, g: np.ndarray,
                          omegas: list[float]) -> SpodCandidates:
    """The Schur march of solve_spod_state for the K controls u - omega_k g side
    by side, in one sweep whose column holds every candidate's (alpha, zeta), the
    shift zeta = z / dx in cells. The controls of the candidates are formed
    from u and g for one block of steps at a time, never for the horizon. Each
    step reads the symbol of all K shifts at once and makes five small matrix
    products, so a block costs about the per-step call overhead of one march,
    not K.

    With b = N a, c = a^T M2 a, s = c - |b|^2 and B1p, B2p the B1 and B2 rows of
    B(z) u_j, the Schur step of solve_spod_state is
        a' = a + dt (B1p + (v - w) b),  z' = z + dt w,
        dt (v - w) = dt (b . B1p - a . B2p) / s,
    the same algebra summed in another order: a column agrees with its single
    march to rounding where the mass matrix is well conditioned. A candidate
    whose mass matrix is not regular (_regular_mass) at some step, or whose
    state goes non-finite, fails; euler_sweep's check finds it at the end of
    the block of steps in which it failed. Its row of every operation is its
    own, so the others march on, and the sweep ends once all have failed."""
    grid = ops.grid
    n, n_t, dt, dx, v = grid.n, grid.n_t, grid.dt, grid.dx, grid.v
    r, xi = ops.r, (ops.m - 1) // 2
    u = check_shape(u, (ops.m, n_t), "control")
    g = check_shape(g, (ops.m, n_t), "control direction")
    if float(ops.alpha0 @ ops.alpha0) == 0.0:
        raise SingularMassError(0, "initial amplitudes are zero")
    K, R1 = len(omegas), r + 1

    # Per candidate one work row: [t | 1 | a, zeta | M2 a, 0 | b, -1/dx | B2p, 0 | B1p, v/dx].
    # t = sigma(z) (conj u_pairs - omega conj g_pairs), with the constant shape as
    # a pair of symbol 1 and sigma = cells[c] (1 + f (cells[1] - 1)), so B(z) u is
    # t in real form times B(0) with the imaginary weights negated. One product
    # makes [B2p | B1p] from [t | 1], one makes [M2 a | b] from [1 | a, zeta];
    # the slots are r + 1 wide, so the update
    # [a', zeta'] = [a, zeta] + dt (v - w) [b, -1/dx] + dt [B1p, v/dx] is one
    # product over every other slot, and the dot products of [a; b] with the four
    # slots after [a, zeta] are another.
    one, a0 = 2 * xi + 2, 2 * xi + 3
    width = a0 + 5 * R1
    work = np.zeros((K, width + width % 2))  # even: the complex view of t stays aligned
    work[:, one] = 1.0
    WP = np.zeros((2 * xi + 3, 2 * R1))  # [Re t0, Im t0, Re t1, Im t1, ..., 1] -> [B2p | B1p]
    for col, B in ((0, ops.B0[r : 2 * r]), (R1, ops.B0[:r])):
        WP[0, col : col + r] = B[:, 0]
        WP[2:one:2, col : col + r] = B[:, 1::2].T
        WP[3:one:2, col : col + r] = -B[:, 2::2].T
    WP[one, R1 + r] = v / dx
    WA = np.zeros((R1 + 1, 2 * R1))  # [1, a, zeta] -> [M2 a | b]
    WA[1:R1, :r] = ops.M2.T
    WA[1:R1, R1 : R1 + r] = ops.N.T
    WA[0, R1 + r] = -1.0 / dx
    # [dt (b . B1p - a . B2p), s] from the dot products of [a; b] with the slots
    # after [a, zeta], [M2 a, b, B2p, B1p]; both kept for the steps of one block
    # of euler_sweep, which starts at a multiple of CHECK_EVERY
    dots = np.empty((CHECK_EVERY, K, 2, 4))
    rates = np.empty((CHECK_EVERY, K, 2))
    ring = [(d, d.reshape(K, 8), q, q[:, 0], q[:, 1]) for d, q in zip(dots, rates)]
    WD = np.zeros((8, 2))
    WD[7, 0], WD[2, 0], WD[0, 1], WD[5, 1] = dt, -dt, 1.0, -1.0
    coef = np.empty((K, 1, 3))  # [1, dt (v - w), dt]
    coef[:, 0, 0], coef[:, 0, 2] = 1.0, dt

    t = work[:, :one].view(complex)
    p_in, p_out = work[:, : one + 1], work[:, a0 + 3 * R1 : a0 + 5 * R1]
    a_in, a_out = work[:, one : a0 + R1], work[:, a0 + R1 : a0 + 3 * R1]
    az = work[:, a0 : a0 + R1]
    slots = work[:, a0:width].reshape(K, 5, R1)
    rows, ab = slots[:, 0::2], slots[:, 0:3:2, :r]
    after = slots[:, 1:, :r].transpose(0, 2, 1)

    cells = np.concatenate([np.ones((n, 1)), ops.cells], axis=1)
    dcell = cells[1] - 1.0  # 0 on the constant shape: its symbol is exactly 1
    cu, cg = (np.concatenate([w[:1].T, np.conj(_pairs(w))], axis=1) for w in (u, g))
    om = np.array(omegas, dtype=float)[:, None]
    window = []  # conj pairs of u - omega g along the block of steps, and times dcell

    def step(x: np.ndarray, j: int, nxt: np.ndarray) -> None:
        i = j % CHECK_EVERY
        if i == 0:
            cand = cu[j : j + CHECK_EVERY, None] - om * cg[j : j + CHECK_EVERY, None]
            window[:] = cand, cand * dcell
        cand, dcand = window
        np.copyto(az, x.reshape(K, R1))
        c, f = _cell_split(az[:, r], n)
        tf = f[:, None] * dcand[i]
        tf += cand[i]
        np.multiply(cells[c], tf, out=t)
        np.matmul(p_in, WP, out=p_out)
        np.matmul(a_in, WA, out=a_out)
        d, d8, q, rate, s = ring[i]
        np.matmul(ab, after, out=d)
        np.matmul(d8, WD, out=q)
        np.divide(rate, s, out=coef[:, 0, 1])
        np.matmul(coef, rows, out=nxt.reshape(K, 1, R1))

    failed = np.zeros(K, dtype=bool)

    def check(written: slice) -> None:
        solved = slice(0, written.stop - written.start)  # the ring rows of the block's steps
        s, c, bb = rates[solved, :, 1], dots[solved, :, 0, 0], dots[solved, :, 1, 1]
        sums = x[:, written].sum(axis=1).reshape(K, R1).sum(axis=1)
        bad = ~np.all(_regular_mass(s, c, bb), axis=0) | ~np.isfinite(sums)
        failed[bad] = True
        if failed.all():
            raise _AllFailed

    x = np.empty((K * R1, n_t), order="F")
    try:
        euler_sweep(step, np.tile(np.append(ops.alpha0, 0.0), K), n_t, False,
                    "spod candidates", out=x, check=check)
    except _AllFailed:
        pass
    states = x.reshape(K, R1, n_t)
    return SpodCandidates(alpha=states[:, :r], z=states[:, r] * dx, failed=failed)
