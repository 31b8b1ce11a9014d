"""The Schur march of the sPOD-G state, for one control or a block of them.

Each explicit-Euler step of the sPOD-G state inverts the reduced mass matrix
[[I, N a], [a^T N^T, a^T M2 a]] through its scalar Schur complement.
solve_spod_candidates marches the controls u - omega_k g side by side: the
step-size search on a Schur (non-invariant) basis marches a block of step
sizes and reads their costs in its own order (optimizer.blocked_line_cost),
and rom_spod.solve_spod_state marches its one control as the block omega = 0,
g = 0. One march costs its per-step call overhead, not its arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import check_shape
from .fom import CHECK_EVERY, DivergenceError, euler_sweep
from .transform import _ALIGN_TOL


class SingularMassError(DivergenceError):
    """Raised when the reduced mass matrix degenerates during a sweep."""

    def __init__(self, step: int, detail: str):
        self.step = step
        RuntimeError.__init__(
            self, f"reduced mass matrix is numerically singular at step {step}: {detail}"
        )


def _pairs(w: np.ndarray) -> np.ndarray:
    """The (sin_k, -cos_k) pairs of rows of w, (m,) or (m, n_t), as complex
    numbers w_s + i w_m, (xi,) or (n_t, xi); .view(float).T turns them back.
    On them T(z) acts as multiplication by conj sigma(z), and T(z)^T by
    sigma(z)."""
    return np.ascontiguousarray(w[1:].T).view(complex)


def _regular_mass(s, c, bb):
    """Whether the mass matrix counts as regular at a step whose Schur
    complement is s = c - |b|^2: s above 1e-12 max(1, c, |b|^2), which also
    fails a non-finite s (s = inf only where c = inf). Elementwise on arrays
    of steps."""
    return s > 1e-12 * np.maximum(np.maximum(c, bb), 1.0)


@dataclass(frozen=True)
class SpodCandidates:
    """The trajectories of a block of controls u - omega_k g from one march."""

    alpha: np.ndarray      # (K, r, n_t) the amplitudes of candidate k
    z: np.ndarray          # (K, n_t) its shift path
    failed_at: np.ndarray  # (K,) the step at which it failed, n_t if it did not


class _AllFailed(Exception):
    """Ends a candidate march once every candidate has failed."""


def _cell_split(zeta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole cells c and fraction f in [0, 1) of shifts zeta given in
    cells, as split_shift splits z = zeta dx up to rounding: with y = zeta mod n
    in [0, n], c = floor(y) and f = y - floor(y), a fraction within tol of the
    next node snapped up to it and one within tol of its own node set to 0, so
    that a shift near a node reads the exact node symbol. c is in [0, n], n
    the node 0 again. A non-finite zeta gives some integer c (euler_sweep
    ignores the invalid cast), and only its own candidate reads garbage."""
    f, k = np.modf(np.remainder(zeta, n))
    up = f > 1.0 - _ALIGN_TOL
    f *= (f >= _ALIGN_TOL) != up  # f >= tol and not snapped up, as up implies f >= tol
    c = k.astype(np.intp)
    c += up
    return c, f


def solve_spod_candidates(ops, u: np.ndarray, g: np.ndarray,
                          omegas: list[float]) -> SpodCandidates:
    """The Schur march from (alpha0, 0) of the operators `ops`
    (rom_spod.SpodRomOperators) for the K controls u - omega_k g side by side,
    in one sweep whose column holds every candidate's (alpha, zeta), the shift
    zeta = z / dx in cells. The controls of the candidates are formed
    from u and g for one block of steps at a time, never for the horizon. Each
    step reads the symbol of all K shifts at once and makes five small matrix
    products, so a block costs about the per-step call overhead of one march,
    not K.

    With b = N a, c = a^T M2 a, s = c - |b|^2 and B1p, B2p the B1 and B2 rows of
    B(z) u_j, the Schur step solves [[I, b], [b^T, c]] (a_t, w) =
    (v b + B1p, v c + a . B2p) through the scalar Schur complement s:
        a' = a + dt (B1p + (v - w) b),  z' = z + dt w,
        dt (v - w) = dt (b . B1p - a . B2p) / s.
    A candidate fails at the first step j whose column is not finite or whose
    mass matrix is not regular (_regular_mass, with s = c - |b|^2 formed from
    the two dot products, so that a non-finite control column j fails step
    j + 1, whose column it poisons), or at n_t - 1 if only the last column, at
    which no step solves, is not finite. euler_sweep's check finds it at the
    end of the block of steps in which it failed. Its row of every operation is
    its own, so the others march on, and the sweep ends once all have failed."""
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
    # after [a, zeta], [M2 a, b, B2p, B1p]; check reads those of the steps of one
    # block of euler_sweep, which starts at a multiple of CHECK_EVERY
    dots = np.empty((CHECK_EVERY, K, 2, 4))
    ring = [(d, d.reshape(K, 8)) for d in dots]
    q = np.empty((K, 2))
    rate, s = q[:, 0], q[:, 1]
    WD = np.zeros((8, 2))
    WD[7, 0], WD[2, 0], WD[0, 1], WD[5, 1] = dt, -dt, 1.0, -1.0
    coef = np.empty((K, 1, 3))  # [1, dt (v - w), dt]
    coef[:, 0, 0], coef[:, 0, 2] = 1.0, dt
    slip = coef[:, 0, 1]  # dt (v - w)

    t = work[:, :one].view(complex)
    p_in, p_out = work[:, : one + 1], work[:, a0 + 3 * R1 : a0 + 5 * R1]
    a_in, a_out = work[:, one : a0 + R1], work[:, a0 + R1 : a0 + 3 * R1]
    az = work[:, a0 : a0 + R1]
    zeta = az[:, r]
    slots = work[:, a0:width].reshape(K, 5, R1)
    rows, ab = slots[:, 0::2], slots[:, 0:3:2, :r]
    after = slots[:, 1:, :r].transpose(0, 2, 1)

    # the symbol at the n + 1 nodes 0 .. n (node n is node 0 again) of
    # _cell_split, with the constant shape as a pair of symbol 1
    cells = np.concatenate([np.ones((n + 1, 1)), ops.cells[np.arange(n + 1) % n]], axis=1)
    dcell = cells[1] - 1.0  # 0 on the constant shape: its symbol is exactly 1
    om = np.array(omegas, dtype=float)[:, None]
    window = []  # conj pairs of u - omega g along the block of steps, and times dcell

    def step(x: np.ndarray, j: int, nxt: np.ndarray) -> None:
        i = j % CHECK_EVERY
        if i == 0:
            cu, cg = (np.concatenate([w[:1].T, np.conj(_pairs(w))], axis=1)[:, None]
                      for w in (u[:, j : j + CHECK_EVERY], g[:, j : j + CHECK_EVERY]))
            cand = cu - om * cg
            window[:] = cand, cand * dcell
        cand, dcand = window
        np.copyto(az, x.reshape(K, R1))
        c, f = _cell_split(zeta, n)
        tf = f[:, None] * dcand[i]
        tf += cand[i]
        np.multiply(np.take(cells, c, axis=0, mode="clip"), tf, out=t)  # clip: garbage c
        np.matmul(p_in, WP, out=p_out)
        np.matmul(a_in, WA, out=a_out)
        d, d8 = ring[i]
        np.matmul(ab, after, out=d)
        np.matmul(d8, WD, out=q)
        np.divide(rate, s, out=slip)
        np.matmul(coef, rows, out=nxt.reshape(K, 1, R1))

    failed_at = np.full(K, n_t)

    def check(written: slice) -> None:
        # the block's L steps solved at columns first .. first + L - 1 and wrote
        # first + 1 .. first + L; ring row i holds the dot products of step first + i
        first, L = written.start - 1, written.stop - written.start
        c, bb = dots[:L, :, 0, 0], dots[:L, :, 1, 1]
        regular = _regular_mass(c - bb, c, bb)
        if regular.all() and math.isfinite(x[:, written].sum()):
            return
        bad = np.zeros((K, L + 1), dtype=bool)  # column i: step and column first + i
        bad[:, :-1] = ~regular.T
        bad[:, 1:] |= ~np.isfinite(x[:, written].reshape(K, R1, L).sum(axis=1))
        at = np.where(bad.any(axis=1), first + bad.argmax(axis=1), n_t)
        np.minimum(failed_at, at, out=failed_at)
        if np.all(failed_at < n_t):
            raise _AllFailed

    x = np.empty((K * R1, n_t), order="F")
    try:
        euler_sweep(step, np.tile(np.append(ops.alpha0, 0.0), K), n_t, False,
                    "spod candidates", out=x, check=check)
    except _AllFailed:
        pass
    states = x.reshape(K, R1, n_t)
    return SpodCandidates(alpha=states[:, :r], z=states[:, r] * dx, failed_at=failed_at)
