"""Nonlinear Galerkin reduced model built on the periodic shift ansatz.

The reduced state couples mode amplitudes with a scalar shift z. Each
explicit-Euler step inverts the mass matrix [[I, N a], [a^T N^T, a^T M2 a]]
through the Schur complement on the scalar block, which stays positive
whenever the modes and their derivatives are independent and the amplitudes
stay away from zero. solve_spod_candidates takes these steps for a block of
controls u - omega_k g side by side: the step-size search on a Schur
(non-invariant) basis marches the blocks of step sizes it can still read
(optimizer.two_way_backtracking), and solve_spod_state marches its
one control as the block omega = 0, g = 0. One march costs its per-step call
overhead, not its arithmetic. Each step splits its shift into whole cells and
a fraction as split_shift does, so the state reads the cells and fractions
that the cost, the adjoint, the gradient and the lift read along its path.

The state is never lifted to evaluate the tracking cost: for dx-orthonormal
modes it is a quadratic form in a whose coefficients tracking_terms builds once
per shift path, and the cost and the adjoint read them. Every target is one
profile moved along a path zeta_j, so those coefficients blend rows of one
table of the modes against every whole-cell roll of the profile (target_table,
one FFT correlation per basis), and a shift path costs O(n_t r), not O(n n_t).

The control shapes are discrete Fourier modes and the interpolated shift S(z)
is circulant, so S(z)^T acts on each (sin_k, -cos_k) pair as the symbol
sigma_k(z) = e^{i theta_k c} ((1 - f) + f e^{i theta_k}), theta_k = 2 pi k / n,
c and f the whole cells and fraction of z: the pairings of the shifted modes
with the shapes are B(z) = B(0) T(z), T(z) one 2x2 rotation-scaling per pair,
and the model holds B(0) and sigma at the n whole-cell shifts, from which
sigma(z) is exact at any z.

When the basis is invariant, N^T B1(z) = B2(z) at every shift (the span of
y0 and the control shapes is one such basis), and the mass-matrix system has
the exact solution z' = v, a' = B1(v t) u: the model is linear time-varying in
u. assemble_spod_rom detects this, and the state, adjoint and gradient then run
in closed form along z_j = v t_j, where no control moves the Schur complement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import ModeBasis
from .control import ControlShapes, build_fourier_shapes
from .discretization import SpaceTimeGrid, central_derivative, check_field, check_shape
from .fom import CHECK_EVERY, CostBreakdown, DivergenceError, euler_sweep
from .transform import shift_columns, snap_cells, split_shift, uncontrolled_shift_path

# relative gap |N^T B1 - B2| / |B2| up to which a basis counts as invariant
INVARIANT_TOL = 1e-10


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
class SpodRomOperators:
    """The shift-independent operators and the pairings B(z) = B(0) T(z) of
    the stacked [shifted modes; their shift derivative; their curvature] with
    the shapes on one grid. cells holds the symbol of T at the n whole-cell
    shifts, and T(z) is exact at every shift z."""

    N: np.ndarray           # (r, r) skew pairing of modes with mode slopes
    M2: np.ndarray          # (r, r) Gram matrix of mode slopes
    B0: np.ndarray          # (3r, m) the stacked pairings [B1; B2; B3] at z = 0
    cells: np.ndarray       # (n, xi) row c: e^{i theta_k c}, the symbol at shift c dx
    gram_cross: np.ndarray  # (r, r) one-cell cross Gram of the modes
    alpha0: np.ndarray      # (r,)
    grid: SpaceTimeGrid     # the grid the solves march on
    invariant: bool         # N^T B1 = B2: closed-form solves

    @property
    def r(self) -> int:
        return self.N.shape[0]

    @property
    def m(self) -> int:
        return self.B0.shape[1]

    def symbol(self, z: np.ndarray) -> np.ndarray:
        """sigma(z) = e^{i theta_k c} ((1 - f) + f e^{i theta_k}), (len(z), xi)
        along an array of shifts z, with c and f the whole cells and fraction
        of each as split_shift snaps them."""
        c, f = split_shift(z, self.grid)
        f = f[:, None]
        return self.cells[c] * ((1.0 - f) + f * self.cells[1])

    @cached_property
    def drift_symbol(self) -> np.ndarray:
        """symbol along the uncontrolled path v t, (n_t, xi): an invariant
        basis moves along it on every solve."""
        return self.symbol(uncontrolled_shift_path(self.grid))

    def along(
        self, rows: slice, sig: np.ndarray, w: np.ndarray, transpose: bool = False
    ) -> np.ndarray:
        """Columns B(z_j) w_j (B(z_j)^T w_j when `transpose`) along a path z
        whose symbol is sig = symbol(z), B the `rows` of the stacked pairings
        [B1; B2; B3]: the pairs of w turned by T(z_j), then one product with
        B(0); or the product first, then the pairs turned by T(z_j)^T."""
        B = self.B0[rows]
        if transpose:
            v = B.T @ w
            v[1:] = (sig * _pairs(v)).view(float).T
            return v
        v = np.array(w, dtype=float)
        v[1:] = (np.conj(sig) * _pairs(v)).view(float).T
        return B @ v


@dataclass(frozen=True)
class SpodReducedTrajectory:
    alpha: np.ndarray  # (r, n_t)
    z: np.ndarray      # (n_t,)
    sig: np.ndarray    # (n_t, xi) symbol(z), which the adjoint and the gradient read


@dataclass(frozen=True)
class SpodCandidates:
    """The trajectories of a block of controls u - omega_k g from one march."""

    alpha: np.ndarray      # (K, r, n_t) the amplitudes of candidate k
    z: np.ndarray          # (K, n_t) its shift path
    failed_at: np.ndarray  # (K,) the step at which it failed, n_t if it did not


class _AllFailed(Exception):
    """Ends a candidate march once every candidate has failed."""


@dataclass(frozen=True)
class SpodAdjointTrajectory:
    lambda_a: np.ndarray  # (r, n_t)
    z_a: np.ndarray       # (n_t,)


@dataclass(frozen=True)
class SpodTracking:
    """The control-independent parts of the lifted tracking cost along one
    shift path z_j. With k_j, f_j the whole cells and fraction of z_j, the
    lifted state is S(z_j) Phi alpha_j and, for dx-orthonormal modes,
    dx |S(z_j) Phi a - y_d^j|^2 = a^T G_j a - 2 a^T P_j + dx |y_d^j|^2, where
    1/2 dt sum_j dx |y_d^j|^2 is the problem's target_energy.
    Linear interpolation between node rotations contracts, so the Gram G_j of
    the shifted modes depends only on f_j:
    G_j = ((1 - f_j)^2 + f_j^2) I + f_j (1 - f_j) C, C the one-cell cross Gram.
    The shift derivative of the cost is a^T G_j' a - 2 a^T D_j, D_j = dP_j/dz,
    with G_j' = ((4 f_j - 2) I + (1 - 2 f_j) C) / dx, taken as zero at aligned
    shifts (the symmetric one-sided average)."""

    P: np.ndarray             # (r, n_t) dx Phi^T S(z_j)^T y_d^j
    D: np.ndarray             # (r, n_t) Phi^T of the slope pairing dx d/dz S(z_j)^T y_d^j
    self_weight: np.ndarray   # (n_t,) (1 - f_j)^2 + f_j^2, the I weight of G_j
    cross_weight: np.ndarray  # (n_t,) f_j (1 - f_j), the C weight of G_j
    self_rate: np.ndarray     # (n_t,) the I weight of G_j'
    cross_rate: np.ndarray    # (n_t,) the C weight of G_j'


@dataclass(frozen=True)
class SmallnessCertificate:
    """Sufficient condition for the reduced solve to exist on the whole horizon."""

    bound: float
    u_norm_sq: float

    @property
    def zeta(self) -> float:
        return self.bound - self.u_norm_sq

    @property
    def satisfied(self) -> bool:
        return self.u_norm_sq < self.bound


def assemble_spod_rom(
    basis: ModeBasis,
    shapes: ControlShapes,
    y0: np.ndarray,
    grid: SpaceTimeGrid,
) -> SpodRomOperators:
    """Assemble the shift-independent matrices, the pairings B(0) and the
    shift symbol at the n whole-cell shifts, and detect from B(0) whether the
    basis is invariant.

    The shapes must be build_fourier_shapes(grid, (m - 1) // 2) bit for bit.
    By summation by parts B2(0) = -dx Phi'^T b = dx Phi^T (D b) and
    B3(0) = dx Phi^T (D2 b), and the central differences D and D2 act on pair
    k as multiplication by i sin(theta_k) / dx and by
    (2 cos(theta_k) - 2) / dx^2 = -4 sin^2(theta_k / 2) / dx^2, and annihilate
    the constant. T(z) is invertible (|sigma_k| >= cos(theta_k / 2) > 0 for
    xi < n / 2) and N^T B1(z) - B2(z) = (N^T B1(0) - B2(0)) T(z), so the gap
    at z = 0 decides invariance at every shift, the relative gap within a
    factor 1 / cos^2(pi xi / n)."""
    xi = (shapes.m - 1) // 2
    if not np.array_equal(shapes.shapes, build_fourier_shapes(grid, xi).shapes):
        raise ValueError("sPOD-G pairs the modes with Fourier control shapes only: the shapes "
                         f"differ from build_fourier_shapes(grid, {xi})")
    y0 = check_field(y0, grid, "y0")
    Phi = basis.modes
    dPhi = central_derivative(Phi, grid)

    dx = grid.dx
    N = -dx * (Phi.T @ dPhi)
    M2 = dx * (dPhi.T @ dPhi)

    k = np.arange(1, xi + 1)
    theta = (2.0 * np.pi / grid.n) * k
    kappa = np.sin(theta) / dx
    B1 = dx * (Phi.T @ shapes.shapes)
    B2, B3 = np.zeros_like(B1), np.zeros_like(B1)
    B2[:, 1::2] = -kappa * B1[:, 2::2]
    B2[:, 2::2] = kappa * B1[:, 1::2]
    B3[:, 1:] = np.repeat(-4.0 * (np.sin(0.5 * theta) / dx) ** 2, 2) * B1[:, 1:]
    gap = N.T @ B1 - B2
    invariant = bool(np.sum(gap * gap) <= INVARIANT_TOL**2 * np.sum(B2 * B2))

    # e^{i theta_k c} from the whole turns k c mod n, so its angle stays below 2 pi
    cells = np.exp((2j * np.pi / grid.n) * (np.outer(np.arange(grid.n), k) % grid.n))

    gram_cross = dx * (Phi.T @ (np.roll(Phi, 1, axis=0) + np.roll(Phi, -1, axis=0)))
    return SpodRomOperators(
        N=N,
        M2=M2,
        B0=np.vstack([B1, B2, B3]),
        cells=cells,
        gram_cross=gram_cross,
        alpha0=dx * (Phi.T @ y0),
        grid=grid,
        invariant=invariant,
    )


def target_table(basis: ModeBasis, profile: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """The (n, r) pairings dx Phi^T roll(y, q) of the modes with every
    whole-cell roll of the target profile y. Row q is
    dx sum_x y[x - q] Phi[x], for every q at once as one circular correlation."""
    y = check_shape(profile, (grid.n,), "target profile")
    spectrum = np.conj(np.fft.rfft(y))[:, None]
    return grid.dx * np.fft.irfft(spectrum * np.fft.rfft(basis.modes, axis=0), grid.n, axis=0)


def _singular(step: int, c: float, bb: float) -> SingularMassError:
    return SingularMassError(step, f"Schur complement {c - bb:.3e} vs scale {max(1.0, c, bb):.3e}")


def _mass_terms(ops: SpodRomOperators, alpha: np.ndarray, steps: np.ndarray):
    """b_j = N alpha_j, M2 alpha_j and the Schur complement
    s_j = alpha_j^T M2 alpha_j - |b_j|^2 at every column of alpha. A sweep
    solves at `steps`, in its order; the first of them whose mass matrix is not
    regular raises SingularMassError, as it would in the sweep."""
    b, M2a = ops.N @ alpha, ops.M2 @ alpha
    c = np.einsum("rj,rj->j", alpha, M2a)
    bb = np.einsum("rj,rj->j", b, b)
    s = c - bb
    bad = steps[~_regular_mass(s[steps], c[steps], bb[steps])]
    if bad.size:
        j = int(bad[0])
        raise _singular(j, float(c[j]), float(bb[j]))
    return b, M2a, s


def solve_spod_candidates(ops: SpodRomOperators, u: np.ndarray, g: np.ndarray,
                          omegas: list[float]) -> SpodCandidates:
    """The Schur march from (alpha0, 0) for the K controls u - omega_k g side
    by side, in one sweep whose column holds every candidate's (alpha, z). The
    controls of the candidates are formed from u and g for one block of steps
    at a time, never for the horizon. Each step reads the symbol of all K
    shifts at once and makes five small matrix products, so a block costs
    about the per-step call overhead of one march, not K.

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
    K, R1 = len(omegas), r + 1

    # Per candidate one work row: [t | 1 | a, z | M2 a, 0 | b, -1 | B2p, 0 | B1p, v].
    # t = sigma(z) (conj u_pairs - omega conj g_pairs), with the constant shape as
    # a pair of symbol 1 and sigma = cells[c] (1 + f (cells[1] - 1)), so B(z) u is
    # t in real form times B(0) with the imaginary weights negated. One product
    # makes [B2p | B1p] from [t | 1], one makes [M2 a | b] from [1 | a, z]; the
    # slots are r + 1 wide, so the update
    # [a', z'] = [a, z] + dt (v - w) [b, -1] + dt [B1p, v] is one product over
    # every other slot, and the dot products of [a; b] with the four slots
    # after [a, z] are another.
    one, a0 = 2 * xi + 2, 2 * xi + 3
    width = a0 + 5 * R1
    work = np.zeros((K, width + width % 2))  # even: the complex view of t stays aligned
    work[:, one] = 1.0
    WP = np.zeros((2 * xi + 3, 2 * R1))  # [Re t0, Im t0, Re t1, Im t1, ..., 1] -> [B2p | B1p]
    for col, B in ((0, ops.B0[r : 2 * r]), (R1, ops.B0[:r])):
        WP[0, col : col + r] = B[:, 0]
        WP[2:one:2, col : col + r] = B[:, 1::2].T
        WP[3:one:2, col : col + r] = -B[:, 2::2].T
    WP[one, R1 + r] = v
    WA = np.zeros((R1 + 1, 2 * R1))  # [1, a, z] -> [M2 a | b]
    WA[1:R1, :r] = ops.M2.T
    WA[1:R1, R1 : R1 + r] = ops.N.T
    WA[0, R1 + r] = -1.0
    # [dt (b . B1p - a . B2p), s] from the dot products of [a; b] with the slots
    # after [a, z], [M2 a, b, B2p, B1p]; check reads those of the steps of one
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
    z = az[:, r]
    s_cells = np.empty(K)  # (z mod l) / dx, as split_shift forms it
    slots = work[:, a0:width].reshape(K, 5, R1)
    rows, ab = slots[:, 0::2], slots[:, 0:3:2, :r]
    after = slots[:, 1:, :r].transpose(0, 2, 1)

    # the symbol at the n + 1 nodes 0 .. n that snap_cells gives (node n is
    # node 0 again), with the constant shape as a pair of symbol 1
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
        np.remainder(z, grid.l, out=s_cells)
        np.divide(s_cells, dx, out=s_cells)
        c, f = snap_cells(s_cells)  # a non-finite z: garbage c, which clip keeps in range
        tf = f[:, None] * dcand[i]
        tf += cand[i]
        np.multiply(np.take(cells, c, axis=0, mode="clip"), tf, out=t)
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
    return SpodCandidates(alpha=states[:, :r], z=states[:, r], failed_at=failed_at)


def solve_spod_state(ops: SpodRomOperators, u: np.ndarray) -> SpodReducedTrajectory:
    """Explicit Euler for the coupled amplitude/shift dynamics from (alpha0, 0):
    the Schur march of the one control u, in closed form on an invariant
    basis. A step whose mass matrix is not regular, or whose column is not
    finite, raises SingularMassError; a non-finite last column, at which no
    step solves, raises DivergenceError."""
    n_t = ops.grid.n_t
    u = check_shape(u, (ops.m, n_t), "control")
    if ops.invariant:  # zero initial amplitudes fail the margin of step 0
        return _invariant_state(ops, u)
    march = solve_spod_candidates(ops, u, np.broadcast_to(0.0, u.shape), [0.0])
    j = int(march.failed_at[0])
    if j < n_t - 1:
        a = march.alpha[0, :, j]
        with np.errstate(all="ignore"):  # the amplitudes there may be huge or non-finite
            b = ops.N @ a
            err = _singular(j, float(a @ (ops.M2 @ a)), float(b @ b))
        raise err
    if j == n_t - 1:
        raise DivergenceError(j, "spod state")
    # C order: the adjoint and the gradient dot strided columns of alpha, which
    # round differently from contiguous ones in the last bit
    z = march.z[0].copy()
    return SpodReducedTrajectory(alpha=np.ascontiguousarray(march.alpha[0]), z=z,
                                 sig=ops.symbol(z))


def solve_spod_adjoint(
    ops: SpodRomOperators,
    traj: SpodReducedTrajectory,
    u: np.ndarray,
    tracking: SpodTracking,
) -> SpodAdjointTrajectory:
    """Backward sweep of the linearized coupled system from zero terminal data,
    marched as the stacked vector (lambda_a, z_a).

    `tracking` holds the terms along the trajectory's path. The sources are
    the exact (a, z)-derivatives of the lifted cost, t_a = P_j - G_j a_j and
    t_z = a_j . D_j - 1/2 a_j^T G_j' a_j.

    On an invariant basis the adjoint is the closed form
    lambda_j = sum_{k>j} dt (G_k alpha_k - P_k) with z_a = 0, the exact
    gradient of the discrete reduced cost. Otherwise it is a linear recursion
    whose coefficients depend only on the forward trajectory, so all of them
    are formed before the sweep; the amplitude/shift rates among them are
    forward differences of the stored trajectory, the last one repeated at the
    final node.
    """
    n_t, dt, v = ops.grid.n_t, ops.grid.dt, ops.grid.v
    u = check_shape(u, (ops.m, n_t), "control")
    if ops.invariant:
        Ga = gram_apply(ops, tracking.self_weight, tracking.cross_weight, traj.alpha)
        source = dt * (Ga - tracking.P)
        lam = np.zeros_like(source)
        lam[:, :-1] = np.cumsum(source[:, :0:-1], axis=1)[:, ::-1]
        bad = np.flatnonzero(~np.isfinite(lam.sum(axis=0)))
        if bad.size:
            raise DivergenceError(int(bad[-1]), "spod adjoint")
        return SpodAdjointTrajectory(lambda_a=lam, z_a=np.zeros(n_t))
    r = ops.r

    alpha, zpath = traj.alpha, traj.z
    # the sweep solves at steps n_t-1 .. 1
    b, M2a, s = _mass_terms(ops, alpha, np.arange(n_t - 1, 0, -1))
    adot = np.diff(alpha, axis=1) / dt
    adot = np.append(adot, adot[:, -1:], axis=1)
    zrel = np.diff(zpath) / dt - v  # shift rate relative to the transport speed
    zrel = np.append(zrel, zrel[-1])
    B2u = ops.along(slice(r, 2 * r), traj.sig, u)
    aB3u = np.einsum("rj,rj->j", alpha, ops.along(slice(2 * r, 3 * r), traj.sig, u))
    # coefficients of the scalar adjoint in the amplitude and the shift rows:
    # the skew pairing contributes -2 N alpha_dot (operator adjoint plus
    # mass-matrix rate; they add, not cancel, because N is skew)
    e12 = -2.0 * (ops.N @ adot) + 2.0 * zrel * M2a - B2u
    e22 = -2.0 * np.einsum("rj,rj->j", alpha, ops.M2 @ adot) - aB3u
    t_alpha = tracking.P - gram_apply(ops, tracking.self_weight, tracking.cross_weight, alpha)
    rate_a = gram_apply(ops, tracking.self_rate, tracking.cross_rate, alpha)
    t_z = np.einsum("rj,rj->j", alpha, tracking.D - 0.5 * rate_a)
    NT = ops.N.T

    def step(x: np.ndarray, j: int, nxt: np.ndarray) -> None:
        lam, za = x[:r], x[r]
        NTl = NT @ lam
        rhs_a = zrel[j] * NTl + e12[:, j] * za + t_alpha[:, j]
        rhs_z = -(adot[:, j] @ NTl) - B2u[:, j] @ lam + e22[j] * za + t_z[j]
        w = (rhs_z - b[:, j] @ rhs_a) / s[j]
        # lam - dt (rhs_a - b_j w), in that order
        nxt_a = np.multiply(b[:, j], w, out=nxt[:r])
        np.subtract(rhs_a, nxt_a, out=nxt_a)
        nxt_a *= dt
        np.subtract(lam, nxt_a, out=nxt_a)
        nxt[r] = za - dt * w

    x = euler_sweep(step, np.zeros(r + 1), n_t, True, "spod adjoint")
    return SpodAdjointTrajectory(lambda_a=np.ascontiguousarray(x[:r]), z_a=x[r].copy())


def gradient_spod(
    ops: SpodRomOperators,
    traj: SpodReducedTrajectory,
    adjoint: SpodAdjointTrajectory,
    u: np.ndarray,
    mu: float,
) -> np.ndarray:
    """Column j is mu u(t_j) + B1(z_j)^T lambda(t_j) + B2(z_j)^T alpha(t_j) z_a(t_j)
    (z_a = 0 on an invariant basis)."""
    w = adjoint.lambda_a
    if adjoint.z_a.any():  # else the B2 rows add nothing
        w = np.concatenate([w, traj.alpha * adjoint.z_a])
    return mu * np.asarray(u, dtype=float) + ops.along(slice(0, len(w)), traj.sig, w,
                                                       transpose=True)


def tracking_terms(
    table: np.ndarray,
    target_path: np.ndarray,
    z: np.ndarray,
    grid: SpaceTimeGrid,
) -> SpodTracking:
    """Tracking terms along the shift path z of the target whose column j is
    the profile of the target table shifted by target_path[j].

    With k_j, f_j the whole cells and fraction of z_j and c_j, b_j those of
    the target shift, y_d^j = (1 - b_j) roll(y, c_j) + b_j roll(y, c_j + 1),
    so dx Phi^T roll(y_d^j, -k) is a blend of two table rows around
    q_j = c_j - k_j. S(z_j)^T y_d^j blends the rolls by -k_j and -(k_j + 1);
    the z-slope times dx is their difference, at an aligned shift the central
    difference of the rolls by -(k_j - 1) and -(k_j + 1)."""
    n, n_t = grid.n, grid.n_t
    k, frac = split_shift(check_shape(z, (n_t,), "shift path"), grid)
    c, b = split_shift(check_shape(target_path, (n_t,), "target path"), grid)
    q = c - k

    def roll_pairing(d, steps=slice(None)):
        """Rows dx Phi^T roll(y_d^j, -(k_j + d)) at the steps j."""
        qd, bd = q[steps] - d, b[steps, None]
        return (1.0 - bd) * table[qd % n] + bd * table[(qd + 1) % n]

    here, ahead = roll_pairing(0), roll_pairing(1)
    f = frac[:, None]
    P = (1.0 - f) * here + f * ahead
    aligned = frac == 0.0
    D = ahead - here
    D[aligned] = 0.5 * (ahead[aligned] - roll_pairing(-1, aligned))
    D /= grid.dx
    return SpodTracking(
        P=np.ascontiguousarray(P.T),
        D=np.ascontiguousarray(D.T),
        self_weight=(1.0 - frac) ** 2 + frac**2,
        cross_weight=frac * (1.0 - frac),
        self_rate=np.where(aligned, 0.0, (4.0 * frac - 2.0) / grid.dx),
        cross_rate=np.where(aligned, 0.0, (1.0 - 2.0 * frac) / grid.dx),
    )


def gram_apply(ops: SpodRomOperators, self_w: np.ndarray, cross_w: np.ndarray,
               alpha: np.ndarray) -> np.ndarray:
    """Columns (self_w_j I + cross_w_j C) alpha_j, C the one-cell cross Gram:
    G_j alpha_j from the tracking weights, G_j' alpha_j from the rates."""
    return self_w * alpha + cross_w * (ops.gram_cross @ alpha)


def reduced_cost(
    ops: SpodRomOperators,
    tracking: SpodTracking,
    alpha: np.ndarray,
    u: np.ndarray,
    mu: float,
    target_energy: float,
) -> CostBreakdown:
    """fom.cost of the lifted trajectory with amplitudes alpha, from the reduced
    quantities alone: `tracking` holds the terms along its path, target_energy
    the problem's."""
    dt = ops.grid.dt
    Ga = gram_apply(ops, tracking.self_weight, tracking.cross_weight, alpha)
    per_step = np.einsum("rj,rj->j", alpha, Ga - 2.0 * tracking.P)
    tracking_cost = 0.5 * dt * float(np.sum(per_step)) + target_energy
    regularization = 0.5 * mu * dt * float(np.sum(np.asarray(u) ** 2))
    return CostBreakdown(tracking=tracking_cost, regularization=regularization)


def invariant_response(ops: SpodRomOperators, u: np.ndarray) -> np.ndarray:
    """alpha_j = dt sum_{k<j} B1(v t_k) u_k, (r, n_t): the amplitudes an
    invariant basis reaches from alpha = 0 under the control u, along z = v t."""
    alpha, sig = np.zeros((ops.r, ops.grid.n_t)), ops.drift_symbol[:-1]
    np.cumsum(ops.grid.dt * ops.along(slice(0, ops.r), sig, u[:, :-1]), axis=1, out=alpha[:, 1:])
    return alpha


def _invariant_state(ops: SpodRomOperators, u: np.ndarray) -> SpodReducedTrajectory:
    """z_j = v t_j and alpha_j = alpha0 + invariant_response. The Schur margins
    of the trajectory are checked in one batch, so a singular step or a
    non-finite amplitude raises SingularMassError where the Schur sweep would."""
    grid, alpha = ops.grid, invariant_response(ops, u) + ops.alpha0[:, None]
    _mass_terms(ops, alpha[:, :-1], np.arange(grid.n_t - 1))  # the sweep solves at 0 .. n_t-2
    if not np.all(np.isfinite(alpha[:, -1])):
        raise DivergenceError(grid.n_t - 1, "spod state")
    return SpodReducedTrajectory(alpha, uncontrolled_shift_path(grid), ops.drift_symbol)


def lift_spod(basis: ModeBasis, traj: SpodReducedTrajectory, grid: SpaceTimeGrid) -> np.ndarray:
    """Reconstruct full-order snapshots: column j is the shifted mode combination."""
    alpha = traj.alpha
    if alpha.shape[0] != basis.r:
        raise ValueError(f"amplitudes have {alpha.shape[0]} rows, basis has r={basis.r}")
    return shift_columns(basis.modes @ alpha, traj.z, grid)


def certify_smallness(ops: SpodRomOperators, u: np.ndarray) -> SmallnessCertificate:
    """Check the control against the well-posedness bound
    ||u||^2 < ||alpha0||^2 / (||B||^2 e T r), with ||u||^2 = dt sum u^2 and
    ||B||^2 = l for the Fourier shapes the operators pair with."""
    a0_sq = float(ops.alpha0 @ ops.alpha0)
    if a0_sq == 0.0:
        raise ValueError("initial amplitudes are zero; the bound is vacuous")
    grid = ops.grid
    bound = a0_sq / (grid.l * math.e * grid.T * ops.r)
    return SmallnessCertificate(bound=bound, u_norm_sq=grid.dt * float(np.sum(u * u)))
