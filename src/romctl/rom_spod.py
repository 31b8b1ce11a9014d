"""Nonlinear Galerkin reduced model built on the periodic shift ansatz.

The reduced state couples mode amplitudes with a scalar shift; the mass matrix
[[I, N a], [a^T N^T, a^T M2 a]] is inverted per step through the Schur
complement on the scalar block, which stays positive whenever the modes and
their derivatives are independent and the amplitudes stay away from zero.

The state is never lifted to evaluate the tracking cost: for dx-orthonormal
modes it is a quadratic form in a whose coefficients tracking_terms builds once
per shift path, and the cost and the adjoint read them.

When the basis is invariant, N^T B1(z) = B2(z) at every shift (the span of
y0 and the control shapes is one such basis), and the mass-matrix system has
the exact solution z' = v, a' = B1(v t) u: the model is linear time-varying in
u. assemble_spod_rom detects this, and the state, adjoint and gradient then run
in closed form along z_j = v t_j.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ModeBasis
from .control import ControlShapes, operator_norm_B, signal_norm_sq
from .discretization import SpaceTimeGrid, central_derivative, check_field, check_shape
from .fom import CostBreakdown, DivergenceError, euler_sweep
from .transform import shift_field, split_shift, uncontrolled_shift_path

# relative gap |N^T B1 - B2| / |B2| up to which a basis counts as invariant
INVARIANT_TOL = 1e-10


class SingularMassError(DivergenceError):
    """Raised when the reduced mass matrix degenerates during a sweep."""

    def __init__(self, step: int, detail: str):
        self.step = step
        RuntimeError.__init__(
            self, f"reduced mass matrix is numerically singular at step {step}: {detail}"
        )


@dataclass(frozen=True)
class SpodRomOperators:
    N: np.ndarray             # (r, r) skew pairing of modes with mode slopes
    M2: np.ndarray            # (r, r) Gram matrix of mode slopes
    B_table: np.ndarray       # (n_samples, 3r, m) shifted modes, their shift
                              # derivative and their curvature against shapes
    sample_shifts: np.ndarray  # (n_samples,) equispaced over [0, l)
    gram_cross: np.ndarray    # (r, r) one-cell cross Gram of the modes
    alpha0: np.ndarray        # (r,)
    l: float
    invariant: bool           # N^T B1 = B2 on the whole table: closed-form solves

    @property
    def r(self) -> int:
        return self.N.shape[0]

    @property
    def m(self) -> int:
        return self.B_table.shape[2]

    def pairings(self, z: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three (r, m) control pairings B1, B2 = dB1/dz, B3 = dB2/dz at shift z."""
        B = lookup_B(self.B_table, self.sample_shifts, self.l, z)
        r = self.r
        return B[:r], B[r : 2 * r], B[2 * r :]

    def B1_along(self, z: np.ndarray, w: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Columns B1(z_j) w_j (B1(z_j)^T w_j when `transpose`) along a path z,
        with B1 interpolated as `pairings` interpolates it. The two table rows
        of each z_j multiply the weighted w_j, so no blended (len(z), r, m)
        stack is formed."""
        n_samples = len(self.sample_shifts)
        s = (np.asarray(z, dtype=float) % self.l) / (self.l / n_samples)
        lo = np.floor(s)
        frac = s - lo
        k = lo.astype(int) % n_samples
        B1 = self.B_table[:, : self.r]
        if transpose:  # row vectors w_j^T against (r, m) rows
            out = np.matmul(((1.0 - frac) * w).T[:, None, :], B1[k])
            out += np.matmul((frac * w).T[:, None, :], B1[(k + 1) % n_samples])
            return out[:, 0, :].T
        out = np.matmul(B1[k], ((1.0 - frac) * w).T[:, :, None])
        out += np.matmul(B1[(k + 1) % n_samples], (frac * w).T[:, :, None])
        return out[:, :, 0].T


@dataclass(frozen=True)
class SpodReducedTrajectory:
    alpha: np.ndarray  # (r, n_t)
    z: np.ndarray      # (n_t,)


@dataclass(frozen=True)
class SpodAdjointTrajectory:
    lambda_a: np.ndarray  # (r, n_t)
    z_a: np.ndarray       # (n_t,)


@dataclass(frozen=True)
class SpodTracking:
    """The control-independent parts of the lifted tracking cost along one
    shift path z_j. With k_j, f_j the whole cells and fraction of z_j, the
    lifted state is S(z_j) Phi alpha_j and, for dx-orthonormal modes,
    dx |S(z_j) Phi a - y_d^j|^2 = a^T G_j a - 2 a^T P_j + dx |y_d^j|^2.
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
    target_sq: np.ndarray     # (n_t,) dx |y_d^j|^2


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
    n_samples: int,
) -> SpodRomOperators:
    """Assemble the shift-independent matrices plus shift-sampled control
    pairings on an equispaced table over [0, l), and detect from the table
    whether the basis is invariant."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 shift samples for interpolation, got {n_samples}")
    y0 = check_field(y0, grid, "y0")
    Phi = basis.modes
    r = basis.r
    dPhi = central_derivative(Phi, grid, 1)
    ddPhi = central_derivative(Phi, grid, 2)

    dx = grid.dx
    N = -dx * (Phi.T @ dPhi)
    M2 = dx * (dPhi.T @ dPhi)

    sample_shifts = (grid.l / n_samples) * np.arange(n_samples)
    table = shift_pairing_table(np.column_stack([Phi, dPhi, ddPhi]), shapes, grid, sample_shifts)
    table[:, r : 2 * r] *= -1.0  # d/dz of the shifted mode is minus its shifted slope
    # invariant basis: |N^T B1 - B2| <= INVARIANT_TOL |B2| at every sample
    B2 = table[:, r : 2 * r]
    gap = N.T @ table[:, :r]
    gap -= B2
    sq = lambda a: np.einsum("sij,sij->s", a, a)  # squared norm per sample, no temporary
    invariant = bool(np.all(sq(gap) <= INVARIANT_TOL**2 * sq(B2)))

    gram_cross = dx * (Phi.T @ (np.roll(Phi, 1, axis=0) + np.roll(Phi, -1, axis=0)))
    return SpodRomOperators(
        N=N,
        M2=M2,
        B_table=table,
        sample_shifts=sample_shifts,
        gram_cross=gram_cross,
        alpha0=dx * (Phi.T @ y0),
        l=grid.l,
        invariant=invariant,
    )


def shift_pairing_table(
    fields: np.ndarray,
    shapes: ControlShapes,
    grid: SpaceTimeGrid,
    sample_shifts: np.ndarray,
) -> np.ndarray:
    """(n_samples, k, m) table of dx * shift_field(fields, z).T @ shapes at each
    sample shift z.

    A linear-interpolation shift blends two whole-cell rolls, and the pairings
    of every roll of the (n, k) fields with one shape are one circular
    correlation, so each shape costs one rfft/irfft pair and memory stays at
    (n, k). Each sample then blends two rows, snapped as shift_field snaps.
    """
    n = grid.n
    split = [split_shift(z, grid) for z in sample_shifts]
    k = np.array([c for c, _ in split])
    frac = np.array([f for _, f in split])[:, None]
    spectrum = np.conj(np.fft.rfft(fields, axis=0))
    table = np.empty((len(sample_shifts), fields.shape[1], shapes.m))
    for c in range(shapes.m):
        # row q: dx * sum_x fields[x - q] b_c[x], the pairing of the q-cell roll
        corr = np.fft.irfft(spectrum * np.fft.rfft(shapes.shapes[:, c])[:, None], n, axis=0)
        corr *= grid.dx
        table[:, :, c] = (1.0 - frac) * corr[k] + frac * corr[(k + 1) % n]
    return table


def lookup_B(table: np.ndarray, sample_shifts: np.ndarray, l: float, z: float) -> np.ndarray:
    """Periodic linear interpolation of a shift-sampled table."""
    n_samples = table.shape[0]
    if n_samples == 0:
        raise ValueError("empty shift table")
    step = l / n_samples
    s = (float(z) % l) / step
    k = int(np.floor(s)) % n_samples
    frac = s - np.floor(s)
    if frac == 0.0:
        return table[k]
    return (1.0 - frac) * table[k] + frac * table[(k + 1) % n_samples]


def _regular_mass(s, c, bb):
    """Whether the mass matrix counts as regular at a step whose Schur
    complement is s = c - |b|^2: s finite and above 1e-12 max(1, c, |b|^2).
    Elementwise on arrays of steps."""
    return (s < math.inf) & (s > 1e-12) & (s > 1e-12 * c) & (s > 1e-12 * bb)


def _singular(step: int, c: float, bb: float) -> SingularMassError:
    return SingularMassError(step, f"Schur complement {c - bb:.3e} vs scale {max(1.0, c, bb):.3e}")


def _schur_solve(
    N: np.ndarray,
    M2: np.ndarray,
    alpha: np.ndarray,
    rhs_a: np.ndarray,
    rhs_z: float,
    step: int,
) -> tuple[np.ndarray, float]:
    """Solve [[I, b], [b^T, c]] (x, w) = (rhs_a, rhs_z) with b = N alpha and
    c = alpha^T M2 alpha via the scalar Schur complement."""
    b = N @ alpha
    c = float(alpha @ (M2 @ alpha))
    bb = float(b @ b)
    s = c - bb
    if not _regular_mass(s, c, bb):
        raise _singular(step, c, bb)
    w = (rhs_z - float(b @ rhs_a)) / s
    x = rhs_a - b * w
    return x, w


def solve_spod_state(
    ops: SpodRomOperators,
    u: np.ndarray,
    grid: SpaceTimeGrid,
) -> SpodReducedTrajectory:
    """Explicit Euler for the coupled amplitude/shift dynamics, marched as the
    stacked vector (alpha, z) from (alpha0, 0); in closed form on an invariant
    basis."""
    u = check_shape(u, (ops.m, grid.n_t), "control")
    if float(ops.alpha0 @ ops.alpha0) == 0.0:
        raise SingularMassError(0, "initial amplitudes are zero")
    if ops.invariant:
        return _invariant_state(ops, u, grid)
    dt, v, r = grid.dt, grid.v, ops.r

    def step(x: np.ndarray, j: int) -> np.ndarray:
        a, z = x[:r], float(x[r])
        if not math.isfinite(z):  # the table lookup needs a finite shift
            raise SingularMassError(j, "non-finite shift")
        B1, B2, _ = ops.pairings(z)
        rhs_a = v * (ops.N @ a) + B1 @ u[:, j]
        rhs_z = v * float(a @ (ops.M2 @ a)) + float(a @ (B2 @ u[:, j]))
        da, dz = _schur_solve(ops.N, ops.M2, a, rhs_a, rhs_z, j)
        return np.append(a + dt * da, z + dt * dz)

    x = euler_sweep(step, np.append(ops.alpha0, 0.0), grid.n_t, False, "spod state")
    # C order: the adjoint and the gradient dot strided columns of alpha, which
    # round differently from contiguous ones in the last bit
    return SpodReducedTrajectory(alpha=np.ascontiguousarray(x[:r]), z=x[r].copy())


def solve_spod_adjoint(
    ops: SpodRomOperators,
    traj: SpodReducedTrajectory,
    u: np.ndarray,
    tracking: SpodTracking,
    grid: SpaceTimeGrid,
) -> SpodAdjointTrajectory:
    """Backward sweep of the linearized coupled system from zero terminal data,
    marched as the stacked vector (lambda_a, z_a).

    `tracking` holds the terms along the trajectory's path. The sources are
    the exact (a, z)-derivatives of the lifted cost, t_a = P_j - G_j a_j and
    t_z = a_j . D_j - 1/2 a_j^T G_j' a_j, computed before the sweep.

    On an invariant basis the adjoint is the closed form
    lambda_j = sum_{k>j} dt (G_k alpha_k - P_k) with z_a = 0, the exact
    gradient of the discrete reduced cost. Otherwise the amplitude/shift rates
    entering the coefficients are forward differences of the stored trajectory.
    """
    u = np.asarray(u, dtype=float)
    n_t, dt, v = grid.n_t, grid.dt, grid.v
    if ops.invariant:
        Ga = _gram_apply(ops, tracking.self_weight, tracking.cross_weight, traj.alpha)
        source = dt * (Ga - tracking.P)
        lam = np.zeros_like(source)
        lam[:, :-1] = np.cumsum(source[:, :0:-1], axis=1)[:, ::-1]
        bad = np.flatnonzero(~np.isfinite(lam.sum(axis=0)))
        if bad.size:
            raise DivergenceError(int(bad[-1]), "spod adjoint")
        return SpodAdjointTrajectory(lambda_a=lam, z_a=np.zeros(n_t))
    r = ops.r

    alpha, zpath = traj.alpha, traj.z
    adot = np.diff(alpha, axis=1) / dt        # rate used at node j for j < n_t-1
    zdot = np.diff(zpath) / dt
    t_alpha = tracking.P - _gram_apply(ops, tracking.self_weight, tracking.cross_weight, alpha)
    rate_a = _gram_apply(ops, tracking.self_rate, tracking.cross_rate, alpha)
    t_z = np.einsum("rj,rj->j", alpha, tracking.D - 0.5 * rate_a)

    def step(x: np.ndarray, j: int) -> np.ndarray:
        cur_l, cur_z = x[:r], float(x[r])
        a = alpha[:, j]
        jd = min(j, n_t - 2)
        ad_j = adot[:, jd]
        zd_j = zdot[jd]
        uj = u[:, j]
        _, B2z, B3z = ops.pairings(zpath[j])
        B2u = B2z @ uj
        B3u = B3z @ uj

        NTl = ops.N.T @ cur_l
        # coefficient of the scalar adjoint: the skew pairing contributes
        # -2 N alpha_dot (operator adjoint plus mass-matrix rate; they add,
        # not cancel, because N is skew)
        e12 = -2.0 * (ops.N @ ad_j) + 2.0 * (zd_j - v) * (ops.M2 @ a) - B2u
        rhs_a = (zd_j - v) * NTl + e12 * cur_z + t_alpha[:, j]
        rhs_z = (
            -float(ad_j @ NTl)
            - float(uj @ (B2z.T @ cur_l))
            + (-2.0 * float(a @ (ops.M2 @ ad_j)) - float(B3u @ a)) * cur_z
            + t_z[j]
        )
        dl, dz = _schur_solve(ops.N, ops.M2, a, rhs_a, rhs_z, j)
        return np.append(cur_l - dt * dl, cur_z - dt * dz)

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
    u = np.asarray(u, dtype=float)
    if ops.invariant:
        return mu * u + ops.B1_along(traj.z, adjoint.lambda_a, transpose=True)
    g = mu * u.copy()
    for j in range(u.shape[1]):
        B1, B2, _ = ops.pairings(traj.z[j])
        g[:, j] += B1.T @ adjoint.lambda_a[:, j]
        g[:, j] += (B2.T @ traj.alpha[:, j]) * adjoint.z_a[j]
    return g


def tracking_terms(
    basis: ModeBasis,
    target: np.ndarray,
    z: np.ndarray,
    grid: SpaceTimeGrid,
) -> SpodTracking:
    """Tracking terms of the target snapshots along the shift path z."""
    target = check_shape(target, (grid.n, grid.n_t), "target")
    n, PhiT = grid.n, basis.modes.T
    P = np.empty((basis.r, grid.n_t))
    D = np.empty((basis.r, grid.n_t))
    frac = np.empty(grid.n_t)
    # column by column into three work columns, so that the loop allocates
    # nothing of size n and no (n, n_t) temporary is made
    yy, w, wf = np.empty(2 * n), np.empty(n), np.empty(n)
    for j in range(grid.n_t):
        # S(z)^T y = (1 - f) roll(y, -k) + f roll(y, -(k + 1)), and each roll
        # is a window of the doubled column. The z-slope times dx is the
        # difference of the two rolls, at an aligned shift the central
        # difference of the neighbouring rolls.
        k, f = split_shift(z[j], grid)
        frac[j] = f
        yy[:n] = yy[n:] = target[:, j]
        lo, hi = yy[k : k + n], yy[k + 1 : k + 1 + n]
        np.multiply(lo, 1.0 - f, out=w)
        w += np.multiply(hi, f, out=wf)
        P[:, j] = PhiT @ w
        if f:
            np.subtract(hi, lo, out=w)
        else:
            prev = (k - 1) % n
            np.subtract(hi, yy[prev : prev + n], out=w)
            w *= 0.5
        D[:, j] = PhiT @ w
    aligned = frac == 0.0
    return SpodTracking(
        P=grid.dx * P,
        D=D,
        self_weight=(1.0 - frac) ** 2 + frac**2,
        cross_weight=frac * (1.0 - frac),
        self_rate=np.where(aligned, 0.0, (4.0 * frac - 2.0) / grid.dx),
        cross_rate=np.where(aligned, 0.0, (1.0 - 2.0 * frac) / grid.dx),
        target_sq=grid.dx * np.einsum("ij,ij->j", target, target),
    )


def _gram_apply(ops: SpodRomOperators, self_w: np.ndarray, cross_w: np.ndarray,
                alpha: np.ndarray) -> np.ndarray:
    """Columns (self_w_j I + cross_w_j C) alpha_j, C the one-cell cross Gram:
    G_j alpha_j from the tracking weights, G_j' alpha_j from the rates."""
    return self_w * alpha + cross_w * (ops.gram_cross @ alpha)


def reduced_cost(
    ops: SpodRomOperators,
    tracking: SpodTracking,
    traj: SpodReducedTrajectory,
    u: np.ndarray,
    mu: float,
    dt: float,
) -> CostBreakdown:
    """fom.cost of the lifted trajectory, from the reduced quantities alone;
    `tracking` holds the terms along the trajectory's path."""
    alpha = traj.alpha
    Ga = _gram_apply(ops, tracking.self_weight, tracking.cross_weight, alpha)
    per_step = np.einsum("rj,rj->j", alpha, Ga - 2.0 * tracking.P)
    tracking_cost = 0.5 * dt * float(np.sum(per_step + tracking.target_sq))
    regularization = 0.5 * mu * dt * float(np.sum(np.asarray(u) ** 2))
    return CostBreakdown(tracking=tracking_cost, regularization=regularization)


def _invariant_state(ops: SpodRomOperators, u: np.ndarray, grid: SpaceTimeGrid) -> SpodReducedTrajectory:
    """z_j = v t_j and alpha_j = alpha0 + dt sum_{k<j} B1(z_k) u_k. The Schur
    margins of the trajectory are checked in one batch, so a singular step or a
    non-finite amplitude raises SingularMassError where the Schur sweep would."""
    n_t, r = grid.n_t, ops.r
    z = uncontrolled_shift_path(grid)
    alpha = np.empty((r, n_t))
    alpha[:, 0] = ops.alpha0
    np.cumsum(grid.dt * ops.B1_along(z[:-1], u[:, :-1]), axis=1, out=alpha[:, 1:])
    alpha[:, 1:] += ops.alpha0[:, None]
    # the Schur sweep solves at columns 0 .. n_t-2
    a = alpha[:, :-1]
    b = ops.N @ a
    c = np.einsum("rj,rj->j", a, ops.M2 @ a)
    bb = np.einsum("rj,rj->j", b, b)
    bad = np.flatnonzero(~_regular_mass(c - bb, c, bb))
    if bad.size:
        j = int(bad[0])
        raise _singular(j, float(c[j]), float(bb[j]))
    if not np.all(np.isfinite(alpha[:, -1])):
        raise DivergenceError(n_t - 1, "spod state")
    return SpodReducedTrajectory(alpha=alpha, z=z)


def lift_spod(basis: ModeBasis, traj: SpodReducedTrajectory, grid: SpaceTimeGrid) -> np.ndarray:
    """Reconstruct full-order snapshots: column j is the shifted mode combination."""
    alpha = traj.alpha
    if alpha.shape[0] != basis.r:
        raise ValueError(f"amplitudes have {alpha.shape[0]} rows, basis has r={basis.r}")
    out = np.empty((basis.modes.shape[0], alpha.shape[1]))
    for j in range(alpha.shape[1]):
        out[:, j] = shift_field(basis.modes @ alpha[:, j], traj.z[j], grid)
    return out


def certify_smallness(
    ops: SpodRomOperators,
    u: np.ndarray,
    shapes: ControlShapes,
    grid: SpaceTimeGrid,
) -> SmallnessCertificate:
    """Check the control against the well-posedness bound
    ||u||^2 < ||alpha0||^2 / (||B||^2 e T r)."""
    a0_sq = float(ops.alpha0 @ ops.alpha0)
    if a0_sq == 0.0:
        raise ValueError("initial amplitudes are zero; the bound is vacuous")
    bnorm = operator_norm_B(shapes, grid)
    bound = a0_sq / (bnorm**2 * math.e * grid.T * ops.r)
    return SmallnessCertificate(bound=bound, u_norm_sq=signal_norm_sq(u, grid.dt))
