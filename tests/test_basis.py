import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romctl import build_fourier_shapes, fom, models
from romctl.basis import (
    RANK_FLOOR,
    SKETCH_CERTIFICATE,
    SKETCH_WIDTH,
    ModeRule,
    eigenfunction_stationary_basis,
    singular_values,
    weighted_svd,
)
from romctl.experiments import (
    ScenarioConfig,
    build_model,
    gaussian_initial_condition,
    smooth_random_signal,
)
from romctl.transform import transform_snapshots, uncontrolled_shift_path
from conftest import coarse_grid, field_norm, inner_product, pod_basis


def test_rank_one_snapshots(grid, y0):
    Q = np.outer(y0, np.linspace(1.0, 2.0, grid.n_t))
    with pytest.warns(RuntimeWarning, match="rank"):
        basis, sigma = pod_basis(Q, 3, grid)
    assert basis.r == 1
    assert field_norm(basis.modes[:, 0], grid) == pytest.approx(1.0, abs=1e-10)
    # the single mode is proportional to the snapshot column
    cosang = inner_product(basis.modes[:, 0], y0, grid) / field_norm(y0, grid)
    assert abs(abs(cosang) - 1.0) < 1e-10


def test_mode_orthonormality(grid, rng):
    Q = rng.standard_normal((grid.n, grid.n_t))
    basis, _ = pod_basis(Q, 8, grid)
    gram = grid.dx * (basis.modes.T @ basis.modes)
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)


def test_reconstruction_beats_random_projectors(rng):
    g = coarse_grid(n=40, n_t=30)
    Q = rng.standard_normal((g.n, g.n_t))
    r = 5
    basis, _ = pod_basis(Q, r, g)
    P = g.dx * (basis.modes @ basis.modes.T)
    best = np.linalg.norm(np.sqrt(g.dx) * (Q - P @ Q))
    for _ in range(100):
        X = rng.standard_normal((g.n, r))
        Xw = np.linalg.qr(np.sqrt(g.dx) * X)[0]
        Prand = Xw @ Xw.T
        err = np.linalg.norm(Prand @ (np.sqrt(g.dx) * Q) - np.sqrt(g.dx) * Q)
        assert best <= err + 1e-12


def test_eckart_young_tail(grid, rng):
    Q = rng.standard_normal((grid.n, 25))
    r = 6
    basis, sigma = pod_basis(Q, r, grid)
    P = grid.dx * (basis.modes @ basis.modes.T)
    err = np.linalg.norm(np.sqrt(grid.dx) * (Q - P @ Q))
    assert err == pytest.approx(np.sqrt(np.sum(sigma[r:] ** 2)), rel=1e-10)


def test_zero_snapshots_rejected(grid):
    with pytest.raises(ValueError):
        pod_basis(np.zeros((grid.n, 4)), 1, grid)


def mode_count(sigma, tol):
    return ModeRule.tolerance(tol).select(sigma)


def test_mode_rule_validation():
    with pytest.raises(ValueError):
        ModeRule()
    with pytest.raises(ValueError):
        ModeRule(count=3, tol=0.1)
    assert ModeRule.fixed(5).select(np.ones(3)) == 5
    assert ModeRule.tolerance(1e-2).select(np.array([1.0, 0.5, 1e-5])) == 2


def test_mode_count_rank_one():
    assert mode_count(np.array([3.0, 0.0, 0.0]), 0.5) == 1


def test_mode_count_paper_style_spectrum():
    sigma = 10.0 ** -np.arange(12.0)
    assert mode_count(sigma, 1e-2) == 2
    assert mode_count(sigma, 1e-7) == 7


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    t1=st.floats(min_value=1e-10, max_value=0.99),
    t2=st.floats(min_value=1e-10, max_value=0.99),
)
def test_mode_count_monotone_in_tolerance(seed, t1, t2):
    r = np.random.default_rng(seed)
    sigma = np.sort(r.uniform(0.0, 1.0, size=20))[::-1]
    sigma[0] = 1.0
    lo, hi = min(t1, t2), max(t1, t2)
    assert mode_count(sigma, lo) >= mode_count(sigma, hi)


def test_mode_count_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        mode_count(np.zeros(3), 1e-3)
    with pytest.raises(ValueError):
        mode_count(np.array([]), 1e-3)
    for tol in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            ModeRule.tolerance(tol)


def test_eigenfunction_basis_size(grid, y0):
    sh = build_fourier_shapes(grid, 20)
    basis = eigenfunction_stationary_basis(grid, sh, y0)
    assert basis.r == 42


def test_eigenfunction_basis_degenerate_stack(grid):
    sh = build_fourier_shapes(grid, 1)
    with pytest.warns(RuntimeWarning, match="span"):
        basis = eigenfunction_stationary_basis(grid, sh, sh.shapes[:, 0].copy())
    assert basis.r == sh.m


def test_eigenfunction_basis_spans_shapes(grid, y0):
    sh = build_fourier_shapes(grid, 3)
    basis = eigenfunction_stationary_basis(grid, sh, y0)
    P = grid.dx * (basis.modes @ basis.modes.T)
    for k in range(sh.m):
        b = sh.shapes[:, k]
        assert field_norm(b - P @ b, grid) < 1e-10


def test_weighted_svd_spectrum_sorted(grid, rng):
    _, sigma = weighted_svd(rng.standard_normal((grid.n, 12)), grid)
    assert np.all(np.diff(sigma) <= 0)
    assert np.all(sigma >= 0)


def dense_weighted_svd(Q, grid):
    """The dense path of weighted_svd, the reference of its certified sketch."""
    w = np.sqrt(grid.dx)
    U, sigma, _ = np.linalg.svd(w * Q, full_matrices=False)
    return U / w, sigma


def numerical_rank(sigma):
    return int(np.sum(sigma > RANK_FLOOR * sigma[0]))


def _reproduce_studies():
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_studies.py"
    spec = importlib.util.spec_from_file_location("reproduce_studies", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# the adaptive sPOD-G at desk scale (unit CFL) and perfbench's half scale
DESK_SPOD = ScenarioConfig(n=401, n_t=300, T=300 * (100.0 / 401) / 0.55, xi=5,
                           model="spod", mode_tol=1e-6)
HALF_SPOD = ScenarioConfig(n=1601, n_t=1200, T=136.27846232468343, xi=20,
                           model="spod", modes=42)


def refresh_control(model, seed):
    """Zero at seed 0, else a smooth signal of amplitude 1e-8 (perfbench's
    seeded initial controls)."""
    shape = (model.problem.shapes.m, model.problem.grid.n_t)
    if seed == 0:
        return np.zeros(shape)
    return smooth_random_signal(np.random.default_rng(seed), *shape, amp=1e-8)


def comoving_snapshots(model, u):
    p = model.problem
    Q = fom.solve_state(p.grid, p.shapes, u, p.y0)
    return transform_snapshots(Q, uncontrolled_shift_path(p.grid), p.grid)


@pytest.mark.parametrize(
    "cfg, seed",
    [(DESK_SPOD, 0), (DESK_SPOD, 1), (DESK_SPOD, 2), (DESK_SPOD, 3), (HALF_SPOD, 2)],
    ids=["desk-0", "desk-1", "desk-2", "desk-3", "half-2"],
)
def test_certified_sketch_matches_dense_svd(cfg, seed, monkeypatch):
    model = build_model(cfg)
    grid = model.problem.grid
    u = refresh_control(model, seed)
    Qs = comoving_snapshots(model, u)
    modes, sigma = weighted_svd(Qs, grid)
    _, dense = dense_weighted_svd(Qs, grid)
    assert len(sigma) == SKETCH_WIDTH < len(dense)  # the sketch was certified
    rank = numerical_rank(dense)
    assert numerical_rank(sigma) == rank
    assert np.max(np.abs(sigma[:rank] - dense[:rank])) <= SKETCH_CERTIFICATE * dense[0]
    gram = grid.dx * (modes.T @ modes)
    np.testing.assert_allclose(gram, np.eye(SKETCH_WIDTH), atol=1e-12)
    studies = _reproduce_studies()
    for tol in studies.TOLERANCES:
        rule = ModeRule.tolerance(float(tol))
        assert rule.select(sigma) == rule.select(dense), tol
    for count in studies.MODE_SWEEP_SPOD.split(","):
        # the count truncate_to_basis keeps: the fixed count, capped at the rank
        rule = ModeRule.fixed(int(count))
        kept = min(rule.select(sigma), numerical_rank(sigma))
        assert kept == min(rule.select(dense), rank), count
    # the reduced cost at the refresh control, on the sketched and the dense basis
    assert model.refine_basis(u).modes == min(cfg.mode_rule().select(dense), rank)
    J = model.evaluate(u)[0].total
    monkeypatch.setattr(models, "weighted_svd", dense_weighted_svd)
    reference = build_model(cfg)
    assert reference.refine_basis(u).modes == model.basis.r
    assert J == pytest.approx(reference.evaluate(u)[0].total, rel=1e-10)


def orthogonal_factors(rng, n, n_t):
    U = np.linalg.qr(rng.standard_normal((n, n_t)))[0]
    V = np.linalg.qr(rng.standard_normal((n_t, n_t)))[0]
    return U, V


def low_rank(rng, spectrum):
    """A 600 x 520 matrix with the given singular values."""
    U, V = orthogonal_factors(rng, 600, 520)
    return (U * spectrum) @ V.T


def invariant_stack():
    """The (n, 2 xi + 2) invariant-basis stack of spod-eig-desk."""
    desk = DESK_SPOD.grid()
    sh = build_fourier_shapes(desk, DESK_SPOD.xi)
    return np.column_stack([gaussian_initial_condition(desk), sh.shapes])


# (snapshots, number of range bases P the sketch forms before the dense call)
FALLBACK_CASES = {
    # the sketch's 65th singular value is far above zero: dropped before P
    "full-rank": (lambda rng: rng.standard_normal((600, 520)), 0),
    "rank-80": (lambda rng: low_rank(rng, np.r_[np.logspace(0, -6, 80), np.zeros(440)]), 0),
    # rank 100 with 60 values at 1e-9, and a tail at 1e-10: both pass the
    # rank test but fail the explicit residual, which is formed in a weighted
    # copy, not in Q
    "residual": (
        lambda rng: low_rank(rng, np.r_[np.logspace(0, -3, 40), np.full(60, 1e-9), np.zeros(420)]),
        1,
    ),
    "tail": (lambda rng: low_rank(rng, np.r_[np.ones(40), np.full(480, 1e-10)]), 1),
    # too narrow to sketch
    "invariant-stack": (lambda rng: invariant_stack(), 0),
}


@pytest.mark.parametrize("case", list(FALLBACK_CASES))
def test_uncertified_sketch_falls_back_to_dense_svd_bitwise(case, rng, monkeypatch):
    make, qr_calls = FALLBACK_CASES[case]
    Q = make(rng)
    g = DESK_SPOD.grid() if case == "invariant-stack" else coarse_grid(n=600, n_t=520)
    held = Q.copy()
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: calls.append(a.shape) or qr(a, *args))
    modes, sigma = weighted_svd(Q, g)
    assert calls == [(g.n, SKETCH_WIDTH)] * qr_calls
    ref_modes, ref_sigma = dense_weighted_svd(Q, g)
    assert np.array_equal(modes, ref_modes) and np.array_equal(sigma, ref_sigma)
    assert np.array_equal(Q, held)


def test_eigenfunction_basis_runs_the_dense_svd():
    desk = DESK_SPOD.grid()
    sh = build_fourier_shapes(desk, DESK_SPOD.xi)
    stack = invariant_stack()
    basis = eigenfunction_stationary_basis(desk, sh, stack[:, 0])
    assert np.array_equal(basis.modes, dense_weighted_svd(stack, desk)[0][:, : sh.m + 1])


def test_certified_sketch_is_repeatable_and_leaves_global_rng_alone():
    model = build_model(DESK_SPOD)
    grid = model.problem.grid
    Qs = comoving_snapshots(model, refresh_control(model, 1))
    np.random.seed(7)
    before = np.random.get_state()
    first = weighted_svd(Qs, grid)
    second = weighted_svd(Qs, grid)
    after = np.random.get_state()
    assert len(first[1]) == SKETCH_WIDTH
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def test_singular_values_is_the_dense_spectrum():
    model = build_model(DESK_SPOD)
    grid = model.problem.grid
    Qs = comoving_snapshots(model, refresh_control(model, 1))
    sigma = singular_values(Qs, grid)
    dense = dense_weighted_svd(Qs, grid)[1]
    assert len(sigma) == min(Qs.shape)
    np.testing.assert_allclose(sigma, dense, rtol=0, atol=1e-14 * dense[0])
