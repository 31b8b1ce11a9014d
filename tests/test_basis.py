import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romctl import build_fourier_shapes
from romctl.basis import (
    eigenfunction_stationary_basis,
    mode_count_by_tolerance,
    save_spectrum_csv,
    weighted_svd,
)
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


def test_mode_count_rank_one():
    assert mode_count_by_tolerance(np.array([3.0, 0.0, 0.0]), 0.5) == 1


def test_mode_count_paper_style_spectrum():
    sigma = 10.0 ** -np.arange(12.0)
    assert mode_count_by_tolerance(sigma, 1e-2) == 2
    assert mode_count_by_tolerance(sigma, 1e-7) == 7


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
    assert mode_count_by_tolerance(sigma, lo) >= mode_count_by_tolerance(sigma, hi)


def test_mode_count_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        mode_count_by_tolerance(np.zeros(3), 1e-3)
    with pytest.raises(ValueError):
        mode_count_by_tolerance(np.array([1.0]), 1.5)


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


def test_spectrum_csv_round_trip(tmp_path):
    sigma = np.array([3.0, 1.0, 1e-8])
    save_spectrum_csv(tmp_path / "s.csv", sigma)
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "sigma"
    np.testing.assert_array_equal(np.loadtxt(tmp_path / "s.csv", skiprows=1), sigma)
