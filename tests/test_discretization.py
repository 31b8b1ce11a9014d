import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romctl.discretization import (
    SpaceTimeGrid,
    central_derivative,
    upwind_operator,
)

from romctl.fom import solve_adjoint

from conftest import coarse_grid, inner_product


def test_grid_derived_quantities():
    g = SpaceTimeGrid(l=100.0, n=3201, T=136.2642, n_t=2400, v=0.55)
    assert g.dx * g.n == pytest.approx(g.l, rel=1e-12)
    assert g.dt * g.n_t == pytest.approx(g.T, rel=1e-12)
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(g.l - g.dx, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l=100.0, n=1, T=1.0, n_t=10, v=1.0),
        dict(l=100.0, n=10, T=1.0, n_t=0, v=1.0),
        dict(l=-1.0, n=10, T=1.0, n_t=10, v=1.0),
        dict(l=100.0, n=10, T=0.0, n_t=10, v=1.0),
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        SpaceTimeGrid(**kwargs)


def test_inner_product_constant_is_domain_length():
    g = SpaceTimeGrid(l=100.0, n=3201, T=1.0, n_t=1, v=0.55)
    ones = np.ones(g.n)
    assert inner_product(ones, ones, g) == pytest.approx(100.0, abs=1e-9)
    assert inner_product(np.zeros(g.n), ones, g) == 0.0


def test_inner_product_sine_matches_analytic_value():
    g = SpaceTimeGrid(l=100.0, n=400, T=1.0, n_t=1, v=0.55)
    s = np.sin(2.0 * np.pi * g.x / g.l)
    # analytic integral of sin^2 over one period is l/2; the rectangle rule is
    # exact for this integrand on a uniform periodic grid
    assert inner_product(s, s, g) == pytest.approx(50.0, abs=1e-6)


def test_inner_product_dimension_mismatch():
    g = coarse_grid()
    with pytest.raises(ValueError):
        inner_product(np.ones(g.n + 1), np.ones(g.n), g)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=700))
def test_quadrature_exactness_any_n(n):
    g = SpaceTimeGrid(l=100.0, n=n, T=1.0, n_t=1, v=0.55)
    ones = np.ones(n)
    assert inner_product(ones, ones, g) == pytest.approx(100.0, rel=1e-12)


def test_upwind_constant_field_annihilated(grid):
    A = upwind_operator(grid)
    assert np.max(np.abs(A @ np.ones(grid.n))) < 1e-12


def test_upwind_row_sums_vanish(grid):
    A = upwind_operator(grid)
    assert np.max(np.abs(np.asarray(A.sum(axis=1)).ravel())) < 1e-12


def test_upwind_impulse_stencil(grid):
    A = upwind_operator(grid)
    j = 7
    col = A @ np.eye(grid.n)[:, j]
    expected = np.zeros(grid.n)
    expected[j] = -grid.v / grid.dx
    expected[(j + 1) % grid.n] = grid.v / grid.dx
    np.testing.assert_allclose(col, expected, atol=1e-12)


def test_upwind_negative_velocity_uses_forward_stencil():
    g = SpaceTimeGrid(l=10.0, n=20, T=1.0, n_t=10, v=-2.0)
    A = upwind_operator(g)
    j = 5
    col = A @ np.eye(g.n)[:, j]
    expected = np.zeros(g.n)
    expected[j] = g.v / g.dx
    expected[(j - 1) % g.n] = -g.v / g.dx
    np.testing.assert_allclose(col, expected, atol=1e-12)


def test_upwind_zero_velocity_is_zero_matrix():
    g = SpaceTimeGrid(l=10.0, n=20, T=1.0, n_t=10, v=0.0)
    assert upwind_operator(g).nnz == 0


def test_adjoint_operator_is_transpose(grid, rng):
    # one backward step of the adjoint sweep applies I + dt A^T, the
    # transpose of the forward upwind step
    y = rng.standard_normal(grid.n)
    state = np.zeros((grid.n, grid.n_t))
    state[:, -1] = y
    lam = solve_adjoint(grid, state, np.zeros_like(state))
    At_y = upwind_operator(grid).T @ y
    np.testing.assert_allclose(lam[:, -2], grid.dt * y, rtol=0, atol=0)
    np.testing.assert_allclose(lam[:, -3], grid.dt * y + grid.dt**2 * At_y, rtol=1e-13, atol=1e-15)


def test_central_derivative_constant(grid):
    assert np.max(np.abs(central_derivative(np.ones(grid.n), grid, 1))) == 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_central_derivative_convergence(order):
    # halving dx should reduce the max error roughly fourfold
    errs = []
    for n in (200, 400):
        g = SpaceTimeGrid(l=100.0, n=n, T=1.0, n_t=1, v=0.55)
        s = np.sin(2.0 * np.pi * g.x / g.l)
        k = 2.0 * np.pi / g.l
        exact = k * np.cos(k * g.x) if order == 1 else -(k**2) * s
        errs.append(np.max(np.abs(central_derivative(s, g, order) - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_central_derivative_rejects_bad_order(grid):
    with pytest.raises(ValueError):
        central_derivative(np.ones(grid.n), grid, 3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_central_derivative_skew_adjoint(seed):
    g = coarse_grid(n=64, n_t=4)
    r = np.random.default_rng(seed)
    a, b = r.standard_normal(g.n), r.standard_normal(g.n)
    lhs = inner_product(central_derivative(a, g, 1), b, g)
    rhs = -inner_product(a, central_derivative(b, g, 1), g)
    assert lhs == pytest.approx(rhs, abs=1e-10)
