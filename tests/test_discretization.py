import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romctl.discretization import SpaceTimeGrid, central_derivative, upwind_transport
from romctl.fom import solve_adjoint

from conftest import coarse_grid, inner_product, second_difference


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
        dict(l=100.0, n=10, T=1.0, n_t=1, v=1.0),  # one time node, no step
        dict(l=-1.0, n=10, T=1.0, n_t=10, v=1.0),
        dict(l=100.0, n=10, T=0.0, n_t=10, v=1.0),
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        SpaceTimeGrid(**kwargs)


def test_inner_product_constant_is_domain_length():
    g = SpaceTimeGrid(l=100.0, n=3201, T=1.0, n_t=2, v=0.55)
    ones = np.ones(g.n)
    assert inner_product(ones, ones, g) == pytest.approx(100.0, abs=1e-9)
    assert inner_product(np.zeros(g.n), ones, g) == 0.0


def test_inner_product_sine_matches_analytic_value():
    g = SpaceTimeGrid(l=100.0, n=400, T=1.0, n_t=2, v=0.55)
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
    g = SpaceTimeGrid(l=100.0, n=n, T=1.0, n_t=2, v=0.55)
    ones = np.ones(n)
    assert inner_product(ones, ones, g) == pytest.approx(100.0, rel=1e-12)


def upwind_matrix(grid, transpose=False):
    """The upwind operator (its transpose when asked) as the dense matrix the
    stencil applies: column j is the stencil applied to the j-th unit vector."""
    return upwind_transport(np.eye(grid.n), grid, transpose=transpose)


def test_upwind_constant_field_annihilated(grid):
    # every row of the operator and of its transpose sums to zero
    for transpose in (False, True):
        assert not np.any(upwind_transport(np.ones(grid.n), grid, transpose=transpose))


def test_upwind_impulse_stencil(grid):
    j = 7
    col = upwind_transport(np.eye(grid.n)[:, j], grid)
    expected = np.zeros(grid.n)
    expected[j] = -grid.v / grid.dx
    expected[(j + 1) % grid.n] = grid.v / grid.dx
    np.testing.assert_allclose(col, expected, atol=1e-12)


def test_upwind_negative_velocity_uses_forward_stencil():
    g = SpaceTimeGrid(l=10.0, n=20, T=1.0, n_t=10, v=-2.0)
    j = 5
    col = upwind_transport(np.eye(g.n)[:, j], g)
    expected = np.zeros(g.n)
    expected[j] = g.v / g.dx
    expected[(j - 1) % g.n] = -g.v / g.dx
    np.testing.assert_allclose(col, expected, atol=1e-12)


def test_upwind_zero_velocity_is_zero_matrix():
    g = SpaceTimeGrid(l=10.0, n=20, T=1.0, n_t=10, v=0.0)
    assert not np.any(upwind_matrix(g))
    assert not np.any(upwind_matrix(g, transpose=True))


@pytest.mark.parametrize("v", [0.55, -0.55, 0.0])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("layout", ["field", "C stack", "F stack"])
def test_upwind_into_a_buffer_matches_the_allocating_call_bitwise(v, transpose, layout, rng):
    # the FOM steps write the stencil into the next state column, and POD-G
    # projects it on an (n, k) stack of modes: both must round as the
    # allocating call and as the rolled difference it replaced
    g = SpaceTimeGrid(l=100.0, n=101, T=60.0, n_t=83, v=v)
    y = rng.standard_normal(g.n if layout == "field" else (g.n, 3))
    if layout == "F stack":
        y = np.asfortranarray(y)
    y[4] = -0.0  # y + 0 keeps the sign of zero only if the zeros are +0
    made = upwind_transport(y, g, g.dt, transpose=transpose)
    out = np.full_like(y, np.nan)
    assert upwind_transport(y, g, g.dt, transpose=transpose, out=out) is out
    assert out.tobytes() == made.tobytes()
    if v == 0.0:
        rolled = np.zeros_like(y)
    else:
        shift = 1 if (v > 0) != transpose else -1
        rolled = (g.dt * abs(v) / g.dx) * (np.roll(y, shift, axis=0) - y)
    assert made.tobytes() == rolled.tobytes()
    assert (y + out).tobytes() == (y + rolled).tobytes()


def test_adjoint_operator_is_transpose(grid, rng):
    for v in (grid.v, -grid.v):
        g = dataclasses.replace(grid, v=v)
        At = upwind_matrix(g).T
        np.testing.assert_array_equal(upwind_matrix(g, transpose=True), At)
        # one backward step of the adjoint sweep applies I + dt A^T, the
        # transpose of the forward upwind step
        y = rng.standard_normal(g.n)
        state = np.zeros((g.n, g.n_t))
        state[:, -1] = y
        lam = solve_adjoint(g, state, np.zeros_like(state))
        np.testing.assert_allclose(lam[:, -2], g.dt * y, rtol=0, atol=0)
        np.testing.assert_allclose(lam[:, -3], g.dt * y + g.dt**2 * (At @ y),
                                   rtol=1e-13, atol=1e-15)


def test_central_derivative_constant(grid):
    assert np.max(np.abs(central_derivative(np.ones(grid.n), grid))) == 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_central_derivative_convergence(order):
    # halving dx should reduce the max error roughly fourfold
    errs = []
    for n in (200, 400):
        g = SpaceTimeGrid(l=100.0, n=n, T=1.0, n_t=2, v=0.55)
        s = np.sin(2.0 * np.pi * g.x / g.l)
        k = 2.0 * np.pi / g.l
        exact = k * np.cos(k * g.x) if order == 1 else -(k**2) * s
        approx = central_derivative(s, g) if order == 1 else second_difference(s, g)
        errs.append(np.max(np.abs(approx - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_central_derivative_skew_adjoint(seed):
    g = coarse_grid(n=64, n_t=4)
    r = np.random.default_rng(seed)
    a, b = r.standard_normal(g.n), r.standard_normal(g.n)
    lhs = inner_product(central_derivative(a, g), b, g)
    rhs = -inner_product(a, central_derivative(b, g), g)
    assert lhs == pytest.approx(rhs, abs=1e-10)
