import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romctl import SpaceTimeGrid
from romctl.control import adjoint_control, apply_control, build_fourier_shapes
from conftest import coarse_grid, inner_product, svd_norm_B


def test_fourier_shape_count(grid):
    assert build_fourier_shapes(grid, 20).m == 41
    assert build_fourier_shapes(grid, 0).m == 1


def test_fourier_shape_values_at_origin(grid):
    sh = build_fourier_shapes(grid, 2)
    assert sh.shapes[0, 1] == 0.0        # sine vanishes at x = 0
    assert sh.shapes[0, 2] == -1.0       # minus cosine at x = 0


def test_apply_control_basics(grid, shapes):
    assert np.max(np.abs(apply_control(shapes, np.zeros(shapes.m)))) == 0.0
    np.testing.assert_allclose(apply_control(shapes, np.eye(shapes.m)[:, 0]), np.ones(grid.n))
    mix = apply_control(shapes, np.array([0.0, 1.0, 1.0]))
    expected = np.sin(2 * np.pi * grid.x / grid.l) - np.cos(2 * np.pi * grid.x / grid.l)
    np.testing.assert_allclose(mix, expected, atol=1e-12)


def test_apply_control_dimension_error(shapes):
    with pytest.raises(ValueError):
        apply_control(shapes, np.zeros(shapes.m + 1))


def test_adjoint_control_on_constant_shape(grid):
    sh = build_fourier_shapes(grid, 3)
    comps = adjoint_control(sh, sh.shapes[:, 0], grid)
    assert comps[0] == pytest.approx(100.0, abs=1e-9)
    np.testing.assert_allclose(comps[1:], 0.0, atol=1e-8)
    assert np.max(np.abs(adjoint_control(sh, np.zeros(grid.n), grid))) == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_adjoint_pairing(seed):
    g = coarse_grid(n=80, n_t=4)
    sh = build_fourier_shapes(g, 2)
    r = np.random.default_rng(seed)
    u = r.standard_normal(sh.m)
    f = r.standard_normal(g.n)
    lhs = inner_product(apply_control(sh, u), f, g)
    rhs = float(u @ adjoint_control(sh, f, g))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_fourier_gram_is_diagonal(grid):
    sh = build_fourier_shapes(grid, 4)
    gram = grid.dx * (sh.shapes.T @ sh.shapes)
    expected = np.diag([grid.l] + [grid.l / 2.0] * (sh.m - 1))
    np.testing.assert_allclose(gram, expected, atol=1e-8)


def test_operator_norm_fourier_xi1(grid):
    # shapes are mutually orthogonal with norms sqrt(l), sqrt(l/2), sqrt(l/2)
    sh = build_fourier_shapes(grid, 1)
    assert svd_norm_B(sh, grid) == pytest.approx(10.0, abs=1e-6)


@pytest.mark.parametrize("n, xi", [(41, 20), (401, 5), (1601, 20), (3201, 20)])
def test_fourier_operator_norm_squared_is_l(n, xi):
    # the closed form the smallness certificate uses, up to the largest xi
    # with 2 xi < n
    g = SpaceTimeGrid(l=100.0, n=n, T=1.0, n_t=2, v=0.55)
    assert svd_norm_B(build_fourier_shapes(g, xi), g) ** 2 == pytest.approx(g.l, rel=1e-15)


@pytest.mark.parametrize("n, xi", [(41, 21), (40, 20), (401, 401), (401, -1)])
def test_fourier_shapes_reject_aliasing_xi(n, xi):
    # from 2 xi = n on the top pair vanishes or aliases onto lower shapes
    g = SpaceTimeGrid(l=100.0, n=n, T=1.0, n_t=2, v=0.55)
    with pytest.raises(ValueError, match="2 xi < n"):
        build_fourier_shapes(g, xi)
