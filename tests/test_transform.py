import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romctl import SpaceTimeGrid, build_fourier_shapes
from romctl.basis import weighted_svd
from romctl.discretization import central_derivative
from romctl.experiments import gaussian_initial_condition
from romctl.fom import solve_state
from romctl.transform import (
    shift_columns,
    split_shift,
    transform_snapshots,
    uncontrolled_shift_path,
)

from conftest import coarse_grid, field_norm, inner_product, shift_field, smooth_signal


def shift_derivative_field(mode, z, grid):
    """d/dz of the shifted mode as the sPOD shift tables take it: minus the
    shifted central-difference slope."""
    return -shift_field(central_derivative(mode, grid), z, grid)


def test_shift_identity_cases(grid, y0):
    np.testing.assert_array_equal(shift_field(y0, 0.0, grid), y0)
    np.testing.assert_array_equal(shift_field(y0, grid.l, grid), y0)


def test_aligned_shift_is_exact_rotation(grid, y0):
    np.testing.assert_array_equal(shift_field(y0, 3 * grid.dx, grid), np.roll(y0, 3))


def test_shift_adjoint_inverts_aligned_shift(grid, y0):
    z = 11 * grid.dx
    np.testing.assert_array_equal(shift_field(shift_field(y0, z, grid), -z, grid), y0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), frac=st.booleans())
def test_shift_pairing(seed, frac):
    g = coarse_grid(n=64, n_t=4)
    r = np.random.default_rng(seed)
    a, b = r.standard_normal(g.n), r.standard_normal(g.n)
    z = (7 + (0.34 if frac else 0.0)) * g.dx
    lhs = inner_product(shift_field(a, z, g), b, g)
    rhs = inner_product(a, shift_field(b, -z, g), g)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_shift_isometry(grid, y0):
    shifted = shift_field(y0, 5 * grid.dx, grid)
    assert np.array_equal(np.sort(shifted), np.sort(y0))  # exact permutation
    # fractional shifts only contract resolved fields mildly
    smooth = np.sin(2 * np.pi * grid.x / grid.l)
    frac = 5.4321 * grid.dx
    n0 = field_norm(smooth, grid)
    n1 = field_norm(shift_field(smooth, frac, grid), grid)
    assert abs(n1 - n0) / n0 < 1e-3


def test_shift_group_property_on_aligned(grid, y0):
    z1, z2 = 4 * grid.dx, 9 * grid.dx
    via_two = shift_field(shift_field(y0, z1, grid), z2, grid)
    np.testing.assert_array_equal(via_two, shift_field(y0, z1 + z2, grid))


def test_shift_derivative_constant_mode(grid):
    assert np.max(np.abs(shift_derivative_field(np.ones(grid.n), 0.0, grid))) == 0.0


def test_shift_derivative_analytic():
    g = coarse_grid(n=400, n_t=4)
    k = 2 * np.pi / g.l
    mode = np.sin(k * g.x)
    got = shift_derivative_field(mode, 0.0, g)
    np.testing.assert_allclose(got, -k * np.cos(k * g.x), atol=k**2 * g.dx**2 * 10)


def test_shift_derivative_matches_fd_in_z():
    g = coarse_grid(n=500, n_t=4)
    smooth = np.exp(-(((g.x - 30.0) / 5.0) ** 2))
    z, h = 7.3, 1e-4
    fd = (shift_field(smooth, z + h, g) - shift_field(smooth, z - h, g)) / (2 * h)
    got = shift_derivative_field(smooth, z, g)
    assert np.max(np.abs(got - fd)) < 5e-3  # O(h^2) + O(dx^2) on a resolved profile


def awkward_path(grid, rng):
    """Random shifts up to twice l either way, with every third on a node,
    next to one (within the 1e-8-cell snap) or 1e-7 cells off one."""
    z = rng.uniform(-2.0 * grid.l, 2.0 * grid.l, grid.n_t)
    nodes = grid.dx * rng.integers(-2 * grid.n, 2 * grid.n, grid.n_t)
    z[0::6], z[1::6] = nodes[0::6], nodes[1::6] + 3e-9 * grid.dx
    z[2::6], z[3::6] = nodes[2::6] - 3e-9 * grid.dx, nodes[3::6] + 1e-7 * grid.dx
    z[4] = -1e-300  # (z mod l) rounds to l
    return z


@pytest.mark.filterwarnings("ignore:invalid value")  # inf % l, before the ValueError
def test_split_shift_snaps_nodes_and_rejects_non_finite_shifts(grid, rng):
    z = awkward_path(grid, rng)
    k, frac = split_shift(z, grid)
    assert k.dtype.kind == "i" and frac.dtype == np.float64
    assert np.all((0 <= k) & (k < grid.n)) and np.all((0.0 <= frac) & (frac < 1.0))
    off = (z / grid.dx - k - frac) % grid.n  # the cells left over: 0 up to the snap
    assert np.max(np.minimum(off, grid.n - off)) <= 1e-8
    assert np.sum(frac == 0.0) >= grid.n_t // 2  # the node cases all snap
    with pytest.raises(ValueError):
        split_shift(np.array([0.0, np.nan]), grid)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            split_shift(np.array([bad]), grid)


def test_shift_columns_matches_shift_field_loop(grid, rng):
    # bitwise, for a stack of columns and for one field on every column;
    # transform_snapshots is the stack case along the negated path
    z = awkward_path(grid, rng)
    Q = rng.standard_normal((grid.n, grid.n_t))
    loop = np.column_stack([shift_field(Q[:, j], z[j], grid) for j in range(grid.n_t)])
    assert np.array_equal(shift_columns(Q, z, grid), loop)
    back = np.column_stack([shift_field(Q[:, j], -z[j], grid) for j in range(grid.n_t)])
    assert np.array_equal(transform_snapshots(Q, z, grid), back)
    one = np.column_stack([shift_field(Q[:, 0], zj, grid) for zj in z])
    assert np.array_equal(shift_columns(Q[:, 0], z, grid), one)


def test_uncontrolled_shift_path(grid):
    path = uncontrolled_shift_path(grid)
    assert path[0] == 0.0
    assert np.all(np.diff(path) > 0)
    g = SpaceTimeGrid(l=100.0, n=10, T=0.0568 * 200, n_t=200, v=0.55)
    assert uncontrolled_shift_path(g)[100] == pytest.approx(3.1240, abs=1e-12)


def test_transform_identity_path(grid, shapes, y0, rng):
    u = smooth_signal(rng, shapes.m, grid.n_t, 0.1)
    Q = solve_state(grid, shapes, u, y0)
    np.testing.assert_array_equal(transform_snapshots(Q, np.zeros(grid.n_t), grid), Q)


def test_transform_undoes_exact_transport():
    g = coarse_grid(n=201, n_t=150, cfl=1.0)
    sh = build_fourier_shapes(g, 1)
    y0 = gaussian_initial_condition(g)
    Q = solve_state(g, sh, np.zeros((sh.m, g.n_t)), y0)
    W = transform_snapshots(Q, uncontrolled_shift_path(g), g)
    assert np.max(np.abs(W - y0[:, None])) < 1e-12


def test_rank_bound_for_invariant_shapes(rng):
    # co-moving controlled snapshots stay inside span{y0, shapes}
    g = coarse_grid(n=201, n_t=150, cfl=1.0)
    sh = build_fourier_shapes(g, 2)  # m = 5
    y0 = gaussian_initial_condition(g)
    u = smooth_signal(rng, sh.m, g.n_t, 0.3)
    Q = solve_state(g, sh, u, y0)
    W = transform_snapshots(Q, uncontrolled_shift_path(g), g)
    _, sigma = weighted_svd(W, g)
    rank = int(np.sum(sigma > 1e-10 * sigma[0]))
    assert rank <= sh.m + 1


def test_eigenfunction_basis_absorbs_controlled_snapshots(rng):
    # no basis updates needed: every co-moving snapshot projects onto the
    # invariant basis with negligible residual
    from romctl.basis import eigenfunction_stationary_basis

    g = coarse_grid(n=201, n_t=150, cfl=1.0)
    sh = build_fourier_shapes(g, 2)
    y0 = gaussian_initial_condition(g)
    basis = eigenfunction_stationary_basis(g, sh, y0)
    u = smooth_signal(rng, sh.m, g.n_t, 0.3)
    W = transform_snapshots(solve_state(g, sh, u, y0), uncontrolled_shift_path(g), g)
    P = g.dx * (basis.modes @ basis.modes.T)
    for j in range(0, g.n_t, 10):
        w = W[:, j]
        assert field_norm(w - P @ w, g) < 1e-10 * field_norm(w, g)


def test_transform_collapses_mode_requirements(rng):
    # the whole point: a traveling wave needs many modes in the lab frame but
    # very few in the co-moving frame
    from romctl.basis import ModeRule

    g = coarse_grid(n=401, n_t=300, cfl=1.0)
    sh = build_fourier_shapes(g, 1)
    y0 = gaussian_initial_condition(g)
    Q = solve_state(g, sh, np.zeros((sh.m, g.n_t)), y0)
    _, sigma_lab = weighted_svd(Q, g)
    _, sigma_com = weighted_svd(transform_snapshots(Q, uncontrolled_shift_path(g), g), g)
    rule = ModeRule.tolerance(1e-2)
    lab = rule.select(sigma_lab)
    com = rule.select(sigma_com)
    assert com == 1  # exact transport collapses to a single profile
    assert lab > 10 * com
