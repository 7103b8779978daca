"""Trap geometry, time-dependent potential, and initial states."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from rgpe import _tables
from rgpe.model import (Trap, TrapOnGrid, gaussian_state, nonlinearity,
                        vortex_state)
from rgpe.oracle import gradient_deviation, potential_direct, rotation_matrix
from rgpe.spectral import Grid

TRAP = Trap((0.8, 1.2), 0.5)
GRID = Grid(2, (10.0, 10.0), (64, 64))
PTS = np.stack(np.meshgrid(*GRID.axes, indexing="ij"), axis=-1)


def test_nonlinearity_is_cubic():
    dens = np.array([0.0, 0.5, 2.0])
    np.testing.assert_array_equal(nonlinearity(dens, 10.0), 10.0 * dens)
    np.testing.assert_array_equal(nonlinearity(dens, 0.0), np.zeros(3))


def test_trap_validation():
    with pytest.raises(ValueError):
        Trap((0.8,), 0.5)                 # 1-D trap not meaningful here
    with pytest.raises(ValueError):
        Trap((0.8, -1.2), 0.5)
    with pytest.raises(ValueError):
        Trap((0.8, float("inf")), 0.5)
    with pytest.raises(ValueError):
        Trap((0.8, float("nan")), 0.5)
    with pytest.raises(ValueError):
        Trap((1e200, 1.2), 0.5)           # the square overflows
    with pytest.raises(ValueError):
        Trap((0.8, 1.2), float("inf"))


def test_rotation_matrix_quarter_turn():
    # rotation_rate * t = pi/2
    R = rotation_matrix(TRAP, np.pi)
    np.testing.assert_allclose(R, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_rotation_matrix_is_special_orthogonal():
    for t in (0.0, 0.7, 3.1):
        R = rotation_matrix(TRAP, t)
        np.testing.assert_allclose(R @ R.T, np.eye(2), atol=1e-14)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)


def test_rotation_matrix_satisfies_its_ode():
    # R'(t) = omega' J R(t) with J = [[0,1],[-1,0]] by central differences
    t, eps = 0.9, 1e-6
    dR = (rotation_matrix(TRAP, t + eps) - rotation_matrix(TRAP, t - eps)) \
        / (2 * eps)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(dR, 0.5 * J @ rotation_matrix(TRAP, t),
                               atol=1e-9)


def test_rotation_matrix_3d_leaves_axis_alone():
    trap = Trap((0.8, 1.2, 1.0), 0.5)
    R = rotation_matrix(trap, 1.3)
    assert R.shape == (3, 3)
    np.testing.assert_allclose(R[2], [0.0, 0.0, 1.0], atol=0)
    np.testing.assert_allclose(R[:2, :2], rotation_matrix(TRAP, 1.3))


def test_potential_matches_rotated_evaluation(rng):
    # W(xi, t) must equal V at the rotated point, V(y) = sum gamma_i^2 y_i^2/2
    for trap in (TRAP, Trap((0.8, 1.2, 1.0), 0.5)):
        pts = rng.uniform(-4, 4, size=(40, trap.dim))
        for t in (0.0, 0.77, 2.5):
            R = rotation_matrix(trap, t)
            gammas = np.asarray(trap.gammas)
            direct = 0.5 * ((pts @ R.T) ** 2 * gammas ** 2).sum(axis=1)
            np.testing.assert_allclose(potential_direct(trap, pts, t),
                                       direct, atol=1e-12)
            c = trap.quad_coefficients(t)
            if trap.dim == 2:
                quad_form = (c[0] * pts[:, 0] ** 2 + c[1] * pts[:, 1] ** 2
                             + c[2] * pts[:, 0] * pts[:, 1])
            else:
                quad_form = (c[0] * pts[:, 0] ** 2 + c[1] * pts[:, 1] ** 2
                             + c[2] * pts[:, 0] * pts[:, 1]
                             + c[3] * pts[:, 2] ** 2)
            np.testing.assert_allclose(quad_form, direct, atol=1e-12)


def test_gradient_coefficients_against_finite_differences():
    assert gradient_deviation(Trap((0.8, 1.2, 1.1), 0.5), 0.0, 4.0, 5) < 1e-6


def test_axial_gradient_example():
    # d/dxi3 of W is gamma3^2 * xi3, independent of rotation
    trap = Trap((0.8, 1.2, 1.0), 0.5)
    a = trap.gradient_coefficients(1.7)
    assert a[3] * 2.0 == pytest.approx(2.0, abs=1e-14)


def _potential(tg, weights, times, shift=0.0):
    """The whole stage potential: its plane plus, in 3-D, its axial line."""
    plane, line = tg.combination(weights, tg.coefficients(times), shift)
    return plane if line is None else plane + line


def test_trap_on_grid_values_match_direct():
    tg = TrapOnGrid(TRAP, GRID)
    for t in (0.0, 1.3):
        np.testing.assert_allclose(_potential(tg, (1.0,), (t,)),
                                   potential_direct(TRAP, PTS, t),
                                   atol=1e-12)


def test_combination_is_weighted_sum(rng):
    for trap, grid in ((TRAP, GRID),
                       (Trap((0.8, 1.2, 1.1), 0.5),
                        Grid(3, (6.0, 5.0, 4.0), (12, 10, 8)))):
        tg = TrapOnGrid(trap, grid)
        pts = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)
        weights = rng.standard_normal(3)
        times = [0.1, 0.9, 2.2]
        expected = sum(w * potential_direct(trap, pts, t)
                       for w, t in zip(weights, times))
        np.testing.assert_allclose(_potential(tg, weights, times), expected,
                                   atol=1e-12)


def test_combination_allocates_only_its_plane():
    grid = Grid(3, (8.0, 8.0, 8.0), (48, 48, 48))
    tg = TrapOnGrid(Trap((0.8, 1.2, 1.0), 0.5), grid)
    weights = (0.3, -0.2, 0.9)
    coefs = tg.coefficients((0.1, 0.5, 0.9))
    tg.combination(weights, coefs, 0.01)   # warm up
    tracemalloc.start()
    try:
        plane, line = tg.combination(weights, coefs, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (plane.shape, line.shape) == ((48, 48, 1), (1, 1, 48))
    assert peak < 0.25 * plane.nbytes * grid.sizes[2]  # of one full array


def test_combination_is_one_plane_in_two_dimensions():
    tg = TrapOnGrid(TRAP, GRID)
    plane, line = tg.combination((1.0,), tg.coefficients((0.4,)))
    assert plane.shape == GRID.sizes and line is None


@pytest.mark.parametrize("trap,grid", [
    (TRAP, GRID),
    (Trap((0.8, 1.2, 1.0), 0.5), Grid(3, (8.0, 8.0, 8.0), (16, 16, 16)))])
def test_combination_shift_adds_in_plane_square(rng, trap, grid):
    tg = TrapOnGrid(trap, grid)
    weights = rng.standard_normal(3)
    times = [0.1, 0.9, 2.2]
    x = grid.coordinates()
    expected = _potential(tg, weights, times) + 0.37 * (x[0] ** 2
                                                        + x[1] ** 2)
    got = _potential(tg, weights, times, shift=0.37)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_gradient_difference_sq_properties():
    for trap, grid in ((TRAP, GRID),
                       (Trap((0.8, 1.2, 1.1), 0.5),
                        Grid(3, (6.0, 6.0, 6.0), (16, 16, 16)))):
        tg = TrapOnGrid(trap, grid)
        # exact zero when the two times coincide
        assert np.all(tg.gradient_difference_sq(1.3, 1.3) == 0.0)
        # pointwise equals |grad W(t1) - grad W(t0)|^2
        x = grid.coordinates()

        def grad(t):
            a = trap.gradient_coefficients(t)
            g = (a[0] * x[0] + a[2] * x[1], a[2] * x[0] + a[1] * x[1])
            return g + tuple(c * xi for c, xi in zip(a[3:], x[2:]))

        diffs = [a - b for a, b in zip(grad(1.1), grad(0.4))]
        field = tg.gradient_difference_sq(1.1, 0.4)
        assert field.shape == grid.sizes
        np.testing.assert_allclose(field, sum(d ** 2 for d in diffs),
                                   atol=1e-12)
        if grid.dim == 3:
            # the x3 part of the trap does not rotate: no xi_3 part
            assert np.all(diffs[2] == 0.0)
            assert np.all(field == field[:, :, :1])


def test_gradient_difference_sq_isotropic_is_zero():
    tg = TrapOnGrid(Trap((0.9, 0.9), 0.5), GRID)
    assert np.all(tg.gradient_difference_sq(2.0, 0.5) == 0.0)


def _outer_node_difference(tg, t0, h):
    """The field the bbk correction scales: the gradient difference
    between the outer Gauss nodes of the step [t0, t0 + h]."""
    c = _tables.GAUSS3_NODES
    return tg.gradient_difference_sq(t0 + c[2] * h, t0 + c[0] * h)


def test_modified_potential_shrinks_quadratically():
    tg = TrapOnGrid(TRAP, GRID)
    t0 = 0.3
    w1 = _outer_node_difference(tg, t0, 0.2)
    w2 = _outer_node_difference(tg, t0, 0.1)
    assert np.all(w1 >= 0.0)
    ratio = w1.max() / w2.max()
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_modified_potential_isotropic_is_zero():
    tg = TrapOnGrid(Trap((1.1, 1.1), 0.7), GRID)
    assert np.all(_outer_node_difference(tg, 0.0, 0.25) == 0.0)


def test_gaussian_state_norm_via_quadrature():
    # discrete L2 norm against 1-D quadrature of the continuum profile
    state = gaussian_state(GRID, (1.1, 0.9))
    expected = 1.0
    for w in (1.1, 0.9):
        expected *= quad(lambda x, w=w: np.exp(-w * w * x * x),
                         -np.inf, np.inf)[0]
    assert GRID.l2_norm(state) == pytest.approx(np.sqrt(expected), abs=1e-9)


def test_gaussian_state_3d_norm():
    grid = Grid(3, (10.0, 10.0, 10.0), (48, 48, 48))
    state = gaussian_state(grid, (1.1, 0.9, 1.0))
    expected = np.sqrt(np.pi ** 1.5 / (1.1 * 0.9 * 1.0))
    assert grid.l2_norm(state) == pytest.approx(expected, abs=1e-9)


def test_vortex_state_normalized_with_central_zero():
    state = vortex_state(GRID)
    assert GRID.l2_norm(state) == pytest.approx(1.0, abs=1e-10)
    # the density vanishes at the origin and carries unit winding
    dens = np.abs(state) ** 2
    assert dens.min() == dens[31:33, 31:33].min()
    with pytest.raises(ValueError):
        vortex_state(Grid(3, (5.0,) * 3, (8,) * 3))
