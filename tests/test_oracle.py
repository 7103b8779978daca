"""Small-scale reference machinery: dense operators, truncated exponents,
order fits, and the classical two-frame consistency check."""

import numpy as np
import pytest
from scipy.linalg import expm

from rgpe.model import Trap
from rgpe.oracle import (DENSE_LIMIT, GAUSS3_NODES, alpha_triple, build_dense,
                         classical_transform_check, dense_kinetic,
                         dense_reference, gradient_deviation, grid_points,
                         magnus_omega6, magnus_omega6_modified,
                         midpoint_reference, observed_order, omega6_exponent,
                         potential_direct)
from rgpe.spectral import Grid

TRAP = Trap((0.8, 1.2), 0.5)
SMALL = Grid(2, (3.5, 3.5), (8, 8))


def _hermitian(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (M + M.conj().T)


def test_gauss3_nodes_symmetric():
    c1, c2, c3 = GAUSS3_NODES
    assert c2 == 0.5 and c1 + c3 == pytest.approx(1.0, abs=1e-16)


def test_potential_direct_single_point_and_batch():
    val = potential_direct(TRAP, np.array([1.0, 2.0]), 0.0)
    assert float(val) == pytest.approx(0.5 * (0.8 ** 2 + 1.2 ** 2 * 4.0))
    batch = potential_direct(TRAP, np.ones((5, 2)), 0.3)
    assert batch.shape == (5,)
    assert np.ptp(batch) == 0.0


def test_dense_kinetic_diagonalizes_plane_waves():
    A = dense_kinetic(SMALL)
    x1, x2 = np.meshgrid(*SMALL.axes, indexing="ij")
    for n1, n2 in ((1, 0), (2, 3), (-3, 1)):
        k1 = np.pi / 3.5 * n1
        k2 = np.pi / 3.5 * n2
        wave = np.exp(1j * (k1 * x1 + k2 * x2)).reshape(-1)
        np.testing.assert_allclose(A @ wave,
                                   0.5 * (k1 ** 2 + k2 ** 2) * wave,
                                   atol=1e-10)


def test_dense_kinetic_enforces_size_limit():
    with pytest.raises(ValueError, match="too large"):
        dense_kinetic(Grid(2, (10.0, 10.0), (128, 64)))


def test_build_dense_is_kinetic_plus_diagonal_potential():
    t = 0.7
    H = build_dense(SMALL, TRAP, t)
    A = dense_kinetic(SMALL)
    np.testing.assert_allclose(H - A,
                               np.diag(potential_direct(TRAP,
                                                        grid_points(SMALL),
                                                        t)), atol=1e-13)
    np.testing.assert_allclose(H, H.conj().T, atol=1e-12)


def test_exponent_drops_commutators_for_diagonal_family(rng):
    # diagonal (hence commuting) operators: every bracket term vanishes and
    # both exponent variants collapse to a1 + a3/12
    d = 12
    A = np.diag(rng.standard_normal(d)).astype(complex)
    Bs = [np.diag(rng.standard_normal(d)).astype(complex) for _ in range(3)]
    a1, a2, a3 = alpha_triple(A, *Bs, 0.1)
    np.testing.assert_array_equal(magnus_omega6((a1, a2, a3)), a1 + a3 / 12.0)
    np.testing.assert_array_equal(magnus_omega6_modified((a1, a2, a3)),
                                  a1 + a3 / 12.0)


def test_alpha_triple_of_constant_family_is_first_order_only(rng):
    B = _hermitian(rng, 8)
    a1, a2, a3 = alpha_triple(_hermitian(rng, 8), B, B, B, 0.3)
    assert np.all(a2 == 0.0) and np.all(a3 == 0.0)


def test_alpha_triple_rejects_shape_mismatch(rng):
    with pytest.raises(ValueError, match="dimensions"):
        alpha_triple(np.eye(4), np.eye(4), np.eye(3), np.eye(4), 0.1)


def test_modified_exponent_differs_by_one_commutator(rng):
    alphas = tuple((-1j) * _hermitian(rng, 10) for _ in range(3))
    gap = magnus_omega6(alphas) - magnus_omega6_modified(alphas)
    a2, a3 = alphas[1], alphas[2]
    np.testing.assert_allclose(gap, (a2 @ a3 - a3 @ a2) / 240.0, atol=1e-14)


def test_exponent_generates_unitary_propagator(rng):
    A = _hermitian(rng, 10)
    B0, B1 = _hermitian(rng, 10), _hermitian(rng, 10)
    U = expm(omega6_exponent(A, lambda t: B0 + t * B1, 0.2, 0.05))
    np.testing.assert_allclose(U.conj().T @ U, np.eye(10), atol=1e-12)


def test_midpoint_reference_autonomous_case(rng):
    A = _hermitian(rng, 8)
    B = _hermitian(rng, 8)
    u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    u0 /= np.linalg.norm(u0)
    u = midpoint_reference(A, lambda t: B, u0, 0.0, 1.3, n_steps=50)
    # constant Hamiltonian: the micro-step product telescopes exactly
    np.testing.assert_allclose(u, expm(-1.3j * (A + B)) @ u0, atol=1e-12)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_midpoint_reference_preserves_norm(rng):
    A = _hermitian(rng, 8)
    B0, B1 = _hermitian(rng, 8), _hermitian(rng, 8)
    u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    u = midpoint_reference(A, lambda t: B0 + np.sin(t) * B1, u0, 0.0, 2.0,
                           n_steps=40)
    assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(u0), abs=1e-12)


def test_dense_reference_micro_step_consistency():
    from rgpe.model import gaussian_state
    vals = gaussian_state(SMALL, (1.1, 0.9))
    vals /= SMALL.l2_norm(vals)
    a = dense_reference(SMALL, TRAP, vals, 0.0, 0.5, n_micro=32)
    b = dense_reference(SMALL, TRAP, vals, 0.0, 0.5, n_micro=64)
    assert SMALL.l2_norm(a - b) < 1e-9
    assert SMALL.l2_norm(a) == pytest.approx(1.0, abs=1e-12)


def test_dense_reference_is_linear_only():
    from rgpe.model import gaussian_state
    vals = gaussian_state(SMALL, (1.1, 0.9))
    with pytest.raises(ValueError, match="linear"):
        dense_reference(SMALL, TRAP, vals, 0.0, 0.1, theta=1.0)


def test_observed_order_on_clean_and_noisy_data(rng):
    hs = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    assert observed_order(hs, 3.0 * hs ** 2) == pytest.approx(2.0, abs=1e-12)
    noisy = 0.7 * hs ** 6 * (1.0 + 0.01 * rng.standard_normal(5))
    assert observed_order(hs, noisy) == pytest.approx(6.0, abs=0.1)


def test_observed_order_window_and_floor():
    hs = [0.4, 0.2, 0.1, 0.05, 0.025]
    errors = [2e-3, 1e-4, 1e-5, 1e-6, 1e-13]  # ends outside the window
    slope = observed_order(hs, errors, window=(1e-9, 1e-3))
    clean = observed_order(hs[1:-1], errors[1:-1])
    assert slope == pytest.approx(clean, abs=1e-12)
    with pytest.raises(ValueError, match="at least 3"):
        observed_order([0.2, 0.1], [1e-4, 1e-5])
    with pytest.raises(ValueError, match="at least 3"):
        observed_order(hs, [np.inf, np.inf, np.inf, 1e-5, 1e-6])


class _SkewedTrap(Trap):
    def gradient_coefficients(self, t):
        a11, a22, a12 = super().gradient_coefficients(t)
        return a11, a22, a12 + 1e-3


def test_gradient_deviation_sees_a_wrong_coefficient():
    assert gradient_deviation(TRAP, 0.0, 4.0, 7) < 1e-6
    assert gradient_deviation(_SkewedTrap((0.8, 1.2), 0.5), 0.0, 4.0, 7) > 1e-6


def test_classical_check_trivial_without_rotation():
    dev, _ = classical_transform_check(Trap((0.8, 1.2), 0.0), t_final=1.0,
                                       step=1e-3)
    assert dev < 1e-15


def test_classical_check_short_run():
    dev, energy = classical_transform_check(TRAP, t_final=1.0, step=2e-4)
    assert dev < 1e-8
    assert energy < 1e-10


def test_classical_check_requires_2d():
    with pytest.raises(ValueError, match="two-dimensional"):
        classical_transform_check(Trap((0.8, 1.2, 1.0), 0.5))


def test_dense_limit_value():
    assert DENSE_LIMIT == 4096
