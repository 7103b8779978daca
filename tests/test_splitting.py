"""Splitting tables and the two exact subflows."""

import math

import numpy as np
import pytest
import scipy.fft

from rgpe.model import Trap, TrapOnGrid, gaussian_state
from rgpe.spectral import Grid, kinetic_flow
from rgpe.splitting import (SPLITTINGS, apply_splitting, potential_flow,
                            potential_phase)

GRID = Grid(2, (8.0, 8.0), (32, 32))


def _substeps(name, tau, b=1.0, theta=0.0):
    """The sub-steps on GRID of one stage (index 0) of kinetic weight b, as
    the stepper builds them."""
    return [(GRID.kinetic_phase(b * (a * tau)), beta * tau, 0, b * theta)
            for a, beta in zip(*SPLITTINGS[name])]


def _split(vals, name, tau, pot, theta=0.0):
    """apply_splitting on GRID with a unit kinetic weight."""
    return apply_splitting(vals, _substeps(name, tau, theta=theta),
                           [(pot, None)])


def _state(rng):
    vals = rng.standard_normal(GRID.sizes) + 1j * rng.standard_normal(GRID.sizes)
    return np.exp(-0.3 * sum(x * x for x in np.meshgrid(*GRID.axes,
                                                        indexing="ij"))) * vals


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_coefficients_are_consistent(name):
    alphas, betas = SPLITTINGS[name]
    assert len(alphas) == len(betas)
    # both sets of weights sum to one and the last potential weight is zero,
    # so consecutive applications merge their boundary kinetic sub-steps
    assert math.fsum(alphas) == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(betas) == pytest.approx(1.0, abs=1e-15)
    assert betas[-1] == 0.0


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_coefficients_are_palindromic(name):
    # time symmetry: alpha reads the same reversed, beta reversed and
    # shifted by the trailing zero
    alphas, betas = SPLITTINGS[name]
    assert alphas == tuple(reversed(alphas))
    assert betas[:-1] == tuple(reversed(betas[:-1]))


def test_pair_counts():
    assert {n: len(SPLITTINGS[n][0]) for n in SPLITTINGS} == \
        {"strang": 2, "rkn74": 7, "rkn116": 11}


def test_potential_flow_elementwise(rng):
    vals = _state(rng)
    pot = rng.standard_normal(GRID.sizes)
    out = potential_flow(vals.copy(), 0.37, pot, theta=2.0)
    dens = np.abs(vals) ** 2
    expected = np.exp(-1j * 0.37 * (pot + 2.0 * dens)) * vals
    np.testing.assert_allclose(out, expected, atol=1e-15)
    # modulus is an invariant of the flow
    np.testing.assert_allclose(np.abs(out), np.abs(vals), atol=1e-14)


def test_potential_flow_zero_theta_skips_density(rng):
    vals = _state(rng)
    pot = rng.standard_normal(GRID.sizes)
    np.testing.assert_array_equal(potential_flow(vals.copy(), 0.2, pot),
                                  np.exp(-1j * 0.2 * pot) * vals)


@pytest.mark.parametrize("theta", [0.0, 2.0])
def test_potential_flow_plane_and_line_match_the_full_potential(rng, theta):
    shape = (8, 6, 4)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    plane = rng.standard_normal((8, 6, 1))
    line = rng.standard_normal((1, 1, 4))
    expected = np.exp(-0.3j * (plane + line + theta * np.abs(vals) ** 2)) \
        * vals
    out = potential_flow(vals.copy(), 0.3, plane, theta, line=line)
    assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("theta", [0.0, 2.0])
def test_kernels_return_the_array_they_were_given(rng, theta):
    pot = rng.standard_normal(GRID.sizes)
    vals = _state(rng)
    assert potential_flow(vals, 0.2, pot, theta) is vals
    for name in sorted(SPLITTINGS):
        assert _split(vals, name, 0.1, pot, theta) is vals


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_zero_theta_phase_reuse_matches_recomputed_phases(name, rng):
    # at theta = 0 each distinct weight's factor is computed once and reused;
    # recomputing every phase by hand must give the same bits
    pot = rng.standard_normal(GRID.sizes)
    vals = _state(rng)
    tau, coef = 0.3, 0.7
    expected = vals.copy()
    for a, b in zip(*SPLITTINGS[name]):
        expected = kinetic_flow(expected, GRID.kinetic_phase(coef * (a * tau)))
        if b:
            expected = potential_flow(expected, b * tau, pot)
    out = apply_splitting(vals.copy(), _substeps(name, tau, coef),
                          [(pot, None)])
    np.testing.assert_array_equal(out, expected)


def test_pure_phase_substeps_keep_each_stage_potential(rng):
    # equal taus of two stages must not share a cached factor, and a
    # sub-step with no kinetic phase is a pure potential phase
    vals = _state(rng)
    pots = [rng.standard_normal(GRID.sizes) for _ in range(2)]
    out = apply_splitting(vals.copy(), [(None, 0.3, 0, 0.0),
                                        (None, 0.3, 1, 0.0),
                                        (None, 0.3, 0, 0.0)],
                          [(pot, None) for pot in pots])
    expected = vals.copy()
    for pot in pots + pots[:1]:
        expected = potential_flow(expected, 0.3, pot)
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("line_shape", [None, (1, 1, 4)])
def test_potential_phase_factors_are_broadcast(rng, line_shape):
    plane = rng.standard_normal((8, 6, 1) if line_shape else (8, 6))
    line = rng.standard_normal(line_shape) if line_shape else None
    factors = potential_phase(0.3, plane, line)
    assert [f.shape for f in factors] == \
        [plane.shape] + ([line_shape] if line_shape else [])
    full = plane + (0.0 if line is None else line)
    np.testing.assert_allclose(np.prod(np.broadcast_arrays(*factors), axis=0),
                               np.exp(-0.3j * full), rtol=0, atol=1e-15)


def test_strang_with_zero_potential_is_pure_kinetic(rng):
    vals = _state(rng)
    zero = np.zeros(GRID.sizes)
    out = _split(vals.copy(), "strang", 0.41, zero)
    np.testing.assert_allclose(
        out, kinetic_flow(vals.copy(), GRID.kinetic_phase(0.41)), atol=1e-13)


def test_splitting_counts_transform_pairs(rng, monkeypatch):
    # count the transforms scipy really runs
    calls = []
    for fn in ("fftn", "ifftn"):
        real = getattr(scipy.fft, fn)

        def counted(*a, _real=real, _fn=fn, **k):
            calls.append(_fn)
            return _real(*a, **k)

        monkeypatch.setattr(scipy.fft, fn, counted)
    vals = _state(rng)
    pot = rng.standard_normal(GRID.sizes)
    for name, pairs in (("strang", 2), ("rkn74", 7), ("rkn116", 11)):
        calls.clear()
        _split(vals.copy(), name, 0.1, pot)
        assert calls.count("fftn") == calls.count("ifftn") == pairs


def test_strang_local_error_is_third_order():
    trap = TrapOnGrid(Trap((0.8, 1.2), 0.5), GRID)
    pot, _ = trap.combination((1.0,), trap.coefficients((0.0,)))
    vals = gaussian_state(GRID, (1.1, 0.9))

    def err(tau):
        coarse = _split(vals.copy(), "strang", tau, pot)
        fine = vals.copy()
        for k in range(64):
            fine = _split(fine, "strang", tau / 64, pot)
        return GRID.l2_norm(coarse - fine)

    e1, e2 = err(0.2), err(0.1)
    assert np.log2(e1 / e2) == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_splitting_is_time_reversible(name, rng):
    # palindromic tables + exact subflows: the -tau application inverts +tau
    trap = TrapOnGrid(Trap((0.8, 1.2), 0.5), GRID)
    pot, _ = trap.combination((1.0,), trap.coefficients((0.7,)))
    vals = gaussian_state(GRID, (1.1, 0.9))
    for theta in (0.0, 1.0):
        fwd = _split(vals.copy(), name, 0.05, pot, theta)
        back = _split(fwd.copy(), name, -0.05, pot, theta)
        assert GRID.l2_norm(back - vals) < 1e-13


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_splitting_preserves_norm(name, rng):
    vals = _state(rng)
    pot = rng.standard_normal(GRID.sizes)
    out = _split(vals.copy(), name, 0.3, pot, 5.0)
    assert GRID.l2_norm(out) == pytest.approx(GRID.l2_norm(vals), abs=1e-12)
