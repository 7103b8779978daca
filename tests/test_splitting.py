"""Splitting tables and the two exact subflows."""

import math

import numpy as np
import pytest
import scipy.fft

from rgpe.model import Trap, TrapOnGrid, gaussian_state
from rgpe.spectral import Grid, kinetic_flow
from rgpe.splitting import (SPLITTINGS, apply_splitting, potential_flow,
                            splitting_pairs)

GRID = Grid(2, (8.0, 8.0), (32, 32))


def _state(rng):
    vals = rng.standard_normal(GRID.sizes) + 1j * rng.standard_normal(GRID.sizes)
    return np.exp(-0.3 * sum(x * x for x in np.meshgrid(*GRID.axes,
                                                        indexing="ij"))) * vals


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_coefficients_are_consistent(name):
    alphas, betas = splitting_pairs(name)
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
    alphas, betas = splitting_pairs(name)
    assert alphas == tuple(reversed(alphas))
    assert betas[:-1] == tuple(reversed(betas[:-1]))


def test_pair_counts():
    assert {n: len(splitting_pairs(n)[0]) for n in SPLITTINGS} == \
        {"strang": 2, "rkn74": 7, "rkn116": 11}


def test_unknown_splitting():
    with pytest.raises(ValueError, match="unknown splitting"):
        splitting_pairs("leapfrog")


def test_potential_flow_elementwise(rng):
    vals = _state(rng)
    pot = rng.standard_normal(GRID.sizes)
    out = potential_flow(vals, 0.37, pot, theta=2.0)
    dens = np.abs(vals) ** 2
    expected = np.exp(-1j * 0.37 * (pot + 2.0 * dens)) * vals
    np.testing.assert_allclose(out, expected, atol=1e-15)
    # modulus is an invariant of the flow
    np.testing.assert_allclose(np.abs(out), np.abs(vals), atol=1e-14)


def test_potential_flow_zero_theta_skips_density(rng):
    vals = _state(rng)
    pot = rng.standard_normal(GRID.sizes)
    np.testing.assert_array_equal(potential_flow(vals, 0.2, pot),
                                  np.exp(-1j * 0.2 * pot) * vals)


def test_strang_with_zero_potential_is_pure_kinetic(rng):
    vals = _state(rng)
    zero = np.zeros(GRID.sizes)
    out = apply_splitting(GRID, vals, "strang", 0.41, zero)
    np.testing.assert_allclose(out, kinetic_flow(GRID, vals, 0.41),
                               atol=1e-13)


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
        apply_splitting(GRID, vals, name, 0.1, pot)
        assert calls.count("fftn") == calls.count("ifftn") == pairs


def test_strang_local_error_is_third_order():
    trap = TrapOnGrid(Trap((0.8, 1.2), 0.5), GRID)
    pot = trap.values(0.0)
    vals = gaussian_state(GRID, (1.1, 0.9))

    def err(tau):
        coarse = apply_splitting(GRID, vals, "strang", tau, pot)
        fine = vals
        for k in range(64):
            fine = apply_splitting(GRID, fine, "strang", tau / 64, pot)
        return GRID.l2_norm(coarse - fine)

    e1, e2 = err(0.2), err(0.1)
    assert np.log2(e1 / e2) == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_splitting_is_time_reversible(name, rng):
    # palindromic tables + exact subflows: the -tau application inverts +tau
    trap = TrapOnGrid(Trap((0.8, 1.2), 0.5), GRID)
    pot = trap.values(0.7)
    vals = gaussian_state(GRID, (1.1, 0.9))
    for theta in (0.0, 1.0):
        fwd = apply_splitting(GRID, vals, name, 0.05, pot, 1.0, theta)
        back = apply_splitting(GRID, fwd, name, -0.05, pot, 1.0, theta)
        assert GRID.l2_norm(back - vals) < 1e-13


@pytest.mark.parametrize("name", sorted(SPLITTINGS))
def test_splitting_preserves_norm(name, rng):
    vals = _state(rng)
    pot = rng.standard_normal(GRID.sizes)
    out = apply_splitting(GRID, vals, name, 0.3, pot, 1.0, 5.0)
    assert GRID.l2_norm(out) == pytest.approx(GRID.l2_norm(vals), abs=1e-12)
