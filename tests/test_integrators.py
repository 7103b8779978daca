"""Exponential-integrator steppers: tables, stage structure, evolve driver."""

import math

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import expm

from rgpe import _tables
from rgpe.integrators import (METHODS, DivergenceError, evolve,
                              make_stepper, method_checksum, method_order,
                              pairs_per_step)
from rgpe.model import Trap, TrapOnGrid, gaussian_state, modified_potential
from rgpe.oracle import dense_kinetic
from rgpe.spectral import Field, Grid
from rgpe.splitting import apply_splitting

TRAP = Trap((0.8, 1.2), 0.5)
SMALL = Grid(2, (3.5, 3.5), (8, 8))


def _small_state():
    grid = SMALL
    vals = gaussian_state(grid, (1.1, 0.9))
    return vals / grid.l2_norm(vals)


def test_method_list():
    assert METHODS == ("cf2+strang", "cf4+rkn74", "cf4af+rkn74",
                       "cf6af+rkn116", "bbk+strang", "bbk+rkn74",
                       "bbk+rkn116")


def test_pairs_per_step():
    assert [pairs_per_step(m) for m in METHODS] == [2, 14, 21, 66, 4, 14, 22]


def test_method_order():
    assert {m: method_order(m) for m in METHODS} == {
        "cf2+strang": 2, "cf4+rkn74": 4, "cf4af+rkn74": 4,
        "cf6af+rkn116": 6, "bbk+strang": 2, "bbk+rkn74": 4,
        "bbk+rkn116": 6}


@pytest.mark.parametrize("bad", ["cf8+rkn74", "cf4", "cf4+lie", "+strang"])
def test_unknown_method_rejected(bad):
    with pytest.raises(ValueError, match="unknown method"):
        method_order(bad)


def test_checksums_are_stable_and_distinct():
    sums = [method_checksum(m) for m in METHODS]
    assert all(len(s) == 12 and set(s) <= set("0123456789abcdef")
               for s in sums)
    assert len(set(sums)) == len(METHODS)
    assert sums == [method_checksum(m) for m in METHODS]


def test_gauss_nodes_closed_forms():
    s3, s15 = math.sqrt(3.0), math.sqrt(15.0)
    assert _tables.GAUSS1_NODES == (0.5,)
    np.testing.assert_allclose(_tables.GAUSS2_NODES,
                               (0.5 - s3 / 6, 0.5 + s3 / 6), atol=1e-16)
    np.testing.assert_allclose(_tables.GAUSS3_NODES,
                               (0.5 - s15 / 10, 0.5, 0.5 + s15 / 10),
                               atol=1e-16)


def test_four_exponential_tables_closed_forms():
    s15 = math.sqrt(15.0)
    np.testing.assert_allclose(
        _tables.BBK_A1, ((10 + s15) / 180, -1.0 / 9, (10 - s15) / 180),
        atol=1e-16)
    np.testing.assert_allclose(
        _tables.BBK_A2, ((15 + 8 * s15) / 90, 2.0 / 3, (15 - 8 * s15) / 90),
        atol=1e-16)
    # the phase stages integrate to zero, the split stages to the full step
    assert math.fsum(_tables.BBK_A1) == pytest.approx(0.0, abs=1e-16)
    assert math.fsum(_tables.BBK_A2) == pytest.approx(1.0, abs=1e-15)
    assert _tables.BBK_WTILDE_COEF == -1.0 / 25920.0


def test_cfqm_tables_integrate_to_one():
    for table in (_tables.CF2_A, _tables.CF4_A, _tables.CF4AF_A,
                  _tables.CF6AF_A):
        total = math.fsum(math.fsum(row) for row in table)
        assert total == pytest.approx(1.0, abs=1e-14)


def test_cf4_table_is_palindromic():
    a = _tables.CF4_A
    assert len(a) == 2 and a[0] == tuple(reversed(a[1]))


def test_cf2_stage_uses_midpoint_potential():
    tg = TrapOnGrid(TRAP, SMALL)
    vals = _small_state()
    t, h = 0.3, 0.05
    out = make_stepper("cf2+strang", tg, 1.0)(vals, t, h)
    expected = apply_splitting(SMALL, vals, "strang", h,
                               tg.values(t + 0.5 * h), 1.0, 1.0)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_gradient_correction_matches_modified_potential():
    tg = TrapOnGrid(TRAP, SMALL)
    t0, h = 0.3, 0.05
    c = _tables.GAUSS3_NODES
    corr = (_tables.BBK_WTILDE_COEF * h * h) * \
        tg.gradient_difference_sq(t0 + c[2] * h, t0 + c[0] * h)
    np.testing.assert_allclose(corr, -h * h * modified_potential(tg, t0, h),
                               rtol=1e-12, atol=0)


# Step sizes at which the inner splitting resolves its stage exponentials
# to well below the comparison threshold.
_DENSE_H = {"cf2+strang": 2e-4, "cf4+rkn74": 0.02, "cf4af+rkn74": 0.02,
            "cf6af+rkn116": 0.05, "bbk+strang": 2e-4, "bbk+rkn74": 0.02,
            "bbk+rkn116": 0.02}


def _dense_step(method, tg, vals, t0, h):
    """One step of the method with every stage exponential computed densely."""
    grid = tg.grid
    A = dense_kinetic(grid)
    u = vals.reshape(-1).copy()
    outer = method.split("+")[0]
    if outer == "bbk":
        c = _tables.GAUSS3_NODES
        times = [t0 + ck * h for ck in c]
        corr = (_tables.BBK_WTILDE_COEF * h * h) * \
            tg.gradient_difference_sq(times[2], times[0])
        u = np.exp(-1j * h * (tg.combination(_tables.BBK_A1, times)
                              + corr)).reshape(-1) * u
        for a2 in (_tables.BBK_A2, _tables.BBK_A2[::-1]):
            P = np.diag(tg.combination(a2, times).reshape(-1))
            u = expm(-0.5j * h * (A + P)) @ u
        u = np.exp(-1j * h * (tg.combination(_tables.BBK_A1[::-1], times)
                              + corr)).reshape(-1) * u
        return u.reshape(grid.sizes)
    table, nodes, _ = {
        "cf2": (_tables.CF2_A, _tables.GAUSS1_NODES, 2),
        "cf4": (_tables.CF4_A, _tables.GAUSS2_NODES, 4),
        "cf4af": (_tables.CF4AF_A, _tables.GAUSS3_NODES, 4),
        "cf6af": (_tables.CF6AF_A, _tables.GAUSS3_NODES, 6)}[outer]
    times = [t0 + ck * h for ck in nodes]
    for row in table:
        b = math.fsum(row)
        P = np.diag(tg.combination(row, times).reshape(-1))
        u = expm(-1j * h * (b * A + P)) @ u
    return u.reshape(grid.sizes)


@pytest.mark.parametrize("method", METHODS)
def test_step_matches_dense_stage_exponentials(method):
    # theta = 0 so each stage is a linear exponential the dense oracle can
    # evaluate exactly; the only gap left is the inner splitting error
    tg = TrapOnGrid(TRAP, SMALL)
    vals = _small_state()
    h = _DENSE_H[method]
    out = make_stepper(method, tg, 0.0)(vals, 0.3, h)
    ref = _dense_step(method, tg, vals, 0.3, h)
    assert SMALL.l2_norm(out - ref) < 1e-11


@pytest.mark.parametrize("method", METHODS)
def test_step_executes_nominal_transforms(method, monkeypatch):
    # count the transforms scipy really runs, not the kinetic flows
    calls = []
    for name in ("fftn", "ifftn"):
        real = getattr(scipy.fft, name)

        def counted(*a, _real=real, _name=name, **k):
            calls.append(_name)
            return _real(*a, **k)

        monkeypatch.setattr(scipy.fft, name, counted)
    tg = TrapOnGrid(TRAP, SMALL)
    make_stepper(method, tg, 10.0)(_small_state(), 0.3, 0.05)
    assert calls.count("fftn") == calls.count("ifftn")
    assert len(calls) == 2 * pairs_per_step(method)


def test_evolve_single_step_equals_stepper():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    tg = TrapOnGrid(TRAP, grid)
    vals = gaussian_state(grid, (1.1, 0.9))
    start = Field(grid, vals, 0.0, "rotating")
    res = evolve(start, TRAP, 1.0, "cf4+rkn74", 0.1, 1)
    manual = make_stepper("cf4+rkn74", tg, 1.0)(vals, 0.0, 0.1)
    np.testing.assert_array_equal(res.field.values, manual)
    assert res.field.time == pytest.approx(0.1)
    assert res.n_steps == 1 and res.step_size == pytest.approx(0.1)
    assert res.transform_pairs == pairs_per_step("cf4+rkn74")
    assert res.norm_drift == abs(res.norm_final - res.norm_initial)


def test_evolve_counts_pairs_and_keeps_norm():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    start = Field(grid, gaussian_state(grid, (1.1, 0.9)), 0.0, "rotating")
    for method in ("cf6af+rkn116", "bbk+strang"):
        res = evolve(start, TRAP, 1.0, method, 0.5, 5)
        assert res.transform_pairs == 5 * pairs_per_step(method)
        assert res.norm_drift < 1e-12


def test_evolve_snapshots():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    start = Field(grid, gaussian_state(grid, (1.1, 0.9)), 0.0, "rotating")
    res = evolve(start, TRAP, 0.0, "cf2+strang", 0.4, 4,
                 snapshot_times=(0.0, 0.2, 0.4))
    assert [s.time for s in res.snapshots] == pytest.approx([0.0, 0.2, 0.4])
    assert all(s.frame == "rotating" for s in res.snapshots)
    np.testing.assert_array_equal(res.snapshots[0].values, start.values)
    np.testing.assert_array_equal(res.snapshots[-1].values, res.field.values)
    # snapshots are copies, not views of the running buffer
    assert res.snapshots[-1].values is not res.field.values


def test_evolve_validation():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    vals = gaussian_state(grid, (1.1, 0.9))
    start = Field(grid, vals, 0.0, "rotating")
    with pytest.raises(ValueError, match="n_steps"):
        evolve(start, TRAP, 0.0, "cf2+strang", 1.0, 0)
    with pytest.raises(ValueError, match="rotating frame"):
        evolve(Field(grid, vals, 0.0, "lab"), TRAP, 0.0, "cf2+strang", 1.0, 4)
    with pytest.raises(ValueError, match="coincides"):
        evolve(start, TRAP, 0.0, "cf2+strang", 0.0, 4)
    with pytest.raises(ValueError, match="step boundary"):
        evolve(start, TRAP, 0.0, "cf2+strang", 1.0, 4,
               snapshot_times=(0.3,))


def test_evolve_divergence_raises():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    vals = gaussian_state(grid, (1.1, 0.9)).copy()
    vals[0, 0] = np.inf
    start = Field(grid, vals, 0.0, "rotating")
    with pytest.raises(DivergenceError) as exc, np.errstate(invalid="ignore"):
        evolve(start, TRAP, 0.0, "cf2+strang", 1.0, 4)
    assert exc.value.time is not None
    assert exc.value.norm is None or not math.isfinite(exc.value.norm)
    assert isinstance(exc.value.snapshots, list)


@pytest.mark.parametrize("method", ["cf4+rkn74", "bbk+rkn116"])
def test_isotropic_trap_makes_rotation_invisible(method):
    # for gamma1 == gamma2 the rotating potential is time independent, so a
    # rotating trap and a static one must produce the same evolution
    grid = Grid(2, (8.0, 8.0), (32, 32))
    start = Field(grid, gaussian_state(grid, (1.0, 1.0)), 0.0, "rotating")
    spun = evolve(start, Trap((0.9, 0.9), 0.5), 0.0, method, 1.0, 10)
    still = evolve(start, Trap((0.9, 0.9), 0.0), 0.0, method, 1.0, 10)
    assert grid.l2_norm(spun.field.values - still.field.values) < 1e-12
