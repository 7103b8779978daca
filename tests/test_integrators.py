"""Exponential-integrator steppers: tables, stage structure, evolve driver."""

import math
import pickle
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import expm

import rgpe.integrators as integrators
import rgpe.splitting as splitting
from rgpe import _tables
from rgpe.integrators import (METHODS, OUTER_SCHEMES, DivergenceError,
                              _axial_flow, _plan, evolve, make_stepper,
                              method_checksum, method_order, pairs_per_step)
from rgpe.model import Trap, TrapOnGrid, gaussian_state
from rgpe.oracle import dense_kinetic
from rgpe.spectral import Field, Grid, kinetic_flow
from rgpe.splitting import SPLITTINGS, potential_flow

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
    pot, _ = tg.combination((1.0,), tg.coefficients((t + 0.5 * h,)))
    expected = vals.copy()
    for a, beta in zip(*SPLITTINGS["strang"]):
        expected = kinetic_flow(expected, SMALL.kinetic_phase(a * h))
        if beta:
            expected = potential_flow(expected, beta * h, pot, 1.0)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_gradient_correction_matches_modified_potential():
    tg = TrapOnGrid(TRAP, SMALL)
    t0, h = 0.3, 0.05
    c = _tables.GAUSS3_NODES
    # the paper's modified potential is this field over 25920; the scheme
    # subtracts h^2 times it
    field = tg.gradient_difference_sq(t0 + c[2] * h, t0 + c[0] * h)
    corr = (_tables.BBK_WTILDE_COEF * h * h) * field
    np.testing.assert_allclose(corr, -h * h * field / 25920.0,
                               rtol=1e-12, atol=0)


# Step sizes at which the inner splitting resolves its stage exponentials
# to well below the comparison threshold.
_DENSE_H = {"cf2+strang": 2e-4, "cf4+rkn74": 0.02, "cf4af+rkn74": 0.02,
            "cf6af+rkn116": 0.05, "bbk+strang": 2e-4, "bbk+rkn74": 0.02,
            "bbk+rkn116": 0.02}


def _dense_step(method, tg, vals, t0, h):
    """One step of the method with every stage exponential computed densely."""
    grid = tg.grid

    def potential(row, times):
        return tg.combination(row, tg.coefficients(times))[0]

    A = dense_kinetic(grid)
    u = vals.reshape(-1).copy()
    outer = method.split("+")[0]
    if outer == "bbk":
        c = _tables.GAUSS3_NODES
        times = [t0 + ck * h for ck in c]
        corr = (_tables.BBK_WTILDE_COEF * h * h) * \
            tg.gradient_difference_sq(times[2], times[0])
        u = np.exp(-1j * h * (potential(_tables.BBK_A1, times)
                              + corr)).reshape(-1) * u
        for a2 in (_tables.BBK_A2, _tables.BBK_A2[::-1]):
            P = np.diag(potential(a2, times).reshape(-1))
            u = expm(-0.5j * h * (A + P)) @ u
        u = np.exp(-1j * h * (potential(_tables.BBK_A1[::-1], times)
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
        P = np.diag(potential(row, times).reshape(-1))
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
    # count the transforms scipy really runs, not the kinetic flows, and the
    # lengths of the axes each transforms: a 3-D step at theta = 0 applies
    # its axial flows as one matrix, so its pairs transform the (xi_1, xi_2)
    # axes only, whatever their place in the stepper's buffer
    calls = []
    for name in ("fftn", "ifftn"):
        real = getattr(scipy.fft, name)

        def counted(x, *a, _real=real, _name=name, axes=None, **k):
            axes = range(x.ndim) if axes is None else axes
            calls.append((_name, tuple(x.shape[ax] for ax in axes)))
            return _real(x, *a, axes=axes, **k)

        monkeypatch.setattr(scipy.fft, name, counted)
    grid = Grid(3, (6.0, 5.0, 4.0), (12, 10, 8))
    tg3 = TrapOnGrid(Trap((0.8, 1.2, 1.1), 0.5), grid)
    vals3 = gaussian_state(grid, (1.1, 0.9, 1.0))
    pairs = pairs_per_step(method)
    for tg, vals, theta, lengths in (
            (TrapOnGrid(TRAP, SMALL), _small_state(), 10.0, (8, 8)),
            (TrapOnGrid(TRAP, SMALL), _small_state(), 0.0, (8, 8)),
            (tg3, vals3, 10.0, (12, 10, 8)), (tg3, vals3, 0.0, (12, 10))):
        calls.clear()
        make_stepper(method, tg, theta)(vals, 0.3, 0.05)
        assert len(calls) == 2 * pairs
        assert calls.count(("fftn", lengths)) == pairs
        assert calls.count(("ifftn", lengths)) == pairs


@pytest.mark.parametrize("theta", [0.0, 10.0])
@pytest.mark.parametrize("method", METHODS)
def test_step_leaves_its_input_and_returns_fresh_arrays(method, theta):
    grid = Grid(3, (3.5, 3.0, 2.5), (8, 6, 4))
    for tg, vals in ((TrapOnGrid(TRAP, SMALL), _small_state()),
                     (TrapOnGrid(Trap((0.8, 1.2, 1.1), 0.5), grid),
                      gaussian_state(grid, (1.1, 0.9, 1.0)))):
        before = vals.copy()
        step = make_stepper(method, tg, theta)
        one = step(vals, 0.3, 0.05)
        np.testing.assert_array_equal(vals, before)
        two = step(one, 0.35, 0.05)
        assert not np.shares_memory(one, two)
        assert not np.shares_memory(one, vals)
        assert one.flags.c_contiguous and two.flags.c_contiguous
        np.testing.assert_array_equal(one, step(before, 0.3, 0.05))


def _plain_step(method, tg, theta, vals, t, h):
    """One step by hand on a plain C-contiguous array: the stepper's
    sub-steps, with scipy.fft transforms and numpy multiplies in the
    kernels' operand order, and no padding."""
    outer, inner = method.split("+")
    nodes, _, stages = OUTER_SCHEMES[outer]
    grid = tg.grid
    axial = grid.dim == 3 and not theta
    taus = []
    for j, alpha, beta in _plan(stages, inner):
        frac, _, b, _ = stages[j]
        kinetic = None if alpha is None else b * (alpha * (frac * h))
        taus.append((kinetic, beta * (frac * h), j, b * theta))
    u = np.array(vals, dtype=np.complex128)
    if axial:
        lines = [tg.combination(row, tg.coefficients(nodes))[1].ravel()
                 for _, row, _, _ in stages]
        u = np.matmul(u, _axial_flow(taus, lines, grid.wavenumbers[2]).T)
    times = [t + c * h for c in nodes]
    kappa = tg.trap.gradient_difference_coefficient(times[-1], times[0])
    shift = _tables.BBK_WTILDE_COEF * h * h * kappa
    potentials = [tg.combination(row, tg.coefficients(times),
                                 shift if corrects else 0.0)
                  for _, row, _, corrects in stages]
    axes = (0, 1) if axial else None
    # at 3-D theta = 0 the kinetic factor is the (xi_1, xi_2) plane grid's
    kgrid = Grid(2, grid.half_widths[:2], grid.sizes[:2]) if axial else grid
    for kinetic, tau, j, cubic in taus:
        if kinetic is not None:
            hat = scipy.fft.fftn(u, axes=axes)
            for factor in kgrid.kinetic_phase(kinetic):
                hat = hat * (factor[..., None] if axial else factor)
            u = scipy.fft.ifftn(hat, axes=axes)
        if not tau:
            continue
        plane, line = potentials[j]
        parts = [plane] if axial or line is None else [plane, line]
        if cubic:
            phase = plane + cubic * (np.square(u.real) + np.square(u.imag))
            parts = [phase if line is None else phase + line]
        for part in parts:
            arg = -tau * part
            factor = np.empty(arg.shape, np.complex128)
            factor.real, factor.imag = np.cos(arg), np.sin(arg)
            u = factor * u
    return u


@pytest.mark.parametrize("theta", [0.0, 10.0])
@pytest.mark.parametrize("method", METHODS)
def test_padded_step_equals_unpadded_step(method, theta, monkeypatch):
    # the stepper's buffer, transformed axes last and the last axis padded,
    # changes no bit of a step; the pad stays 0 and never reaches the result
    buffers = []
    real = integrators.apply_splitting

    def recorded(values, *args, pad=0):
        buffers.append((values, pad))
        return real(values, *args, pad=pad)

    monkeypatch.setattr(integrators, "apply_splitting", recorded)
    for sizes in ((16, 16), (16, 12), (16, 16, 16)):
        dim = len(sizes)
        grid = Grid(dim, (6.0, 5.0, 4.0)[:dim], sizes)
        tg = TrapOnGrid(Trap((0.8, 1.2, 1.1)[:dim], 0.5), grid)
        vals = gaussian_state(grid, (1.1, 0.9, 1.0)[:dim])
        buffers.clear()
        out = make_stepper(method, tg, theta)(vals, 0.3, 0.05)
        (buffer, pad), = buffers
        last = sizes[1] if dim == 3 and not theta else sizes[-1]
        assert pad == 1 and buffer.shape[-1] == last + pad
        assert out.shape == sizes and out.flags.c_contiguous
        assert not np.shares_memory(out, buffer)
        assert not buffer[..., -pad:].any()
        assert np.array_equal(out, _plain_step(method, tg, theta, vals,
                                               0.3, 0.05))


def _record_chunks(monkeypatch, fail=None):
    """Record the first-axis length of each array the stepper passes to
    apply_splitting.  With ``fail`` "first" or "helper", raise
    FloatingPointError on the calling thread, or after a pause on the
    threads the step starts."""
    chunks = []
    real = integrators.apply_splitting
    caller = threading.get_ident()

    def recorded(values, *args, **kwargs):
        chunks.append(values.shape[0])
        helper = threading.get_ident() != caller
        if fail == "helper" and helper:
            time.sleep(0.05)  # the calling thread's chunk is done by now
        if fail == ("helper" if helper else "first"):
            raise FloatingPointError("chunk failed")
        return real(values, *args, **kwargs)

    monkeypatch.setattr(integrators, "apply_splitting", recorded)
    return chunks


def _plane_case():
    grid = Grid(3, (3.5, 3.0, 2.5), (8, 6, 4))
    tg = TrapOnGrid(Trap((0.8, 1.2, 1.1), 0.5), grid)
    return tg, gaussian_state(grid, (1.1, 0.9, 1.0))


@pytest.mark.parametrize("method", METHODS)
def test_step_in_plane_chunks_equals_one_chunk(method, monkeypatch):
    # with a floor of 1 point, three threads split the 4 planes of a 3-D
    # theta = 0 step 2, 1 and 1; every plane sees the same operations
    monkeypatch.setattr(integrators, "CHUNK_POINTS", 1)
    chunks = _record_chunks(monkeypatch)
    tg, vals = _plane_case()
    step = make_stepper(method, tg, 0.0)
    one = step(step(vals, 0.3, 0.05), 0.35, 0.05)
    assert chunks == [4, 4]
    chunks.clear()
    split = step(step(vals, 0.3, 0.05, threads=3), 0.35, 0.05, threads=3)
    assert sorted(chunks) == [1, 1, 1, 1, 2, 2]
    assert np.array_equal(split, one)


@pytest.mark.parametrize("fail", ["first", "helper"])
def test_failing_chunk_fails_the_step_after_every_join(fail, monkeypatch):
    monkeypatch.setattr(integrators, "CHUNK_POINTS", 1)
    chunks = _record_chunks(monkeypatch, fail)
    tg, vals = _plane_case()
    step = make_stepper("cf2+strang", tg, 0.0)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="chunk failed"):
        step(vals, 0.3, 0.05, threads=3)
    assert sorted(chunks) == [1, 1, 2]
    assert threading.active_count() == before


@pytest.mark.parametrize("sizes,theta", [((16, 16, 16), 0.0),
                                         ((32, 32, 32), 10.0),
                                         ((256, 128), 0.0)])
def test_step_runs_one_chunk_below_the_floor_and_off_the_plane_path(
        sizes, theta, monkeypatch):
    # 16^3 has too few points for two chunks; the planes of a 3-D
    # theta != 0 step couple, and a 2-D step has one plane
    chunks = _record_chunks(monkeypatch)
    dim = len(sizes)
    grid = Grid(dim, (6.0, 5.0, 4.0)[:dim], sizes)
    tg = TrapOnGrid(Trap((0.8, 1.2, 1.1)[:dim], 0.5), grid)
    make_stepper("cf2+strang", tg, theta)(
        gaussian_state(grid, (1.1, 0.9, 1.0)[:dim]), 0.3, 0.05, threads=4)
    assert chunks == [sizes[2] if dim == 3 and not theta else sizes[0]]


@pytest.mark.parametrize("threads,cpus,chunks_per_step",
                         [(None, 3, 3), (1, 3, 1), (None, 1, 1)])
def test_evolve_caps_the_threads_of_its_steps(threads, cpus,
                                              chunks_per_step, monkeypatch):
    # threads=None means the CPUs this process may run on
    monkeypatch.setattr(integrators, "CHUNK_POINTS", 1)
    monkeypatch.setattr(integrators, "process_cpus", lambda: cpus)
    tg, vals = _plane_case()
    start = Field(tg.grid, vals, 0.0, "rotating")
    single = evolve(start, tg.trap, 0.0, "cf2+strang", 0.1, 2, threads=1)
    chunks = _record_chunks(monkeypatch)
    res = evolve(start, tg.trap, 0.0, "cf2+strang", 0.1, 2, threads=threads)
    assert len(chunks) == 2 * chunks_per_step
    assert np.array_equal(res.field.values, single.field.values)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("theta", [0.0, 10.0])
@pytest.mark.parametrize("method", METHODS)
def test_reused_stepper_matches_fresh_steppers(method, theta, dim):
    # the kinetic phases a stepper keeps for one h must not leak into steps
    # of another h
    grid = Grid(dim, (3.5, 3.0, 2.5)[:dim], (8, 6, 4)[:dim])
    tg = TrapOnGrid(Trap((0.8, 1.2, 1.1)[:dim], 0.5), grid)
    vals = gaussian_state(grid, (1.1, 0.9, 1.0)[:dim])
    reused = make_stepper(method, tg, theta)
    t = 0.3
    for h in (0.05, -0.05, 0.025, 0.05):
        fresh = make_stepper(method, tg, theta)(vals, t, h)
        vals = reused(vals, t, h)
        np.testing.assert_array_equal(vals, fresh)
        t += h


@pytest.mark.parametrize("method,builds",
                         zip(METHODS, (1, 4, 8, 18, 1, 4, 6)))
def test_stepper_builds_one_kinetic_phase_per_distinct_substep(
        method, builds, monkeypatch):
    # the splittings are palindromic and the bbk split stages share their
    # tau, so a step of one h needs far fewer phases than sub-steps
    calls = []
    real = Grid.kinetic_phase

    def counted(self, tau):
        calls.append(tau)
        return real(self, tau)

    monkeypatch.setattr(Grid, "kinetic_phase", counted)
    step = make_stepper(method, TrapOnGrid(TRAP, SMALL), 0.0)
    step(step(_small_state(), 0.3, 0.05), 0.35, 0.05)
    assert len(calls) == len(set(calls)) == builds


@pytest.mark.parametrize("dim", [2, 3])
def test_zero_theta_step_builds_one_potential_phase_per_stage_weight(
        dim, monkeypatch):
    # at theta = 0 a step builds exp(-i tau P) once per distinct (stage,
    # nonzero beta) and only multiplies on later visits
    calls = []
    real = splitting.potential_phase

    def counted(tau, *a, **k):
        calls.append(tau)
        return real(tau, *a, **k)

    monkeypatch.setattr(splitting, "potential_phase", counted)
    grid = Grid(dim, (3.5, 3.0, 2.5)[:dim], (8, 6, 4)[:dim])
    tg = TrapOnGrid(Trap((0.8, 1.2, 1.1)[:dim], 0.5), grid)
    vals = gaussian_state(grid, (1.1, 0.9, 1.0)[:dim])
    for method in METHODS:
        outer, inner = method.split("+")
        betas = set(SPLITTINGS[inner][1]) - {0.0}
        expected = sum(len(betas) if b else 1
                       for _, _, b, _ in OUTER_SCHEMES[outer][2])
        step = make_stepper(method, tg, 0.0)
        calls.clear()
        step(vals, 0.3, 0.05)
        assert len(calls) == expected, method


def test_evolve_leaves_its_grid_unchanged():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    start = Field(grid, gaussian_state(grid, (1.1, 0.9)), 0.0, "rotating")

    def state():
        return {k: len(v) if isinstance(v, (dict, list, tuple)) else v
                for k, v in vars(grid).items()}

    before = state()
    for method in METHODS:
        evolve(start, TRAP, 1.0, method, 0.2, 2)
    assert state().keys() == before.keys()
    for key, val in before.items():
        np.testing.assert_array_equal(state()[key], val)


@pytest.mark.parametrize("theta", [0.0, 10.0])
def test_stepper_allocates_full_size_scratch_only_for_theta(theta):
    # at theta = 0 every 3-D stage phase is formed from the plane and the
    # line, so the stepper needs no full-size buffer
    grid = Grid(3, (6.0, 5.0, 4.0), (16, 16, 16))
    tg = TrapOnGrid(Trap((0.8, 1.2, 1.1), 0.5), grid)
    full = 8 * 16 ** 3
    tracemalloc.start()
    try:
        step = make_stepper("cf6af+rkn116", tg, theta)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert step is not None
    assert (held >= 3 * full) if theta else (held < full)


@pytest.mark.parametrize("theta", [0.0, 10.0])
@pytest.mark.parametrize("method", METHODS)
def test_3d_step_matches_full_size_potential_loop(method, theta):
    # the stepper's plane-and-line stage potentials against a hand loop
    # over the stage table that applies each stage potential at full size
    grid = Grid(3, (6.0, 5.0, 4.0), (12, 10, 8))
    trap = Trap((0.8, 1.2, 1.1), 0.5)
    tg = TrapOnGrid(trap, grid)
    vals = gaussian_state(grid, (1.1, 0.9, 1.0))
    t, h = 0.3, 0.05
    outer, inner = method.split("+")
    nodes, _, stages = OUTER_SCHEMES[outer]
    times = [t + c * h for c in nodes]
    kappa = trap.gradient_difference_coefficient(times[-1], times[0])
    expected = vals.copy()
    for frac, row, b, corrects in stages:
        shift = _tables.BBK_WTILDE_COEF * h * h * kappa if corrects else 0.0
        plane, line = tg.combination(row, tg.coefficients(times), shift)
        P = plane + line
        assert P.shape == grid.sizes
        if not b:
            expected = potential_flow(expected, frac * h, P)
            continue
        for a, beta in zip(*SPLITTINGS[inner]):
            expected = kinetic_flow(
                expected, grid.kinetic_phase(b * (a * (frac * h))))
            if beta:
                expected = potential_flow(expected, beta * (frac * h), P,
                                          b * theta)
    out = make_stepper(method, tg, theta)(vals, t, h)
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


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
    with pytest.raises(ValueError, match="below the resolution"):
        evolve(start, TRAP, 0.0, "cf2+strang", 1.0, 10 ** 20)
    with pytest.raises(ValueError, match="step size inf or rotation angle"):
        evolve(Field(grid, vals, -1e308, "rotating"), TRAP, 0.0,
               "cf2+strang", 1e308, 2)
    with pytest.raises(ValueError, match="rotation angle is not finite"):
        evolve(start, Trap((0.8, 1.2), 1e308), 0.0, "cf2+strang", 4.0, 2)
    with pytest.raises(ValueError, match="step boundary"):
        evolve(start, TRAP, 0.0, "cf2+strang", 1.0, 4,
               snapshot_times=(0.3,))
    # Field rejects a NaN time, so set one after construction: evolve's own
    # step-size check still catches it
    with pytest.raises(ValueError, match="finite"):
        Field(grid, vals, float("nan"), "rotating")
    nan_start = Field(grid, vals, 0.0, "rotating")
    nan_start.time = float("nan")
    with pytest.raises(ValueError, match="step size h = nan"):
        evolve(nan_start, TRAP, 0.0, "cf2+strang", 1.0, 4,
               snapshot_times=(0.5,))


def test_evolve_divergence_raises():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    vals = gaussian_state(grid, (1.1, 0.9)).copy()
    vals[0, 0] = np.inf
    start = Field(grid, vals, 0.0, "rotating")
    with pytest.raises(DivergenceError) as exc, np.errstate(invalid="ignore"):
        evolve(start, TRAP, 0.0, "cf2+strang", 1.0, 4)
    assert str(exc.value) == ("cf2+strang diverged at t = 1 "
                              "(norm nan, initial nan)")
    # the type and the message are all a pickled error keeps
    again = pickle.loads(pickle.dumps(exc.value))
    assert type(again) is DivergenceError and str(again) == str(exc.value)


@pytest.mark.parametrize("method", ["cf4+rkn74", "bbk+rkn116"])
def test_isotropic_trap_makes_rotation_invisible(method):
    # for gamma1 == gamma2 the rotating potential is time independent, so a
    # rotating trap and a static one must produce the same evolution
    grid = Grid(2, (8.0, 8.0), (32, 32))
    start = Field(grid, gaussian_state(grid, (1.0, 1.0)), 0.0, "rotating")
    spun = evolve(start, Trap((0.9, 0.9), 0.5), 0.0, method, 1.0, 10)
    still = evolve(start, Trap((0.9, 0.9), 0.0), 0.0, method, 1.0, 10)
    assert grid.l2_norm(spun.field.values - still.field.values) < 1e-12
