"""Exponential time integrators for the rotating-frame equation.

A method descriptor is ``<outer>+<inner>``: the outer scheme is a
commutator-free exponential integrator built on Gauss collocation nodes
(cf2, cf4, cf4af, cf6af) or the modified four-exponential sixth-order
scheme (bbk); the inner scheme is the splitting used to realize each stage
exponential (strang, rkn74, rkn116).  A step is one flat list of the
stages' sub-flows, run by one loop; stage j applies

    exp(-i f_j h (b_j K + P_j + b_j theta |phi|^2)),
    P_j = sum_k a_jk W(., t0 + c_k h),

with K = -Laplacian/2.  For the cf schemes f_j = 1 and b_j = sum_k a_jk.
The bbk scheme has two half-step stages with b = 1 between two stages with
b = 0 (their weights sum to zero), which are pure pointwise phases carrying
a gradient correction.
"""

import functools
import hashlib
import math
import os
import threading
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import _tables
from .model import Trap, TrapOnGrid
from .spectral import Field, Grid
from .splitting import SPLIT_ORDERS, SPLITTINGS, apply_splitting, workspace

__all__ = ["METHODS", "OUTER_SCHEMES", "method_order", "pairs_per_step",
           "method_checksum", "make_stepper", "evolve", "EvolveResult",
           "DivergenceError"]


def _cf(table, nodes, order):
    return nodes, order, tuple((1.0, row, math.fsum(row), False)
                               for row in table)


# outer scheme -> (nodes, order, stages); a stage is (tau fraction, node
# weights, kinetic weight b, gradient-corrected?).  A stage with b = 0 is a
# pure phase, and a corrected stage adds BBK_WTILDE_COEF h^2 times
# |grad(W(., t_last) - W(., t_first))|^2 = kappa (xi_1^2 + xi_2^2) to its
# potential.  That term is O(h^2), since the outer node times merge as
# h -> 0, and exactly zero for a trap isotropic in the rotation plane.  The
# bbk kinetic weights are the exact 0 and 1 its weights sum to; fsum gives
# 6.9e-18 and 1 - 1.1e-16, which would change the results.
_A1, _A2 = _tables.BBK_A1, _tables.BBK_A2
OUTER_SCHEMES = {
    "cf2": _cf(_tables.CF2_A, _tables.GAUSS1_NODES, 2),
    "cf4": _cf(_tables.CF4_A, _tables.GAUSS2_NODES, 4),
    "cf4af": _cf(_tables.CF4AF_A, _tables.GAUSS3_NODES, 4),
    "cf6af": _cf(_tables.CF6AF_A, _tables.GAUSS3_NODES, 6),
    "bbk": (_tables.GAUSS3_NODES, 6, ((1.0, _A1, 0.0, True),
                                      (0.5, _A2, 1.0, False),
                                      (0.5, _A2[::-1], 1.0, False),
                                      (1.0, _A1[::-1], 0.0, True))),
}

METHODS = ("cf2+strang", "cf4+rkn74", "cf4af+rkn74", "cf6af+rkn116",
           "bbk+strang", "bbk+rkn74", "bbk+rkn116")


def _parse(method):
    outer, sep, inner = method.partition("+")
    if not sep or inner not in SPLITTINGS or outer not in OUTER_SCHEMES:
        raise ValueError(f"unknown method {method!r}; "
                         f"available: {', '.join(METHODS)}")
    return OUTER_SCHEMES[outer], inner


def method_order(method):
    """Nominal global convergence order: the weaker of the two parts."""
    (_, order, _), inner = _parse(method)
    return min(order, SPLIT_ORDERS[inner])


def _plan(stages, inner):
    """A step's sub-flows in run order: (stage index, alpha, beta) of each
    pair of a split stage's splitting, (stage index, None, 1.0) if b = 0."""
    alphas, betas = SPLITTINGS[inner]
    return [(j, alpha, beta) for j, (_, _, b, _) in enumerate(stages)
            for alpha, beta in (zip(alphas, betas) if b else [(None, 1.0)])]


def pairs_per_step(method):
    """Exact number of transform pairs one step costs."""
    (_, _, stages), inner = _parse(method)
    return sum(alpha is not None for _, alpha, _ in _plan(stages, inner))


def method_checksum(method):
    """Short digest of every coefficient the method runs on."""
    (nodes, _, stages), inner = _parse(method)
    data = [nodes] + [(frac, b, corrected) + tuple(row)
                      for frac, row, b, corrected in stages]
    if any(corrected for *_, corrected in stages):
        data.append((_tables.BBK_WTILDE_COEF,))
    data += SPLITTINGS[inner]
    blob = repr([[float(v) for v in row] for row in data]).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _axial_flow(taus, lines, k3):
    """S_3, the (M3, M3) matrix of one step's axial sub-flows at theta = 0.

    In 3-D at theta = 0 every sub-flow is an in-plane flow times an axial
    one along xi_3: exp(-i tau k_3^2 / 2) of a kinetic phase and
    exp(-i tau c33 xi_3^2) of a stage's ``line``, which does not depend on
    time, because xi_3 does not rotate.  The in-plane and axial flows
    commute, so the axial flows of a step's ``taus``, its (kinetic tau or
    None, potential tau, stage, b theta) in run order, make one matrix.
    Each flow is applied to the columns of the identity with 1-D numpy
    transforms, so a step's ``scipy.fft`` calls stay its nominal pairs.
    """
    flow = np.eye(k3.size, dtype=np.complex128)
    for kinetic_tau, potential_tau, stage, _ in taus:
        if kinetic_tau:
            phase = np.exp((-0.5j * kinetic_tau) * k3 * k3)
            flow = np.fft.ifft(phase[:, None] * np.fft.fft(flow, axis=0),
                               axis=0)
        if potential_tau:
            flow *= np.exp((-1j * potential_tau) * lines[stage])[:, None]
    return flow


# Fewest grid points in a plane chunk of a 3-D theta = 0 step (make_stepper).
# Steps split in two on 2 shared vCPUs, against one thread: at 16^3 (2,048
# points a chunk) cf2+strang, bbk+rkn116 and cf6af+rkn116 ran 1.4-1.9x; at
# 8,192-12,288 points bbk+rkn116 still ran 1.10-1.14x; at 32^3 (16,384)
# bbk+rkn116 ran 0.64-0.72x and cf6af+rkn116 0.69x; at 64^3 both 0.55x.
CHUNK_POINTS = 16384


def process_cpus():
    """The CPUs this process may run on, or ``os.cpu_count()`` where the
    platform has no affinity call; at least 1."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return cpus or 1


def _on_threads(run, parts):
    """Call run(part) for every part: the first on the calling thread, the
    others on threads started here.  Every started thread is joined before
    this returns or raises, and an exception of any part is raised."""
    errors = []

    def guarded(part):
        try:
            run(part)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=guarded, args=(part,))
               for part in parts[1:]]
    try:
        for helper in helpers:
            helper.start()
        run(parts[0])
    finally:
        for helper in helpers:
            if helper.ident is not None:  # started
                helper.join()
    if errors:
        raise errors[0]


def make_stepper(method, trap_grid, theta):
    """Return step(values, t, h, threads=1) -> values advancing one step
    from time t.

    The stepper owns a workspace if theta != 0 and, for the last h, its
    sub-steps with one kinetic phase per distinct tau, so it belongs to one
    caller at a time.  Each step evaluates the trap once per node, copies
    its input once into a buffer, runs the sub-steps there with
    :func:`apply_splitting` and returns a fresh C-contiguous copy: the
    caller's array is never written.

    The buffer's last axis is padded by one element, which keeps the
    strides off powers of two, whose cache-set conflicts slow a transform
    pair by up to 1.6x.  The state is 0 in the pad, the kinetic phases 1
    and the stage potentials 0, so the pad stays 0 while every multiply
    runs over the whole buffer in one contiguous pass.

    On a 3-D grid at theta = 0 the trap rotates only the (xi_1, xi_2) plane,
    so the axial parts of all sub-flows commute with the in-plane ones.  A
    step applies them first, as one matrix along xi_3 (:func:`_axial_flow`,
    built per h) in place of the copy, and then runs the 2-D step of the
    (xi_1, xi_2) grid on the buffer's M3 planes, with xi_3 its first axis.
    No sub-step couples two planes, so the step splits the buffer into up
    to ``threads`` contiguous chunks of planes, each of at least
    ``CHUNK_POINTS`` grid points, and runs the first on the calling thread
    and each other on a thread of its own that it starts and joins.  Every
    plane sees the same operations in the same order, so the result does
    not depend on ``threads``.  Other steps run on the calling thread.
    """
    (nodes, _, stages), inner = _parse(method)
    plan = _plan(stages, inner)
    grid = trap_grid.grid
    theta = float(theta)
    corrected = any(corrects for *_, corrects in stages)
    kappa = trap_grid.trap.gradient_difference_coefficient
    shape = grid.sizes[:-1] + (grid.sizes[-1] + 1,)
    axial = None  # the 3-D trap grid, whose lines S_3 takes, at theta = 0
    if grid.dim == 3 and not theta:
        axial, trap = trap_grid, trap_grid.trap
        trap_grid = TrapOnGrid(Trap(trap.gammas[:2], trap.rotation_rate),
                               Grid(2, grid.half_widths[:2], grid.sizes[:2]))
        shape = (grid.sizes[2], grid.sizes[0], grid.sizes[1] + 1)
    work = workspace(shape) if theta else None
    most_chunks = (1 if axial is None
                   else min(shape[0], math.prod(grid.sizes) // CHUNK_POINTS))

    def padded(array, fill):
        """``array`` with its last axis padded with ``fill``, unless it
        broadcasts along it."""
        if array.shape[-1] == 1:
            return array
        out = np.full(array.shape[:-1] + (array.shape[-1] + 1,), fill,
                      array.dtype)
        out[..., :-1] = array
        return out

    @functools.lru_cache(maxsize=1)
    def per_h(h):
        """Sub-steps (phase or None, tau, stage, b theta) and S_3 or None."""
        taus = []
        for j, alpha, beta in plan:
            frac, _, b, _ = stages[j]
            kinetic = None if alpha is None else b * (alpha * (frac * h))
            taus.append((kinetic, beta * (frac * h), j, b * theta))

        @functools.cache  # one per distinct tau
        def phase(tau):
            return tuple(padded(factor, 1.0)
                         for factor in trap_grid.grid.kinetic_phase(tau))

        substeps = [(None if kinetic is None else phase(kinetic), *rest)
                    for kinetic, *rest in taus]
        if axial is None:
            return substeps, None
        coefs = axial.coefficients(nodes)  # xi_3 does not rotate
        lines = [axial.combination(row, coefs)[1].ravel()
                 for _, row, _, _ in stages]
        return substeps, _axial_flow(taus, lines, grid.wavenumbers[2])

    def step(values, t, h, threads=1):
        substeps, flow = per_h(h)
        buffer = np.empty(shape, np.complex128)
        buffer[..., -1] = 0.0
        view = buffer[..., :-1]
        values = np.asarray(values, dtype=np.complex128)
        if flow is None:
            view[...] = values
        else:
            np.matmul(flow, values.transpose(0, 2, 1),
                      out=view.transpose(1, 0, 2))
        times = [t + c * h for c in nodes]
        coefs = trap_grid.coefficients(times)
        shift = (_tables.BBK_WTILDE_COEF * h * h * kappa(times[-1], times[0])
                 if corrected else 0.0)
        potentials = []
        for _, row, _, corrects in stages:
            plane, line = trap_grid.combination(row, coefs,
                                                shift if corrects else 0.0)
            potentials.append((padded(plane, 0.0),
                               None if line is None else padded(line, 0.0)))
        chunks = min(threads, most_chunks)
        _on_threads(lambda part: apply_splitting(part, substeps, potentials,
                                                 work, pad=1),
                    np.array_split(buffer, chunks) if chunks > 1
                    else [buffer])
        return (view if axial is None else view.transpose(1, 2, 0)).copy()

    return step


class DivergenceError(RuntimeError):
    """The propagation blew up (non-finite or norm growth beyond reason)."""


@dataclass
class EvolveResult:
    field: Field
    n_steps: int
    step_size: float
    norm_initial: float
    norm_final: float
    transform_pairs: int
    snapshots: list = dataclass_field(default_factory=list)

    @property
    def norm_drift(self):
        return abs(self.norm_final - self.norm_initial)


CHECK_EVERY = 16  # steps between norm checks


def step_grid(t0, t_final, n_steps, snapshot_times=()):
    """(h, snapshot step indices) of n_steps steps from t0 to t_final.

    Checks, for ``evolve``, ``RunConfig.validate`` and the studies alike,
    that n_steps >= 1, that t0 + h and t_final - h differ from t0 and
    t_final (else the node times t + c h collapse) and that each snapshot
    time is on a step boundary, as the stepper has no dense output.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    t_final = float(t_final)
    if t_final == t0:
        raise ValueError("t_final coincides with the start time")
    try:
        h = (t_final - t0) / n_steps
    except OverflowError:  # a count beyond float range: h is below any step
        h = 0.0
    if t0 + h == t0 or t_final - h == t_final:
        raise ValueError(f"step size {h} is below the resolution of the "
                         f"time axis from {t0} to {t_final}")
    snap_at = set()
    for ts in snapshot_times:
        k = (float(ts) - t0) / h
        idx = round(k) if math.isfinite(k) else -1
        if not (0 <= idx <= n_steps) or abs(t0 + idx * h - float(ts)) > \
                1e-9 * max(1.0, abs(h) * n_steps):
            raise ValueError(f"snapshot time {ts} does not lie on a step "
                             f"boundary t0 + k h, 0 <= k <= {n_steps}, of "
                             f"step size h = {h}")
        snap_at.add(idx)
    return h, snap_at


def evolve(start, trap, theta, method, t_final, n_steps, snapshot_times=(),
           threads=None):
    """Propagate a Field to t_final in n_steps fixed steps of one method.

    Snapshot times must fall on step boundaries (:func:`step_grid`); a copy
    of the state is recorded at each.  Norm blow-up or non-finite values,
    looked for every ``CHECK_EVERY`` steps, at snapshots and at the end,
    raise :class:`DivergenceError`.  The reported transform pairs are the
    method's fixed cost, ``n_steps * pairs_per_step(method)``.  ``threads``
    caps the threads each step may run on (see :func:`make_stepper`); None
    means :func:`process_cpus`.  The result does not depend on it.
    """
    if start.frame != "rotating":
        raise ValueError("the steppers act in the rotating frame; "
                         "map the field before evolving")
    grid = start.grid
    t0 = start.time
    h, snap_at = step_grid(t0, t_final, n_steps, snapshot_times)
    if not all(map(math.isfinite, (h, trap.angle(t0), trap.angle(t_final)))):
        raise ValueError(f"step size {h} or rotation angle is not finite")

    trap_grid = TrapOnGrid(trap, grid)
    stepper = make_stepper(method, trap_grid, theta)
    threads = process_cpus() if threads is None else threads
    values = start.values
    norm0 = grid.l2_norm(values)

    snapshots = []
    if 0 in snap_at:
        snapshots.append(Field(grid, values.copy(), t0, start.frame))
    for n in range(1, n_steps + 1):
        values = stepper(values, t0 + (n - 1) * h, h, threads)
        if n % CHECK_EVERY == 0 or n == n_steps or n in snap_at:
            norm = grid.l2_norm(values)
            if not math.isfinite(norm) or norm > 10.0 * max(norm0, 1e-300):
                raise DivergenceError(
                    f"{method} diverged at t = {t0 + n * h:.6g} "
                    f"(norm {norm:.3e}, initial {norm0:.3e})")
        if n in snap_at:
            snapshots.append(Field(grid, values.copy(), t0 + n * h,
                                   start.frame))

    final = Field(grid, values, t0 + n_steps * h, start.frame)
    return EvolveResult(field=final, n_steps=n_steps, step_size=h,
                        norm_initial=norm0, norm_final=norm,
                        transform_pairs=n_steps * pairs_per_step(method),
                        snapshots=snapshots)
