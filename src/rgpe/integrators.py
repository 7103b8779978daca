"""Exponential time integrators for the rotating-frame equation.

A method descriptor is ``<outer>+<inner>``: the outer scheme is a
commutator-free exponential integrator built on Gauss collocation nodes
(cf2, cf4, cf4af, cf6af) or the modified four-exponential sixth-order
scheme (bbk); the inner scheme is the splitting used to realize each stage
exponential (strang, rkn74, rkn116).  Every outer scheme is a table of
stages run by one loop; stage j applies

    exp(-i f_j h (b_j K + P_j + b_j theta |phi|^2)),
    P_j = sum_k a_jk W(., t0 + c_k h),

with K = -Laplacian/2.  For the cf schemes f_j = 1 and b_j = sum_k a_jk.
The bbk scheme has two half-step stages with b = 1 between two stages with
b = 0 (their weights sum to zero), which are pure pointwise phases carrying
a gradient correction.
"""

import hashlib
import math
from dataclasses import dataclass, field as dataclass_field

from . import _tables
from .model import TrapOnGrid
from .spectral import Field
from .splitting import SPLIT_ORDERS, SPLITTINGS, apply_splitting, \
    potential_flow, splitting_pairs

__all__ = ["METHODS", "OUTER_SCHEMES", "method_order", "pairs_per_step",
           "method_checksum", "make_stepper", "evolve", "EvolveResult",
           "DivergenceError"]


def _cf(table, nodes, order):
    return nodes, order, tuple((1.0, row, math.fsum(row), False)
                               for row in table)


# outer scheme -> (nodes, order, stages); a stage is (tau fraction, node
# weights, kinetic weight b, gradient-corrected?).  A stage with b = 0 is a
# pure phase, and a corrected stage adds BBK_WTILDE_COEF h^2 times
# |grad(W(., t_last) - W(., t_first))|^2 to its potential.  The bbk kinetic
# weights are the exact 0 and 1 its weights sum to; fsum gives 6.9e-18 and
# 1 - 1.1e-16, which would change the results.
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


def pairs_per_step(method):
    """Exact number of transform pairs one step costs."""
    (_, _, stages), inner = _parse(method)
    split = sum(1 for _, _, b, _ in stages if b)
    return split * len(splitting_pairs(inner)[0])


def method_checksum(method):
    """Short digest of every coefficient the method runs on."""
    (nodes, _, stages), inner = _parse(method)
    data = [nodes] + [(frac, b, corrected) + tuple(row)
                      for frac, row, b, corrected in stages]
    if any(corrected for *_, corrected in stages):
        data.append((_tables.BBK_WTILDE_COEF,))
    data += splitting_pairs(inner)
    blob = repr([[float(v) for v in row] for row in data]).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def make_stepper(method, trap_grid, theta):
    """Return step(values, t, h) -> values advancing one step from time t."""
    (nodes, _, stages), inner = _parse(method)
    grid = trap_grid.grid
    theta = float(theta)
    corrected = any(corrects for *_, corrects in stages)

    def step(values, t, h):
        times = [t + c * h for c in nodes]
        if corrected:
            corr = (_tables.BBK_WTILDE_COEF * h * h) * \
                trap_grid.gradient_difference_sq(times[-1], times[0])
        for frac, row, b, corrects in stages:
            P = trap_grid.combination(row, times)
            if corrects:
                P = P + corr
            if b:
                values = apply_splitting(grid, values, inner, frac * h, P, b,
                                         b * theta)
            else:
                values = potential_flow(values, frac * h, P)
        return values

    return step


class DivergenceError(RuntimeError):
    """The propagation blew up (non-finite or norm growth beyond reason)."""

    def __init__(self, message, time=None, norm=None):
        super().__init__(message)
        self.time = time
        self.norm = norm
        self.snapshots = []  # whatever was recorded before the abort


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


def evolve(start, trap, theta, method, t_final, n_steps, snapshot_times=()):
    """Propagate a Field to t_final in n_steps fixed steps of one method.

    Snapshot times must fall on step boundaries (the stepper has no dense
    output); a copy of the state is recorded at each.  Norm blow-up or
    non-finite values, looked for every ``CHECK_EVERY`` steps, at snapshots
    and at the end, raise :class:`DivergenceError`.  The reported transform
    pairs are the method's fixed cost, ``n_steps * pairs_per_step(method)``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if start.frame != "rotating":
        raise ValueError("the steppers act in the rotating frame; "
                         "map the field before evolving")
    grid = start.grid
    t0 = start.time
    h = (float(t_final) - t0) / n_steps
    if h == 0:
        raise ValueError("t_final coincides with the field's current time")

    snap_at = {}
    for ts in snapshot_times:
        idx = round((float(ts) - t0) / h)
        if not (0 <= idx <= n_steps) or abs(t0 + idx * h - float(ts)) > \
                1e-9 * max(1.0, abs(h) * n_steps):
            raise ValueError(f"snapshot time {ts} does not lie on a step "
                             f"boundary of step size {h}")
        snap_at.setdefault(idx, float(ts))

    trap_grid = TrapOnGrid(trap, grid)
    stepper = make_stepper(method, trap_grid, theta)
    values = start.values.copy()
    norm0 = grid.l2_norm(values)

    snapshots = []
    if 0 in snap_at:
        snapshots.append(Field(grid, values.copy(), t0, start.frame))
    for n in range(1, n_steps + 1):
        values = stepper(values, t0 + (n - 1) * h, h)
        if n % CHECK_EVERY == 0 or n == n_steps or n in snap_at:
            norm = grid.l2_norm(values)
            if not math.isfinite(norm) or norm > 10.0 * max(norm0, 1e-300):
                err = DivergenceError(
                    f"{method} diverged at t = {t0 + n * h:.6g} "
                    f"(norm {norm:.3e}, initial {norm0:.3e})",
                    time=t0 + n * h, norm=norm)
                err.snapshots = snapshots
                raise err
        if n in snap_at:
            snapshots.append(Field(grid, values.copy(), t0 + n * h,
                                   start.frame))

    final = Field(grid, values, t0 + n_steps * h, start.frame)
    return EvolveResult(field=final, n_steps=n_steps, step_size=h,
                        norm_initial=norm0, norm_final=final.norm(),
                        transform_pairs=n_steps * pairs_per_step(method),
                        snapshots=snapshots)
