"""Convergence studies, self-convergence, and lab-frame resampling.

Errors are absolute discrete L2 errors at the final time against a refined
reference computed once per study, and every study checks that reference
against a twice-finer run.  Work is reported in transform pairs (one forward
plus one inverse FFT), a run's being its step count times its method's fixed
``pairs_per_step``; wall time is recorded for curiosity but is
machine-dependent and never part of any assertion.  Methods are checked
before any run starts.
"""

import csv
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .integrators import DivergenceError, evolve, method_order
from .spectral import Field

__all__ = ["ConvergenceRow", "StudyResult", "check_methods",
           "convergence_study", "self_convergence", "rotate_to_lab",
           "write_rows", "CSV_HEADER"]

log = logging.getLogger(__name__)

CSV_HEADER = ("method", "h", "n_steps", "l2_error", "transform_pairs",
              "wall_ms")


@dataclass
class ConvergenceRow:
    method: str
    h: float
    n_steps: int
    l2_error: float
    transform_pairs: int
    wall_ms: float
    diverged: bool = False
    norm_drift: float = 0.0  # relative; kept out of the CSV on purpose


@dataclass
class StudyResult:
    rows: list
    reference_method: str
    reference_n_steps: int
    reference_norm: float
    self_check_distance: float = float("nan")

    def errors_for(self, method):
        picked = [(r.h, r.l2_error) for r in self.rows
                  if r.method == method and not r.diverged]
        if not picked:
            return [], []
        hs, es = zip(*picked)
        return list(hs), list(es)


def check_methods(methods):
    """Reject an empty method list or an unknown descriptor."""
    if not methods:
        raise ValueError("no methods requested")
    for m in methods:
        method_order(m)  # raises on unknown descriptors


def _steps_for(span, stepsizes):
    """Convert requested stepsizes to exact step counts, strictly checked."""
    counts = []
    for h in stepsizes:
        n = round(span / h)
        if n < 1 or abs(n * h - span) > 1e-9 * abs(span):
            raise ValueError(f"stepsize {h} does not divide the interval "
                             f"of length {span}")
        counts.append(n)
    if len(set(counts)) != len(counts):
        raise ValueError("duplicate stepsizes in the study")
    return counts


def _run_one(cfg, method, n_steps):
    grid, trap, start = cfg.build()
    tic = time.perf_counter()
    res = evolve(start, trap, cfg.theta, method, cfg.t_final, n_steps)
    return res, (time.perf_counter() - tic) * 1e3


def _pool_size(cfg, requested=None):
    if requested:
        return requested
    if getattr(cfg, "workers", 0):
        return cfg.workers
    return os.cpu_count() or 1


def convergence_study(cfg, methods, stepsizes, workers=None, csv_path=None):
    """Run every (method, stepsize) pair against one refined reference.

    ``stepsizes`` is either a list shared by all methods or a mapping from
    method name to its own list.  The reference is ``cfg.reference_method``
    at the finest requested stepsize divided by ``cfg.reference_factor``,
    cross-checked against a twice-finer run before any error is trusted.
    Diverged runs are kept as rows with an infinite error, never dropped.
    """
    check_methods(methods)
    span = cfg.t_final - cfg.t0
    if isinstance(stepsizes, dict):
        per_method = {m: _steps_for(span, hs) for m, hs in stepsizes.items()}
        if sorted(per_method) != sorted(methods):
            raise ValueError("per-method stepsizes must cover exactly the "
                             "requested methods")
    else:
        counts = _steps_for(span, stepsizes)
        per_method = {m: list(counts) for m in methods}

    n_ref = cfg.reference_factor * max(max(ns) for ns in per_method.values())
    jobs = [(m, n) for m in methods for n in sorted(set(per_method[m]))]

    with ThreadPoolExecutor(max_workers=_pool_size(cfg, workers)) as pool:
        ref_fut = pool.submit(_run_one, cfg, cfg.reference_method, n_ref)
        check_fut = pool.submit(_run_one, cfg, cfg.reference_method, 2 * n_ref)
        futs = {(m, n): pool.submit(_run_one, cfg, m, n) for m, n in jobs}

        ref, _ = ref_fut.result()
        check, _ = check_fut.result()
        check_distance = ref.field.distance(check.field)
        # no study row below 1e-9 is ever trusted, so the reference pair must
        # agree below that floor.  The pair cannot agree to machine precision:
        # over tens of thousands of steps the runs accumulate FFT roundoff,
        # which strong coupling then stretches (measured 1.7e-11 at theta = 0
        # and 1.7e-10 at theta = 10 on the 64^2 benchmark), so a tighter
        # bound would reject healthy references.
        if not check_distance < 1e-9:
            raise RuntimeError(
                f"reference self-check failed: {cfg.reference_method} at "
                f"{n_ref} and {2 * n_ref} steps differ by "
                f"{check_distance:.3e} (>= 1e-9); the study cannot be "
                f"trusted at this resolution")

        rows = []
        for (m, n) in jobs:
            h = span / n
            try:
                res, wall = futs[(m, n)].result()
            except DivergenceError as exc:
                log.warning("%s at h=%g diverged: %s", m, h, exc)
                rows.append(ConvergenceRow(m, h, n, float("inf"), 0, 0.0,
                                           diverged=True))
                continue
            rows.append(ConvergenceRow(m, h, n,
                                       res.field.distance(ref.field),
                                       res.transform_pairs, wall,
                                       norm_drift=res.norm_drift
                                       / res.norm_initial))

    rows.sort(key=lambda r: (r.method, r.h))
    out = StudyResult(rows, cfg.reference_method, n_ref, ref.norm_final,
                      check_distance)
    if csv_path:
        write_rows(rows, csv_path)
    return out


def self_convergence(cfg, method, stepsizes, workers=None, csv_path=None):
    """Error of a method against itself at a tenfold-refined stepsize.

    The nonlinear regime has no dense oracle; consistency under refinement
    is the substitute.  Needs at least four distinct stepsizes to say
    anything about a slope.
    """
    check_methods([method])
    span = cfg.t_final - cfg.t0
    counts = _steps_for(span, stepsizes)
    if len(counts) < 4:
        raise ValueError("self-convergence needs at least 4 stepsizes")
    factor = cfg.reference_factor

    with ThreadPoolExecutor(max_workers=_pool_size(cfg, workers)) as pool:
        coarse = {n: pool.submit(_run_one, cfg, method, n) for n in counts}
        fine = {n: pool.submit(_run_one, cfg, method, factor * n)
                for n in counts}
        rows = []
        for n in sorted(counts, reverse=True):
            res, wall = coarse[n].result()
            ref, _ = fine[n].result()
            rows.append(ConvergenceRow(method, span / n, n,
                                       res.field.distance(ref.field),
                                       res.transform_pairs, wall))
    rows.sort(key=lambda r: (r.method, r.h))
    if csv_path:
        write_rows(rows, csv_path)
    return rows


def write_rows(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.method, repr(r.h), r.n_steps,
                             repr(r.l2_error), r.transform_pairs,
                             f"{r.wall_ms:.3f}"])


def rotate_to_lab(field, trap):
    """Resample a rotating-frame field at laboratory grid positions.

    The state itself lives in rotating coordinates; for display the value at
    laboratory point x is the field at R(t)^T x, fetched by bilinear
    interpolation on the periodic grid.
    """
    from scipy.ndimage import map_coordinates

    if field.grid.dim != 2:
        raise ValueError("lab-frame resampling is 2-D only")
    grid = field.grid
    R = trap.rotation_matrix(field.time)
    x1, x2 = np.meshgrid(*grid.axes, indexing="ij")
    xi1 = R[0, 0] * x1 + R[1, 0] * x2
    xi2 = R[0, 1] * x1 + R[1, 1] * x2
    idx = [(xi1 + grid.half_widths[0]) / grid.spacings[0],
           (xi2 + grid.half_widths[1]) / grid.spacings[1]]
    re = map_coordinates(field.values.real, idx, order=1, mode="grid-wrap")
    im = map_coordinates(field.values.imag, idx, order=1, mode="grid-wrap")
    return Field(grid, re + 1j * im, field.time, "lab")

