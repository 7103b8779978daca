"""Convergence studies and self-convergence.

Errors are absolute discrete L2 errors at the final time against a refined
reference computed once per study, and every study checks that reference
against a twice-finer run.  Work is reported in transform pairs (one forward
plus one inverse FFT), a run's being its step count times its method's fixed
``pairs_per_step``; wall time is recorded for curiosity but is
machine-dependent and never part of any assertion.  Methods and
stepsizes are checked before any run starts.  In both studies a run that
diverges, or whose reference diverges, is kept as a row with an infinite
error, never dropped.  Only a convergence study's shared reference and its
self-check run abort the study, with :class:`DivergenceError`, if they
diverge.
"""

import csv
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .integrators import DivergenceError, evolve, method_order, step_grid

__all__ = ["ConvergenceRow", "StudyResult", "check_methods",
           "check_stepsizes", "convergence_study", "self_convergence",
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
    """Reject an empty method list, an unknown descriptor or a duplicate."""
    if not methods:
        raise ValueError("no methods requested")
    for m in methods:
        method_order(m)  # raises on unknown descriptors
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate methods in the study")


def _steps_for(span, stepsizes):
    """Convert requested stepsizes to exact step counts, strictly checked."""
    counts = []
    for h in stepsizes:
        if not h or not math.isfinite(span / h):
            raise ValueError(f"stepsize {h} gives no finite step count")
        n = round(span / h)
        if n < 1 or abs(n * h - span) > 1e-9 * abs(span):
            raise ValueError(f"stepsize {h} does not divide the interval "
                             f"of length {span}")
        counts.append(n)
    if len(set(counts)) != len(counts):
        raise ValueError("duplicate stepsizes in the study")
    return counts


def check_stepsizes(cfg, stepsizes, self_convergence=False):
    """Step counts of a study over cfg's time span, checked before any run."""
    counts = _steps_for(cfg.t_final - cfg.t0, stepsizes)
    for n in counts:
        step_grid(cfg.t0, cfg.t_final, n)
    if self_convergence and len(counts) < 4:
        raise ValueError("self-convergence needs at least 4 stepsizes")
    return counts


def _run_one(cfg, method, n_steps):
    grid, trap, start = cfg.build()
    tic = time.perf_counter()
    res = evolve(start, trap, cfg.theta, method, cfg.t_final, n_steps)
    return res, (time.perf_counter() - tic) * 1e3


def _pool_size(cfg, requested=None):
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())  # the CPUs this process may run on
    return requested or cfg.workers or cpus or 1


def convergence_study(cfg, methods, stepsizes, workers=None, csv_path=None):
    """Run every (method, stepsize) pair against one refined reference.

    ``stepsizes`` is either a list shared by all methods or a mapping from
    method name to its own list.  The reference is ``cfg.reference_method``
    at the finest requested stepsize divided by ``cfg.reference_factor``,
    cross-checked against a twice-finer run before any error is trusted.
    """
    check_methods(methods)
    span = cfg.t_final - cfg.t0
    if isinstance(stepsizes, dict):
        per_method = {m: check_stepsizes(cfg, hs)
                      for m, hs in stepsizes.items()}
        if sorted(per_method) != sorted(methods):
            raise ValueError("per-method stepsizes must cover exactly the "
                             "requested methods")
    else:
        counts = check_stepsizes(cfg, stepsizes)
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

        rows = [_row(m, span / n, n, futs[(m, n)], ref_fut) for m, n in jobs]
    return StudyResult(_finish(rows, csv_path), cfg.reference_method, n_ref,
                       ref.norm_final, check_distance)


def self_convergence(cfg, method, stepsizes, csv_path=None):
    """Error of a method against itself at a tenfold-refined stepsize.

    The nonlinear regime has no dense oracle; consistency under refinement
    is the substitute.
    """
    check_methods([method])
    span = cfg.t_final - cfg.t0
    counts = check_stepsizes(cfg, stepsizes, self_convergence=True)
    factor = cfg.reference_factor

    with ThreadPoolExecutor(max_workers=_pool_size(cfg)) as pool:
        coarse = {n: pool.submit(_run_one, cfg, method, n) for n in counts}
        fine = {n: pool.submit(_run_one, cfg, method, factor * n)
                for n in counts}
        rows = [_row(method, span / n, n, coarse[n], fine[n]) for n in counts]
    return _finish(rows, csv_path)


def _row(method, h, n_steps, run, ref):
    """The study row of one run: ``run`` and ``ref`` are futures of
    :func:`_run_one`, and the error is the distance between their final
    states.  If either diverged, the row is kept with an infinite error."""
    try:
        res, wall = run.result()
        ref_field = ref.result()[0].field
    except DivergenceError as exc:
        other = ref.exception()  # a failure other than divergence is raised
        if other is not None and not isinstance(other, DivergenceError):
            raise other
        log.warning("%s at h=%g diverged: %s", method, h, exc)
        return ConvergenceRow(method, h, n_steps, float("inf"), 0, 0.0,
                              diverged=True)
    return ConvergenceRow(method, h, n_steps, res.field.distance(ref_field),
                          res.transform_pairs, wall,
                          norm_drift=res.norm_drift / res.norm_initial)


def _finish(rows, csv_path):
    """Sort a study's rows by method and stepsize and write them to
    ``csv_path``, if given."""
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
