"""Convergence studies and self-convergence.

Errors are absolute discrete L2 errors at the final time against a refined
reference: one per convergence study, checked against a twice-finer run,
and one per row in a self-convergence study.  Work is reported in transform pairs (one forward
plus one inverse FFT), a run's being its step count times its method's fixed
``pairs_per_step``; wall time is recorded for curiosity but is
machine-dependent and never part of any assertion.  Every run a study
makes, its reference and self-check included, is listed and checked by
:func:`study_runs` before any run starts.  In both studies a run that
diverges, or whose reference diverges, is kept as a row with an infinite
error, never dropped.  Only a convergence study's shared reference and its
self-check run abort the study, with :class:`DivergenceError`, if they
diverge.
"""

import csv
import itertools
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .integrators import (DivergenceError, evolve, method_order,
                          process_cpus, step_grid)

__all__ = ["ConvergenceRow", "StudyResult", "study_runs",
           "convergence_study", "self_convergence", "write_rows",
           "CSV_HEADER"]

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


def study_runs(cfg, methods, stepsizes, self_convergence=False):
    """Every run of a study as ``{row: run it is measured against}``.

    Runs are ``(method, n_steps)`` pairs.  ``stepsizes`` is either a list
    shared by all methods or a mapping from method name to its own list.  A
    convergence study's first entry is its reference, ``cfg.reference_method``
    at ``cfg.reference_factor`` times the largest row count, measured against
    the twice-finer self-check; its rows follow method by method in
    ascending step count, each against that reference.  A self-convergence
    row is measured against its method at ``cfg.reference_factor`` times its
    steps.  Every count passes through ``step_grid``, so a bad method,
    stepsize, reference or self-check raises ``ValueError`` here, before any
    run starts.
    """
    if not methods:
        raise ValueError("no methods requested")
    for m in methods:
        method_order(m)  # raises on unknown descriptors
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate methods in the study")
    if not isinstance(stepsizes, dict):
        stepsizes = dict.fromkeys(methods, stepsizes)
    span = cfg.t_final - cfg.t0
    counts = {m: sorted(_steps_for(span, hs)) for m, hs in stepsizes.items()}
    if sorted(counts) != sorted(methods):
        raise ValueError("per-method stepsizes must cover exactly the "
                         "requested methods")
    factor = cfg.reference_factor
    if self_convergence:
        runs = {(m, n): (m, factor * n) for m in methods for n in counts[m]}
    else:
        ref = (cfg.reference_method, factor * max(map(max, counts.values())))
        runs = {ref: (ref[0], 2 * ref[1])}
        runs.update(((m, n), ref) for m in methods for n in counts[m])
    for _, n in itertools.chain(*runs.items()):  # before the length rule
        step_grid(cfg.t0, cfg.t_final, n)
    if self_convergence and min(map(len, counts.values())) < 4:
        raise ValueError("self-convergence needs at least 4 stepsizes")
    return runs


def _submit(pool, cfg, runs):
    """Start each distinct run of ``runs`` once, in the order listed;
    returns the futures of :func:`_run_one` by run."""
    return {run: pool.submit(_run_one, cfg, *run)
            for run in dict.fromkeys(itertools.chain(*runs.items()))}


def _rows(cfg, runs, futs):
    """The study rows of ``runs``, (row, run it is measured against) pairs
    whose futures are ``futs``."""
    span = cfg.t_final - cfg.t0
    return [_row(m, span / n, n, futs[(m, n)], futs[against])
            for (m, n), against in runs]


def _run_one(cfg, method, n_steps):
    grid, trap, start = cfg.build()
    tic = time.perf_counter()
    # one thread per run: the pool already runs one run per CPU
    res = evolve(start, trap, cfg.theta, method, cfg.t_final, n_steps,
                 threads=1)
    return res, (time.perf_counter() - tic) * 1e3


def _pool_size(cfg, requested=None):
    return requested or cfg.workers or process_cpus()


def convergence_study(cfg, methods, stepsizes, workers=None, csv_path=None):
    """Run every (method, stepsize) pair against one refined reference.

    ``stepsizes`` is either a list shared by all methods or a mapping from
    method name to its own list.  The reference is ``cfg.reference_method``
    at the finest requested stepsize divided by ``cfg.reference_factor``,
    cross-checked against a twice-finer run before any error is trusted
    (:func:`study_runs`).
    """
    runs = study_runs(cfg, methods, stepsizes)
    (ref_run, check_run), *jobs = runs.items()

    with ThreadPoolExecutor(max_workers=_pool_size(cfg, workers)) as pool:
        futs = _submit(pool, cfg, runs)
        ref = futs[ref_run].result()[0]
        check_distance = ref.field.distance(futs[check_run].result()[0].field)
        # no study row below 1e-9 is ever trusted, so the reference pair must
        # agree below that floor.  The pair cannot agree to machine precision:
        # over tens of thousands of steps the runs accumulate FFT roundoff,
        # which strong coupling then stretches (measured 1.7e-11 at theta = 0
        # and 1.7e-10 at theta = 10 on the 64^2 benchmark), so a tighter
        # bound would reject healthy references.
        if not check_distance < 1e-9:
            raise RuntimeError(
                f"reference self-check failed: {ref_run[0]} at "
                f"{ref_run[1]} and {check_run[1]} steps differ by "
                f"{check_distance:.3e} (>= 1e-9); the study cannot be "
                f"trusted at this resolution")

        rows = _rows(cfg, jobs, futs)
    return StudyResult(_finish(rows, csv_path), ref_run[0], ref_run[1],
                       ref.norm_final, check_distance)


def self_convergence(cfg, method, stepsizes, csv_path=None):
    """Error of a method against itself at a tenfold-refined stepsize.

    The nonlinear regime has no dense oracle; consistency under refinement
    is the substitute.
    """
    runs = study_runs(cfg, [method], stepsizes, self_convergence=True)
    with ThreadPoolExecutor(max_workers=_pool_size(cfg)) as pool:
        rows = _rows(cfg, runs.items(), _submit(pool, cfg, runs))
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
