"""Span tracer that attributes time and counts to rgpe's modules from outside.

The tracer rebinds public functions of the package (and ``scipy.fft.fftn`` /
``ifftn``) to wrappers that record one span per call: name, start, end,
parent span and thread, plus a small tag (array size, method, ...) that the
per-layer metrics need.  Nothing under ``src/rgpe`` is changed: a name that a
module imported from another (``from .splitting import potential_flow``) is a
second binding of the same function, so every module attribute that holds
the original object is rebound, and restored on :meth:`Tracer.uninstall`.

Spans are kept in memory; each thread has its own stack, so the worker
threads of a convergence study nest their spans correctly.  A span's self
time is its duration minus the durations of its direct children.
"""

import functools
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import scipy.fft

from rgpe import harness, integrators, model, spectral, splitting

__all__ = ["Tracer", "layer_metrics", "COUNTS"]

# Per-layer metrics that count work; they must repeat exactly between runs.
COUNTS = ("spectral.fft_pairs", "spectral.norm_calls", "spectral.io_bytes",
          "splitting.phase_calls", "model.combination_calls",
          "model.grad_diff_calls", "integrators.steps",
          "integrators.nominal_pairs", "harness.runs")

# A span record is a list: [name, start, end, parent, thread, tag, child_s].
_NAME, _START, _END, _PARENT, _THREAD, _TAG, _CHILD = range(7)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fft_tag(args, kwargs):
    return _arg(args, kwargs, 0, "x").size


def _phase_tag(args, kwargs):
    values = _arg(args, kwargs, 0, "values")
    return values.size, bool(_arg(args, kwargs, 3, "theta", 0.0))


def _evolve_tag(args, kwargs):
    return _arg(args, kwargs, 3, "method"), _arg(args, kwargs, 5, "n_steps")


def _io_tag(args, kwargs):
    return _arg(args, kwargs, 1, "path")


# (owner, attribute, span name, tag).  Module-level functions are rebound in
# every rgpe module that holds them; methods are rebound on their class.
_TARGETS = (
    (scipy.fft, "fftn", "spectral.fftn", _fft_tag),
    (scipy.fft, "ifftn", "spectral.ifftn", _fft_tag),
    (spectral, "kinetic_flow", "spectral.kinetic", None),
    (spectral.Grid, "kinetic_phase", "spectral.kinetic_phase", None),
    (spectral.Grid, "l2_norm", "spectral.norm", None),
    (spectral, "write_field", "spectral.io", _io_tag),
    (splitting, "potential_flow", "splitting.phase", _phase_tag),
    (splitting, "apply_splitting", "splitting.apply", None),
    (model, "nonlinearity", "model.nonlinearity", None),
    (model.TrapOnGrid, "combination", "model.combination", None),
    (model.TrapOnGrid, "gradient_difference_sq", "model.grad_diff", None),
    (integrators, "evolve", "integrators.evolve", _evolve_tag),
    (harness, "convergence_study", "harness.study", None),
)


class Tracer:
    """Records spans while installed; ``spans`` is cleared by ``reset``."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._saved = []

    def wrap(self, fn, name, tag=None):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, threading.get_ident(),
                    tag(args, kwargs) if tag else None, 0.0]
            stack.append(span)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += span[_END] - span[_START]
                spans.append(span)

        return traced

    def _rebind(self, owner, attr, new):
        old = getattr(owner, attr)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [mod for key, mod in list(sys.modules.items())
                        if (key == "rgpe" or key.startswith("rgpe."))
                        and mod is not owner
                        and getattr(mod, attr, None) is old]
        for holder in holders:
            self._saved.append((holder, attr, old))
            setattr(holder, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, tag in _TARGETS:
            self._rebind(owner, attr,
                         self.wrap(getattr(owner, attr), name, tag))
        make_stepper = integrators.make_stepper

        def traced_make_stepper(method, trap_grid, theta):
            pairs = integrators.pairs_per_step(method)
            return self.wrap(make_stepper(method, trap_grid, theta),
                             "integrators.step", lambda a, k: pairs)

        self._rebind(integrators, "make_stepper", traced_make_stepper)

    def uninstall(self):
        for holder, attr, old in reversed(self._saved):
            setattr(holder, attr, old)
        self._saved = []

    def reset(self):
        self.spans.clear()

    def export(self):
        """Spans as JSON-ready rows: name, start, end, parent row, thread,
        tag, with times in seconds from the first span's start."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s[_START] for s in self.spans), default=0.0)
        return [[s[_NAME], s[_START] - t0, s[_END] - t0,
                 index.get(id(s[_PARENT])) if s[_PARENT] else None,
                 s[_THREAD], s[_TAG]] for s in self.spans]


def _fft_flops(n):
    """Computed cost of one complex transform of n points: 5 n log2 n."""
    return 5.0 * n * math.log2(n)


# Computed real operations per grid point of one potential phase, counting
# cos/sin (inside exp) as one operation each: |u|^2 (3), theta * rho (1),
# potential + (1), scale by tau (1), exp (2), complex multiply (6).
_PHASE_FLOPS = {True: 14, False: 9}
# Arrays of complex128 size touched per transform (read input, write output)
# and per phase (read potential and state, write the result).
_FFT_ARRAYS = 2
_PHASE_ARRAYS = 3


def layer_metrics(spans, workers=1, reference=None):
    """Per-layer counts, self times and computed kernel costs of one op.

    ``spans`` are the raw records of one traced operation.  Times are self
    times in seconds; ``*_est`` values are computed from array sizes, not
    measured.  ``reference`` is the (method, n_steps) of a study's
    reference run, whose duration is reported as ``harness.ref_s``.
    """
    count = defaultdict(int)
    self_s = defaultdict(float)
    for s in spans:
        count[s[_NAME]] += 1
        self_s[s[_NAME]] += s[_END] - s[_START] - s[_CHILD]

    transforms = [s[_TAG] for s in spans
                  if s[_NAME] in ("spectral.fftn", "spectral.ifftn")]
    fft_flops = sum(_fft_flops(n) for n in transforms)
    fft_bytes = sum(_FFT_ARRAYS * 16.0 * n for n in transforms)
    phases = [s[_TAG] for s in spans if s[_NAME] == "splitting.phase"]
    phase_flops = sum(_PHASE_FLOPS[nonlinear] * n for n, nonlinear in phases)
    phase_bytes = sum(_PHASE_ARRAYS * 16.0 * n for n, _ in phases)
    steps = [s for s in spans if s[_NAME] == "integrators.step"]
    step_ms = [1e3 * (s[_END] - s[_START]) for s in steps]
    nominal = sum(s[_TAG] for s in steps)
    pairs = (count["spectral.fftn"] + count["spectral.ifftn"]) / 2
    io_paths = {s[_TAG] for s in spans if s[_NAME] == "spectral.io"}
    io_size = {p: os.path.getsize(p) for p in io_paths}
    runs = [s for s in spans if s[_NAME] == "integrators.evolve"
            and s[_PARENT] is None]
    studies = [s for s in spans if s[_NAME] == "harness.study"]
    run_s = [s[_END] - s[_START] for s in runs]
    study_s = sum(s[_END] - s[_START] for s in studies)

    def ratio(a, b):
        return a / b if b else 0.0

    def percentile(xs, decile):
        if len(xs) < 2:
            return sum(xs)
        return statistics.quantiles(xs, n=10)[decile - 1]

    return {
        "spectral.fft_pairs": pairs,
        "spectral.fft_s": self_s["spectral.fftn"] + self_s["spectral.ifftn"],
        "spectral.kinetic_s": self_s["spectral.kinetic"],
        "spectral.kinetic_phase_s": self_s["spectral.kinetic_phase"],
        "spectral.norm_calls": count["spectral.norm"],
        "spectral.norm_s": self_s["spectral.norm"],
        "spectral.io_bytes": sum(io_size[s[_TAG]] for s in spans
                                 if s[_NAME] == "spectral.io"),
        "spectral.io_s": self_s["spectral.io"],
        "spectral.fft_flop_est": fft_flops,
        "spectral.fft_bytes_est": fft_bytes,
        "spectral.fft_ops_per_byte_est": ratio(fft_flops, fft_bytes),
        "splitting.phase_calls": count["splitting.phase"],
        "splitting.phase_s": self_s["splitting.phase"],
        "splitting.phase_flop_est": phase_flops,
        "splitting.phase_bytes_est": phase_bytes,
        "splitting.phase_ops_per_byte_est": ratio(phase_flops, phase_bytes),
        "splitting.apply_s": self_s["splitting.apply"],
        "model.combination_calls": count["model.combination"],
        "model.combination_s": self_s["model.combination"],
        "model.grad_diff_calls": count["model.grad_diff"],
        "model.grad_diff_s": self_s["model.grad_diff"],
        "model.nonlinearity_s": self_s["model.nonlinearity"],
        "integrators.steps": len(steps),
        "integrators.nominal_pairs": nominal,
        "integrators.pair_ratio": ratio(pairs, nominal),
        "integrators.evolve_self_s": self_s["integrators.evolve"],
        "integrators.step_ms_p50": percentile(step_ms, 5),
        "integrators.step_ms_p90": percentile(step_ms, 9),
        "harness.runs": len(runs) if studies else 0,
        "harness.ref_s": sum((t for s, t in zip(runs, run_s)
                              if s[_TAG] == reference), 0.0),
        "harness.critical_path_s": max(run_s) if studies else 0.0,
        "harness.pool_busy_frac": (ratio(sum(run_s), study_s * workers)
                                   if studies else 0.0),
    }

