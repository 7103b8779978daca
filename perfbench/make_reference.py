"""Regenerate ``perfbench/reference.json``, the default-seed reference data.

    python3 perfbench/make_reference.py

For every workload, at full size and at the self-test's quick size, this
runs one operation on the default seed and stores its observables: for a
single run the final-state observables, for a study its error table and
reference norm.  It records the commit and source digest they came from.

Tolerances are measured, not guessed.  The operation is repeated under two
perturbations at the level of roundoff that a reworked hot path would
introduce:

* every n-dimensional FFT computed as 1-D transforms from the last axis to
  the first, which reorders the additions inside the transform;
* for single runs, the start state multiplied by 1 + 1e-15 noise.

The gate compares each value b as |a - b| <= REFERENCE_TOL (|b| + scale),
where scale is the state's norm (squared norm of a single run, reference
norm of a study): relative for values of the order of the state, and
absolute at the state's scale for values near zero, such as a small cross
moment or the error of a fine step, whose roundoff is that of the states
they are computed from.  The largest deviation seen in these units is
stored as ``measured_deviation``.  The tolerance is the fixed 1e-12 of
hot-path rework; if a measured deviation comes within a factor of 10 of it,
the script stops and writes nothing, since the gate would then reject
roundoff.
"""

import json
import os
import sys
from contextlib import contextmanager

from run import DEFAULT_SEED, OUT, REFERENCE, _environment, import_rgpe

import_rgpe()

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402

from rgpe import spectral  # noqa: E402
from workloads import REFERENCE_TOL, WORKLOADS, set_up  # noqa: E402

# A measured deviation must stay this many times below the tolerance.
MARGIN = 10.0


@contextmanager
def reordered_fft():
    """n-D transforms as 1-D passes from the last axis to the first."""
    saved = scipy.fft.fftn, scipy.fft.ifftn

    def axiswise(fn1):
        def transform(x):
            out = x
            for ax in reversed(range(np.ndim(x))):
                out = fn1(out, axis=ax)
            return out
        return transform

    scipy.fft.fftn = axiswise(scipy.fft.fft)
    scipy.fft.ifftn = axiswise(scipy.fft.ifft)
    try:
        yield
    finally:
        scipy.fft.fftn, scipy.fft.ifftn = saved


def _noisy(field, seed=1):
    rng = np.random.default_rng(seed)
    noise = 1e-15 * rng.standard_normal(field.values.shape)
    return spectral.Field(field.grid, field.values * (1.0 + noise),
                          field.time, field.frame)


def measure(workload, out_dir):
    cfg_path = workload.write_config(DEFAULT_SEED, out_dir)
    s, _ = set_up(workload, cfg_path, DEFAULT_SEED)
    base = workload.observables(workload.run(s, out_dir), s)
    variants = []
    with reordered_fft():
        variants.append(workload.observables(workload.run(s, out_dir), s))
    if workload.reference(s.cfg) is None:  # a study builds its own start
        start = s.start
        s.start = _noisy(start)
        variants.append(workload.observables(workload.run(s, out_dir), s))
        s.start = start
    scale = base[workload.scale_key]
    dev = max(abs(v[k] - base[k]) / (abs(base[k]) + scale)
              for v in variants for k in base)
    return {"values": base, "scale_key": workload.scale_key,
            "measured_deviation": dev}


def main():
    out_dir = os.path.join(OUT, "reference")
    os.makedirs(out_dir, exist_ok=True)
    data = {"seed": DEFAULT_SEED, "environment": _environment(),
            "workloads": {}}
    for workload in WORKLOADS.values():
        for w in (workload, workload.quick()):
            entry = data["workloads"][w.reference_key] = measure(w, out_dir)
            dev = entry["measured_deviation"]
            print(w.reference_key, dev, file=sys.stderr)
            if MARGIN * dev >= REFERENCE_TOL:
                sys.exit(f"{w.reference_key}: roundoff deviation {dev:.3g} "
                         f"is within a factor {MARGIN:g} of the reference "
                         f"tolerance {REFERENCE_TOL:g}")
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
