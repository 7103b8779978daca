"""The benchmark's workloads: seeded inputs, set-up, the timed operation and
the correctness gates that every operation must pass.

Each workload is a closed loop in one process: the next operation starts
when the previous one has finished.  The benchmark generates every input
from the seed (a config file and, for the vortex, the start field) and calls
the library's public functions in the order ``rgpe simulate`` and
``rgpe converge`` call them.
"""

import os
import time

import numpy as np

import rgpe
from rgpe import config, harness, integrators, spectral
from rgpe.model import TrapOnGrid

__all__ = ["WORKLOADS", "REVERSAL_BOUND", "REFERENCE_TOL", "set_up",
           "reversal_error", "observables", "compare"]

_CONFIGS = os.path.join(os.path.dirname(rgpe.__file__), "configs")
# Relative return error of one step forward and one back (criterion 9).
REVERSAL_BOUND = 1e-10
# Tolerance of the reference gate, in units of |b| + state norm: the
# relative bound for hot-path rework.
REFERENCE_TOL = 1e-12


class Setup:
    """What set-up produces and every operation reuses."""

    def __init__(self, cfg, grid, trap, start):
        self.cfg = cfg
        self.grid = grid
        self.trap = trap
        self.start = start

    @property
    def step_size(self):
        return (self.cfg.t_final - self.cfg.t0) / self.cfg.n_steps


class Workload:
    """One named workload.  ``params`` sizes it; ``quick`` shrinks it for
    the benchmark's self-test."""

    name = ""
    defaults = {}
    quick_params = {}
    drift_bound = 1e-10  # relative norm drift (criterion 5)
    scale_key = "norm2"  # the observable that sets the reference scale

    def __init__(self, **params):
        self.params = {**self.defaults, **params}

    def quick(self):
        return type(self)(**{**self.params, **self.quick_params})

    @property
    def reference_key(self):
        """Where this size's data sits in ``reference.json``."""
        return self.name + ("" if self.params == self.defaults else ":quick")

    def config(self, seed):
        """The generated RunConfig for ``seed``."""
        raise NotImplementedError

    def start(self, field, seed):
        """The start field; by default the one the config builds."""
        return field

    def reversal_methods(self, s):
        """The methods the reversibility gate steps, and the step size."""
        return [s.cfg.method], s.step_size

    def reference(self, cfg):
        """(method, n_steps) of a study's reference run, if there is one."""
        return None

    def write_config(self, seed, out_dir):
        path = os.path.join(out_dir, f"{self.name}-seed{seed}.cfg")
        config.write_config(self.config(seed), path)
        return path


class _EvolveWorkload(Workload):
    """A single propagation, as ``rgpe simulate`` runs it."""

    def run(self, s, out_dir):
        cfg = s.cfg
        return integrators.evolve(s.start, s.trap, cfg.theta, cfg.method,
                                  cfg.t_final, cfg.n_steps,
                                  snapshot_times=cfg.snapshot_times)

    def gates(self, res):
        drift = res.norm_drift / res.norm_initial
        return {"norm_drift": drift}, drift < self.drift_bound

    def observables(self, res, s):
        return observables(res.field, s.start)


def _widths(rng, dim):
    return tuple(float(w) for w in rng.uniform(0.85, 1.15, dim))


class Vortex(_EvolveWorkload):
    name = "vortex-128"
    defaults = {"sizes": (128, 128), "steps": 40, "h": 0.005}
    quick_params = {"sizes": (32, 32), "steps": 4}
    drift_bound = 1e-8

    def config(self, seed):
        p = self.params
        cfg = config.parse_config(os.path.join(_CONFIGS, "bec-vortex.cfg"))
        t_final = p["steps"] * p["h"]
        return cfg.with_overrides(sizes=tuple(p["sizes"]), t_final=t_final,
                                  n_steps=p["steps"],
                                  snapshot_times=(0.0, 0.5 * t_final,
                                                  t_final))

    def start(self, field, seed):
        """The central vortex of ``vortex_state`` with its core moved by a
        seeded offset of at most 0.25 per axis."""
        a, b = np.random.default_rng(seed).uniform(-0.25, 0.25, 2)
        x1, x2 = field.grid.coordinates()
        psi = ((x1 - a) + 1j * (x2 - b)) * np.exp(-0.5 * (x1 * x1 + x2 * x2)) \
            / np.sqrt(np.pi)
        return spectral.Field(field.grid, psi, field.time, field.frame)

    def run(self, s, out_dir):
        res = super().run(s, out_dir)
        spectral.write_field(res.field, os.path.join(out_dir, "final.field"))
        for snap in res.snapshots:
            spectral.write_field(snap, os.path.join(
                out_dir, f"state-t{snap.time:g}.field"))
        return res


class Linear3D(_EvolveWorkload):
    name = "linear-3d"
    defaults = {"sizes": (64, 64, 64), "steps": 2, "h": 1.0 / 64}
    quick_params = {"sizes": (16, 16, 16), "steps": 1}

    def config(self, seed):
        p = self.params
        rng = np.random.default_rng(seed)
        return config.RunConfig().with_overrides(
            dim=3, sizes=tuple(p["sizes"]), theta=0.0, method="cf6af+rkn116",
            t_final=p["steps"] * p["h"], n_steps=p["steps"],
            gaussian_weights=_widths(rng, 3))


class Converge(Workload):
    name = "converge-64"
    defaults = {"sizes": (64, 64), "half_widths": (10.0, 10.0),
                "t_final": 2.0, "steps": (4, 8, 16),
                "methods": ("cf2+strang", "bbk+strang", "cf6af+rkn116",
                            "bbk+rkn116")}
    quick_params = {"sizes": (16, 16), "half_widths": (5.0, 5.0),
                    "t_final": 0.25, "steps": (2, 4)}
    scale_key = "reference_norm"

    def config(self, seed):
        p = self.params
        rng = np.random.default_rng(seed)
        cfg = config.parse_config(os.path.join(_CONFIGS,
                                               "testequation-2d.cfg"))
        span = p["t_final"] - cfg.t0
        return cfg.with_overrides(
            sizes=tuple(p["sizes"]), half_widths=tuple(p["half_widths"]),
            t_final=p["t_final"], gaussian_weights=_widths(rng, 2),
            stepsizes=tuple(span / n for n in p["steps"]),
            workers=len(os.sched_getaffinity(0)))

    def reversal_methods(self, s):
        return list(self.params["methods"]), min(s.cfg.stepsizes)

    def reference(self, cfg):
        """(method, n_steps) of the study's reference run."""
        n_max = max(round((cfg.t_final - cfg.t0) / h) for h in cfg.stepsizes)
        return cfg.reference_method, cfg.reference_factor * n_max

    def run(self, s, out_dir):
        cfg = s.cfg
        return harness.convergence_study(
            cfg, list(self.params["methods"]), list(cfg.stepsizes),
            workers=cfg.workers,
            csv_path=os.path.join(out_dir, "convergence.csv"))

    def gates(self, study):
        drift = max(r.norm_drift for r in study.rows)
        diverged = sum(r.diverged for r in study.rows)
        ok = (not diverged and drift < self.drift_bound
              and study.self_check_distance < 1e-9)
        return {"norm_drift": drift, "diverged_rows": diverged,
                "self_check": study.self_check_distance}, ok

    def observables(self, study, s):
        out = {"reference_norm": study.reference_norm}
        for r in study.rows:
            out[f"l2_error:{r.method}:{r.n_steps}"] = r.l2_error
        return out


WORKLOADS = {w.name: w for w in (Vortex(), Converge(), Linear3D())}


def set_up(workload, cfg_path, seed):
    """Parse the generated config, build, and take one warm-up step on the
    same grid, so that the Fourier-phase cache is full.  Returns the Setup
    and the seconds each part took.

    A convergence study builds fresh grids for every run, so for
    ``converge-64`` the warm-up primes nothing that the timed study reuses:
    there ``setup_s`` holds the import, parse and build, plus one step that
    no later run benefits from, and every phase-cache fill lands in
    ``wall_s``."""
    clock = time.perf_counter
    t0 = clock()
    cfg = config.parse_config(cfg_path)
    t1 = clock()
    grid, trap, start = cfg.build()
    start = workload.start(start, seed)
    t2 = clock()
    s = Setup(cfg, grid, trap, start)
    integrators.evolve(start, trap, cfg.theta, cfg.method,
                       cfg.t0 + s.step_size, 1)
    t3 = clock()
    return s, {"parse_s": t1 - t0, "build_s": t2 - t1, "warmup_s": t3 - t2}


def reversal_error(workload, s):
    """Worst relative return error of one step forward and one back."""
    methods, h = workload.reversal_methods(s)
    tg = TrapOnGrid(s.trap, s.grid)
    values = s.start.values
    scale = s.grid.l2_norm(values)
    worst = 0.0
    for method in methods:
        step = integrators.make_stepper(method, tg, s.cfg.theta)
        back = step(step(values.copy(), s.cfg.t0, h), s.cfg.t0 + h, -h)
        worst = max(worst, s.grid.l2_norm(back - values) / scale)
    return worst


def observables(field, start):
    """Final-state observables: norm, second moments in position and
    wavenumber, overlap with the start state and peak density."""
    grid = field.grid
    dv = grid.cell_volume
    rho = field.density()
    xs = grid.coordinates()
    out = {"norm2": float(rho.sum() * dv), "max_density": float(rho.max())}
    for ax, x in enumerate(xs):
        out[f"x{ax + 1}_sq"] = float((x * x * rho).sum() * dv)
    out["x1x2"] = float((xs[0] * xs[1] * rho).sum() * dv)
    ksq = 0.0
    for ax, k in enumerate(grid.wavenumbers):
        shape = [1] * grid.dim
        shape[ax] = k.size
        ksq = ksq + (k * k).reshape(shape)
    spec = np.abs(np.fft.fftn(field.values)) ** 2
    out["k_sq"] = float((ksq * spec).sum() * dv / spec.size)
    overlap = np.vdot(start.values, field.values) * dv
    out["overlap_re"] = float(overlap.real)
    out["overlap_im"] = float(overlap.imag)
    return out


def compare(values, reference):
    """Largest |a - b| / (REFERENCE_TOL (|b| + scale)) over the stored
    observables b; the gate passes below 1.  ``scale`` is the stored state
    norm."""
    if sorted(values) != sorted(reference["values"]):
        return float("inf")
    scale = reference["values"][reference["scale_key"]]
    return max(abs(values[k] - b) / (REFERENCE_TOL * (abs(b) + scale))
               for k, b in reference["values"].items())
