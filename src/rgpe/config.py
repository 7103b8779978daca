"""Run configuration: a flat key-value file format and its validation.

A config file is INI-style with a single ``[run]`` section and per-axis
values written as comma- or space-separated lists.  Unknown keys are hard
errors; a typo should never silently fall back to a default.
"""

import configparser
import math
import os
from dataclasses import dataclass, fields, replace

from .integrators import method_order
from .model import Trap, gaussian_state, vortex_state
from .spectral import Field, Grid, check_spacings

__all__ = ["RunConfig", "parse_config", "write_config", "config_text"]

_LIST_KEYS = {"half_widths", "sizes", "gammas", "gaussian_weights",
              "stepsizes", "snapshot_times"}
_INT_KEYS = {"dim", "n_steps", "reference_factor", "seed", "workers"}
_FLOAT_KEYS = {"t0", "t_final", "omega", "theta"}
_STR_KEYS = {"initial_state", "method", "reference_method", "out_dir"}
_ALL_KEYS = _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_DEFAULTS_3D = {"half_widths": (10.0, 10.0, 10.0), "sizes": (64, 64, 64),
                "gammas": (0.8, 1.2, 1.0), "gaussian_weights": (1.1, 0.9, 1.0)}


@dataclass
class RunConfig:
    """Everything one run needs; defaults reproduce the 2-D benchmark."""

    dim: int = 2
    half_widths: tuple = (10.0, 10.0)
    sizes: tuple = (64, 64)
    t0: float = 0.0
    t_final: float = 4.0
    n_steps: int = 256
    stepsizes: tuple = ()
    omega: float = 0.5
    gammas: tuple = (0.8, 1.2)
    theta: float = 1.0
    initial_state: str = "gaussian"
    gaussian_weights: tuple = (1.1, 0.9)
    method: str = "cf6af+rkn116"
    reference_method: str = "bbk+rkn116"
    reference_factor: int = 10
    snapshot_times: tuple = ()
    out_dir: str = ""
    seed: int = 1234
    workers: int = 0  # 0 = available parallelism

    def validate(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        for key in sorted(_FLOAT_KEYS | _LIST_KEYS):
            val = getattr(self, key)
            if not all(map(math.isfinite, val if key in _LIST_KEYS
                           else (val,))):
                raise ValueError(f"{key} must be finite, got {val}")
        for key in ("gammas", "gaussian_weights"):
            # the trap and the Gaussian start state square these values
            if not all(math.isfinite(v * v) for v in getattr(self, key)):
                raise ValueError(f"{key} must have finite squares, "
                                 f"got {getattr(self, key)}")
        for key in ("half_widths", "sizes", "gammas"):
            if len(getattr(self, key)) != self.dim:
                raise ValueError(f"{key} must list one value per dimension "
                                 f"(dim = {self.dim})")
        if any(m < 4 or m % 2 for m in self.sizes):
            raise ValueError(f"grid sizes must be even and >= 4, "
                             f"got {self.sizes}")
        check_spacings(tuple(2.0 * L / m
                             for L, m in zip(self.half_widths, self.sizes)))
        if self.initial_state == "gaussian":
            if len(self.gaussian_weights) != self.dim:
                raise ValueError("gaussian_weights must list one value per "
                                 f"dimension (dim = {self.dim})")
        elif self.initial_state == "vortex":
            if self.dim != 2:
                raise ValueError("the vortex initial state is 2-D only")
        else:
            raise ValueError(
                f"unknown initial_state {self.initial_state!r} "
                "(expected 'gaussian' or 'vortex')")
        if not self.t_final > self.t0:
            raise ValueError("t_final must exceed t0")
        span, angles = self.t_final - self.t0, (self.omega * self.t0,
                                                 self.omega * self.t_final)
        if not all(map(math.isfinite, (span, *angles))):
            raise ValueError(f"the time span {span} and the rotation angles "
                             f"omega * t0, omega * t_final {angles} must be "
                             "finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if any(g <= 0 for g in self.gammas):
            raise ValueError("trap frequencies gammas must be positive")
        if any(h <= 0 for h in self.stepsizes):
            raise ValueError("stepsizes must be positive")
        for ts in self.snapshot_times:
            if not (self.t0 <= ts <= self.t_final):
                raise ValueError(f"snapshot time {ts} outside "
                                 f"[{self.t0}, {self.t_final}]")
        if self.reference_factor < 5:
            raise ValueError("reference_factor must be >= 5 so the reference "
                             "is clearly finer than the finest run")
        for key in ("method", "reference_method"):
            method_order(getattr(self, key))  # raises on unknown descriptors
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        return self

    def build(self):
        """Instantiate (grid, trap, initial field) for this configuration."""
        self.validate()
        grid = Grid(self.dim, self.half_widths, self.sizes)
        trap = Trap(self.gammas, self.omega)
        if self.initial_state == "gaussian":
            values = gaussian_state(grid, self.gaussian_weights)
        else:
            values = vortex_state(grid)
        return grid, trap, Field(grid, values, self.t0, "rotating")

    def with_overrides(self, **kw):
        kw = {k: v for k, v in kw.items() if v is not None}
        if kw.get("dim") is not None and kw["dim"] != self.dim:
            if kw["dim"] == 3 and self.dim == 2:
                for key, val in _DEFAULTS_3D.items():
                    kw.setdefault(key, val)
            else:
                raise ValueError("cannot reduce a config to fewer dimensions;"
                                 " provide a config file instead")
        return replace(self, **kw).validate()


def _parse_value(key, text):
    if key in _LIST_KEYS:
        parts = text.replace(",", " ").split()
        return tuple(int(p) if key == "sizes" else float(p) for p in parts)
    if key in _INT_KEYS:
        return int(text)
    if key in _FLOAT_KEYS:
        return float(text)
    return text.strip()


def parse_config(path):
    """Read and validate a config file; unknown keys are rejected loudly."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ValueError(f"{path}: config syntax error: {exc}") from None
    if cp.sections() != ["run"]:
        raise ValueError(f"{path}: expected exactly one [run] section, "
                         f"got {cp.sections()}")
    kw = {}
    for key, text in cp.items("run"):
        if key not in _ALL_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        kw[key] = _parse_value(key, text)
    return RunConfig(**kw).validate()


def config_text(cfg):
    """Render the effective configuration back to parseable text."""
    lines = ["[run]"]
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if f.name in _LIST_KEYS:
            val = ", ".join(repr(v) for v in val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def write_config(cfg, path):
    with open(path, "w") as fh:
        fh.write(config_text(cfg))
