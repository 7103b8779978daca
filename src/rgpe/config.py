"""Run configuration: a flat key-value file format and its validation.

A config file is INI-style with a single ``[run]`` section and per-axis
values written as comma- or space-separated lists.  Unknown keys are hard
errors; a typo should never silently fall back to a default.
"""

import configparser
import math
import os
from dataclasses import dataclass, fields, replace
from numbers import Integral
from typing import get_args

from .integrators import method_order, step_grid
from .model import Trap, gaussian_state, vortex_state
from .spectral import Field, Grid

__all__ = ["RunConfig", "parse_config", "write_config", "config_text"]

_DEFAULTS_3D = {"half_widths": (10.0, 10.0, 10.0), "sizes": (64, 64, 64),
                "gammas": (0.8, 1.2, 1.0), "gaussian_weights": (1.1, 0.9, 1.0)}


@dataclass
class RunConfig:
    """Everything one run needs; defaults reproduce the 2-D benchmark.

    The field types are the config file's schema: a ``tuple[T, ...]`` key
    is a list of T.
    """

    dim: int = 2
    half_widths: tuple[float, ...] = (10.0, 10.0)
    sizes: tuple[int, ...] = (64, 64)
    t0: float = 0.0
    t_final: float = 4.0
    n_steps: int = 256
    stepsizes: tuple[float, ...] = ()
    omega: float = 0.5
    gammas: tuple[float, ...] = (0.8, 1.2)
    theta: float = 1.0
    initial_state: str = "gaussian"
    gaussian_weights: tuple[float, ...] = (1.1, 0.9)
    method: str = "cf6af+rkn116"
    reference_method: str = "bbk+rkn116"
    reference_factor: int = 10
    snapshot_times: tuple[float, ...] = ()
    out_dir: str = ""
    seed: int = 1234
    workers: int = 0  # 0 = available parallelism

    def validate(self):
        """Check every setting before any step runs; returns self.  Grid and
        Trap check their own parameters, and ``step_grid`` the steps and
        snapshot times."""
        self._require(float, math.isfinite, "finite")
        # the Gaussian start state squares these values
        if not all(math.isfinite(v * v) for v in self.gaussian_weights):
            raise ValueError(f"gaussian_weights must have finite squares, "
                             f"got {self.gaussian_weights}")
        Grid(self.dim, self.half_widths, self.sizes)
        # after Grid, which owns the sizes' rules, so 8.5 reads as not even
        self._require(int, lambda v: isinstance(v, Integral), "an integer")
        trap = Trap(self.gammas, self.omega)
        if trap.dim != self.dim:
            raise ValueError(f"gammas must list one value per dimension "
                             f"(dim = {self.dim})")
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
        span, angles = self.t_final - self.t0, (trap.angle(self.t0),
                                                 trap.angle(self.t_final))
        if not all(map(math.isfinite, (span, *angles))):
            raise ValueError(f"the time span {span} and the rotation angles "
                             f"omega * t0, omega * t_final {angles} must be "
                             "finite")
        step_grid(self.t0, self.t_final, self.n_steps, self.snapshot_times)
        if any(h <= 0 for h in self.stepsizes):
            raise ValueError("stepsizes must be positive")
        if self.reference_factor < 5:
            raise ValueError("reference_factor must be >= 5 so the reference "
                             "is clearly finer than the finest run")
        for key in ("method", "reference_method"):
            method_order(getattr(self, key))  # raises on unknown descriptors
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        return self

    def _require(self, kind, test, rule):
        """Raise unless ``test`` holds for all items of the ``kind`` fields."""
        for f in fields(self):
            val, item = getattr(self, f.name), get_args(f.type)
            if (item or (f.type,))[0] is kind and not all(
                    map(test, val if item else (val,))):
                raise ValueError(f"{f.name} must be {rule}, got {val}")

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


_SCHEMA = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(kind, text):
    """A config value as the field type ``kind``; lists split on commas or
    whitespace."""
    item = get_args(kind)
    if item:
        return tuple(map(item[0], text.replace(",", " ").split()))
    return kind(text)


def parse_config(path):
    """Read and validate a config file; unknown keys are rejected loudly."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    # no interpolation: a value such as out_dir = runs/50% is taken as written
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
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
        try:
            kw[key] = _parse_value(_SCHEMA[key], text)
        except KeyError:
            raise ValueError(f"{path}: unknown config key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: config key {key!r}: {exc}") from None
    return RunConfig(**kw).validate()


def config_text(cfg):
    """Render the effective configuration back to parseable text."""
    lines = ["[run]"]
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if get_args(f.type):
            val = ", ".join(map(str, val))
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def write_config(cfg, path):
    with open(path, "w") as fh:
        fh.write(config_text(cfg))
