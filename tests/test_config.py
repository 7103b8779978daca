"""Config parsing, validation, and round-tripping."""

import numpy as np
import pytest

from rgpe.config import RunConfig, parse_config, write_config


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_parse_minimal(tmp_path):
    cfg = parse_config(_write(tmp_path, """\
[run]
theta = 10
n_steps = 128
method = bbk+rkn116
"""))
    assert cfg.theta == 10.0
    assert cfg.n_steps == 128
    assert cfg.method == "bbk+rkn116"
    # untouched keys keep the benchmark defaults
    assert cfg.dim == 2 and cfg.sizes == (64, 64)
    assert cfg.gammas == (0.8, 1.2) and cfg.omega == 0.5


def test_parse_lists_with_commas_or_spaces(tmp_path):
    cfg = parse_config(_write(tmp_path, """\
[run]
dim = 3
half_widths = 8, 8, 12
sizes = 32 32 64
gammas = 0.8, 1.2, 1.0
gaussian_weights = 1.1 0.9 1.0
"""))
    assert cfg.half_widths == (8.0, 8.0, 12.0)
    assert cfg.sizes == (32, 32, 64)


def test_unknown_key_is_named_in_error(tmp_path):
    with pytest.raises(ValueError, match="timestep"):
        parse_config(_write(tmp_path, "[run]\ntimestep = 0.1\n"))


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_config("/nonexistent/run.cfg")


def test_wrong_section(tmp_path):
    with pytest.raises(ValueError, match="run"):
        parse_config(_write(tmp_path, "[simulation]\ntheta = 1\n"))


@pytest.mark.parametrize("text", [
    "[run]\ntheta = 1\ntheta = 2\n",
    "[run]\ntheta = 1\n[run]\n",
    "[run]\ntheta\n",
    "theta = 1\n",
], ids=["duplicate-key", "duplicate-section", "no-equals", "no-section"])
def test_syntax_errors_are_value_errors(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(ValueError, match="syntax error") as exc:
        parse_config(path)
    assert path in str(exc.value)


def test_dimension_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError, match="gammas"):
        parse_config(_write(tmp_path, "[run]\ngammas = 0.8, 1.2, 1.0\n"))


def test_roundtrip(tmp_path):
    cfg = RunConfig(theta=10.0, n_steps=500, method="cf4+rkn74",
                    snapshot_times=(1.0, 2.0), out_dir="out")
    path = str(tmp_path / "echo.cfg")
    write_config(cfg, path)
    assert parse_config(path) == cfg


def test_percent_in_a_value_round_trips(tmp_path):
    # configparser's default interpolation would reject a bare %
    assert parse_config(_write(tmp_path, "[run]\nout_dir = runs/50%\n")
                        ).out_dir == "runs/50%"
    cfg = RunConfig(out_dir="runs/50%/a%(b)s")
    path = str(tmp_path / "echo.cfg")
    write_config(cfg, path)
    assert parse_config(path) == cfg


@pytest.mark.parametrize("text", ["n_steps = abc", "sizes = 64.0, 64",
                                  "theta = one"])
def test_unparseable_value_names_key_and_path(tmp_path, text):
    path = _write(tmp_path, f"[run]\n{text}\n")
    key = text.split()[0]
    with pytest.raises(ValueError, match=f"config key '{key}'") as exc:
        parse_config(path)
    assert path in str(exc.value)


def test_numpy_integers_validate_and_round_trip(tmp_path):
    cfg = RunConfig(sizes=(np.int64(8), np.int32(8)), n_steps=np.int64(4),
                    t_final=0.5).validate()
    path = str(tmp_path / "echo.cfg")
    write_config(cfg, path)
    assert parse_config(path) == cfg


def test_with_overrides_to_3d_fills_defaults():
    cfg = RunConfig().with_overrides(dim=3)
    assert cfg.dim == 3
    assert cfg.sizes == (64, 64, 64)
    assert cfg.gammas == (0.8, 1.2, 1.0)
    with pytest.raises(ValueError, match="fewer dimensions"):
        cfg.with_overrides(dim=2)


def test_with_overrides_ignores_none():
    cfg = RunConfig().with_overrides(theta=None, n_steps=64)
    assert cfg.theta == 1.0 and cfg.n_steps == 64


@pytest.mark.parametrize("kw,match", [
    (dict(t_final=0.0), "t_final"),
    (dict(n_steps=0), "n_steps"),
    (dict(reference_factor=2), "reference_factor"),
    (dict(workers=-1), "workers"),
    (dict(method="cf8+magic"), "unknown method"),
    (dict(gammas=(0.8, -1.2)), "positive"),
    (dict(stepsizes=(0.1, -0.2)), "stepsizes"),
    (dict(snapshot_times=(9.0,)), "snapshot"),
    (dict(initial_state="soliton"), "initial_state"),
    (dict(dim=4), "dim"),
    (dict(theta=float("nan")), "theta must be finite"),
    (dict(omega=float("inf")), "omega must be finite"),
    (dict(half_widths=(float("inf"), 10.0)), "half_widths must be finite"),
    (dict(gammas=(0.8, float("nan"))), "gammas must be finite"),
    (dict(t0=float("-inf")), "t0 must be finite"),
    (dict(gammas=(1e200, 1.0)), "gammas must have finite squares"),
    (dict(gaussian_weights=(1e155, 1.0)),
     "gaussian_weights must have finite squares"),
    (dict(half_widths=(1e308, 10.0), sizes=(8, 8)),
     "grid spacings 2L/M must be positive and finite"),
    (dict(half_widths=(1e-300, 10.0), sizes=(8, 8)),
     r"largest \|k\|\^2 overflows"),
    (dict(sizes=(8, 5)), "grid sizes must be even"),
    (dict(omega=1e308), r"omega \* t_final \(0\.0, inf\) must be finite"),
    (dict(omega=1e300, t0=-1e10), r"omega \* t_final \(-inf, 4e\+300\)"),
    (dict(t0=-1e308, t_final=1e308), "the time span inf and"),
    (dict(sizes=(16, 16), n_steps=8, t_final=0.4, snapshot_times=(0.13,)),
     "step boundary"),
    (dict(sizes=(8.5, 8)), "grid sizes must be even"),
    (dict(sizes=(8.0, 8.0)), r"sizes must be an integer, got \(8\.0, 8\.0\)"),
    (dict(n_steps=4.0), "n_steps must be an integer"),
    (dict(workers=1.5), "workers must be an integer"),
])
def test_validate_rejects(kw, match):
    with pytest.raises(ValueError, match=match):
        RunConfig(**kw).validate()


def test_vortex_requires_2d():
    with pytest.raises(ValueError, match="vortex"):
        RunConfig(initial_state="vortex").with_overrides(dim=3)


def test_build_produces_consistent_objects():
    grid, trap, field = RunConfig(initial_state="vortex", theta=100.0).build()
    assert grid.dim == 2 and trap.dim == 2
    assert field.frame == "rotating" and field.time == 0.0
    assert field.norm() == pytest.approx(1.0, abs=1e-10)
