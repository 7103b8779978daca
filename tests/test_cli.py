"""Command-line interface: exit codes, outputs, and bundled configs."""

import os

import pytest

import rgpe.cli
import rgpe.harness
import rgpe.oracle
from rgpe.cli import main
from rgpe.config import parse_config
from rgpe.integrators import METHODS, DivergenceError, method_checksum

TINY_CFG = """\
[run]
dim = 2
half_widths = 3.5, 3.5
sizes = 8, 8
t_final = 0.5
n_steps = 10
theta = 0
method = cf2+strang
reference_method = bbk+rkn116
reference_factor = 5
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


def test_simulate_writes_outputs(tiny_cfg, tmp_path):
    out = str(tmp_path / "out")
    code = main(["--config", tiny_cfg, "--out", out, "simulate",
                 "--snapshot-times", "0.25,0.5"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "final.field"))
    assert os.path.exists(os.path.join(out, "state-t0.25.field"))
    assert os.path.exists(os.path.join(out, "state-t0.5.field"))
    echoed = parse_config(os.path.join(out, "effective-config.cfg"))
    assert echoed.sizes == (8, 8) and echoed.out_dir == out


def test_simulate_reruns_its_effective_config_with_percent(tiny_cfg,
                                                          tmp_path):
    # a % in a value is taken as written, not as configparser interpolation
    out = str(tmp_path / "a%b")
    assert main(["--config", tiny_cfg, "--out", out, "simulate"]) == 0
    echoed = os.path.join(out, "effective-config.cfg")
    assert parse_config(echoed).out_dir == out
    os.remove(os.path.join(out, "final.field"))
    assert main(["--config", echoed, "simulate"]) == 0
    assert os.path.exists(os.path.join(out, "final.field"))


def test_simulate_is_deterministic(tiny_cfg, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["--config", tiny_cfg, "--out", out, "simulate"]) == 0
        with open(os.path.join(out, "final.field"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[run]\ntimestep = 0.1\n")
    assert main(["--config", str(p), "simulate"]) == 2
    assert "timestep" in capsys.readouterr().err


def test_bad_method_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[run]\nmethod = cf9+magic\n")
    assert main(["--config", str(p), "simulate"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "simulate"]) == 2


@pytest.mark.parametrize("text,match", [
    ("theta = nan\n", "theta must be finite"),
    ("omega = inf\n", "omega must be finite"),
    ("half_widths = inf, 10\n", "half_widths must be finite"),
    ("theta = 1\ntheta = 2\n", "syntax error"),
    ("theta\n", "syntax error"),
    ("gammas = 1e200, 1.0\n", "gammas must have finite squares"),
    ("gaussian_weights = 1e155, 1.0\n",
     "gaussian_weights must have finite squares"),
    ("half_widths = 1e308, 10\nsizes = 8, 8\n",
     "grid spacings 2L/M must be positive and finite"),
    ("half_widths = 1e-300, 10\nsizes = 8, 8\n",
     "largest |k|^2 overflows"),
    ("sizes = 8, 5\n", "grid sizes must be even"),
    ("sizes = 8, 8\nn_steps = 2\nomega = 1e308\n",
     "rotation angles omega * t0, omega * t_final (0.0, inf) must be "
     "finite"),
    ("sizes = 8, 8\nn_steps = 2\nt0 = -1e308\nt_final = 1e308\n",
     "the time span inf and the rotation angles"),
    ("sizes = 16, 16\nn_steps = 8\nt_final = 0.4\nsnapshot_times = 0.13\n",
     "step boundary"),
    ("n_steps = abc\n", "config key 'n_steps'"),
    ("sizes = 64.0, 64\n", "config key 'sizes'"),
    ("n_steps = 100000000000000000000\n",
     "below the resolution of the time axis"),
    ("n_steps = 1" + "0" * 400 + "\n",
     "below the resolution of the time axis"),
], ids=["nan-theta", "inf-omega", "inf-half-width", "duplicate-key",
        "no-equals", "overflowing-gamma", "overflowing-gaussian-weight",
        "overflowing-spacing", "overflowing-wavenumber", "odd-size",
        "overflowing-angle", "overflowing-span", "off-grid-snapshot",
        "non-integer-steps", "float-size", "unresolved-step",
        "overflowing-step-count"])
def test_invalid_config_exits_2(tmp_path, capsys, text, match):
    p = tmp_path / "bad.cfg"
    p.write_text("[run]\n" + text)
    for command in ("simulate", "converge"):
        assert main(["--config", str(p), "--out", str(tmp_path / "o"),
                     command]) == 2
        assert match in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.field"))
    assert not list(tmp_path.rglob("effective-config.cfg"))


def test_simulate_withholds_dumps_on_norm_drift(tiny_cfg, tmp_path,
                                                 monkeypatch, capsys):
    real_evolve = rgpe.cli.evolve

    def drifting(*a, **k):
        res = real_evolve(*a, **k)
        res.norm_final = res.norm_initial * (1.0 + 1e-6)
        return res

    monkeypatch.setattr(rgpe.cli, "evolve", drifting)
    out = tmp_path / "o"
    code = main(["--config", tiny_cfg, "--out", str(out), "simulate",
                 "--snapshot-times", "0.25,0.5"])
    assert code == 3
    assert "dumps withheld" in capsys.readouterr().err
    assert not list(out.glob("*.field"))


@pytest.mark.parametrize("t_final,times,names", [
    ("1.00002", "1.00001,1.00002",
     ["state-t1.00001.field", "state-t1.00002.field"]),
    ("1.000002", "1.000001,1.000002", None),
    ("1.000002", "1,1.000001", None),
], ids=["distinct", "same-name", "same-name-as-start"])
def test_snapshot_names_never_collide(tmp_path, monkeypatch, capsys,
                                      t_final, times, names):
    # dumps are named with 6 significant digits of their time
    p = tmp_path / "snap.cfg"
    p.write_text(TINY_CFG.replace("t_final = 0.5\nn_steps = 10",
                                  f"t0 = 1\nt_final = {t_final}\nn_steps = 2"))
    real_evolve = rgpe.cli.evolve
    calls = []

    def recording(*a, **k):
        calls.append(a)
        return real_evolve(*a, **k)

    monkeypatch.setattr(rgpe.cli, "evolve", recording)
    out = tmp_path / "o"
    code = main(["--config", str(p), "--out", str(out), "simulate",
                 "--snapshot-times", times])
    dumps = sorted(f.name for f in out.glob("state-*.field"))
    if names is None:
        assert code == 2
        assert "would both be dumped" in capsys.readouterr().err
        assert calls == [] and dumps == []
    else:
        assert code == 0 and dumps == names


def _study_exit(tmp_path, monkeypatch, text, command, *args):
    """Exit code of a study command on config ``text``, and the evolve
    calls it made; real runs go ahead, so only exit 2 records none."""
    calls = []
    real_evolve = rgpe.harness.evolve

    def recording(*a, **k):
        calls.append(a)
        return real_evolve(*a, **k)

    monkeypatch.setattr(rgpe.harness, "evolve", recording)
    p = tmp_path / "study.cfg"
    p.write_text(text)
    code = main(["--config", str(p), "--out", str(tmp_path / "o"), command,
                 *args])
    return code, calls


# a reference of 5e20 steps (or 2e21 for self-convergence's 4 steps) has a
# step size below the resolution of the time axis, as has its self-check
HUGE_FACTOR = TINY_CFG.replace("reference_factor = 5",
                               "reference_factor = 100000000000000000000")


@pytest.mark.parametrize("command", ["converge", "self-converge"])
@pytest.mark.parametrize("methods,steps,text,match", [
    ("cf2+strang,cf9+magic", "2,4,8,16", TINY_CFG, "unknown method"),
    (",", "2,4,8,16", TINY_CFG, "no methods"),
    ("cf2+strang", "0", TINY_CFG, "positive"),
    ("cf2+strang", "8,0", TINY_CFG, "positive"),
    ("cf2+strang,cf2+strang", "2,4,8,16", TINY_CFG, "duplicate methods"),
    ("cf2+strang", "4,8,16,32", HUGE_FACTOR,
     "below the resolution of the time axis"),
], ids=["unknown-method", "no-methods", "zero-steps", "zero-in-list",
        "duplicate-methods", "unresolved-reference"])
def test_bad_study_arguments_exit_2_before_any_run(tmp_path, monkeypatch,
                                                   capsys, command, methods,
                                                   steps, text, match):
    code, calls = _study_exit(tmp_path, monkeypatch, text, command,
                              "--methods", methods, "--steps", steps)
    assert code == 2
    assert match in capsys.readouterr().err
    assert calls == []
    assert not list(tmp_path.rglob("effective-config.cfg"))


@pytest.mark.parametrize("command,steps,match", [
    ("converge", "4,4", "duplicate stepsizes"),
    ("self-converge", "4,8,16", "needs at least 4 stepsizes"),
], ids=["duplicate-steps", "too-few-steps"])
def test_bad_step_lists_exit_2_before_writing(tiny_cfg, tmp_path, capsys,
                                              command, steps, match):
    out = tmp_path / "o"
    code = main(["--config", tiny_cfg, "--out", str(out), command,
                 "--methods", "cf2+strang", "--steps", steps])
    assert code == 2
    assert match in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_stepsize_without_finite_step_count_exits_2(tmp_path, capsys):
    # 1e-320 gives no finite count; 1e-300 gives 5e299 steps of an h the
    # time axis cannot resolve, a run that would never end; a --steps count
    # beyond float range has no float step size at all
    huge = "1" + "0" * 400
    for h, steps, match in (
            ("1e-320", [], "no finite step count"),
            ("1e-300", [], "below the resolution of the time axis"),
            ("0.25", ["--steps", f"4,8,16,{huge}"],
             "below the resolution of the time axis")):
        p = tmp_path / f"tiny-h{h}.cfg"
        p.write_text(TINY_CFG + f"stepsizes = {h}\n")
        for command in ("converge", "self-converge"):
            assert main(["--config", str(p), "--out", str(tmp_path / "o"),
                         command, *steps]) == 2
            assert match in capsys.readouterr().err
    assert not list(tmp_path.rglob("effective-config.cfg"))


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("command", ["converge", "self-converge"])
@pytest.mark.parametrize("key,value", [
    *[("stepsizes", h) for h in ("0", "-0.25", "nan", "inf", "1e-320",
                                 "1e-300", "1e308", "0.3")],
    ("reference_factor", "100000000000000000000"),
    ("reference_factor", _HUGE),
    *[("--steps", n) for n in ("0", "-1", _HUGE, "a")],
    *[("--methods", m) for m in ("", ",", "cf9+magic",
                                 "cf2+strang,cf2+strang")],
], ids=lambda v: {_HUGE: "1e400", "100000000000000000000": "1e20"}.get(v))
def test_study_edge_values_exit_2_before_any_run(tmp_path, monkeypatch,
                                                 capsys, command, key,
                                                 value):
    # one bad value at a time on the tiny config; 0.3 does not divide 0.5
    text, args = TINY_CFG, []
    if key.startswith("--"):
        args = [key, value]
    elif key == "stepsizes":
        text += f"stepsizes = {value}\n"
    else:
        text = text.replace("reference_factor = 5", f"{key} = {value}")
    code, calls = _study_exit(tmp_path, monkeypatch, text, command, *args)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert not list(tmp_path.rglob("effective-config.cfg"))


def test_runtime_error_exits_3(tiny_cfg, tmp_path, monkeypatch, capsys):
    def broken(*a, **k):
        raise RuntimeError("reference self-check failed")
    monkeypatch.setattr(rgpe.harness, "convergence_study", broken)
    code = main(["--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "converge", "--methods", "cf2+strang"])
    assert code == 3
    assert "self-check" in capsys.readouterr().err


def test_divergence_exits_4(tiny_cfg, tmp_path, monkeypatch, capsys):
    def explode(*a, **k):
        raise DivergenceError("norm blew up")
    monkeypatch.setattr("rgpe.cli.evolve", explode)
    code = main(["--config", tiny_cfg, "--out", str(tmp_path / "o"),
                 "simulate"])
    assert code == 4
    assert "blew up" in capsys.readouterr().err


def test_converge_writes_csv(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "conv")
    code = main(["--config", tiny_cfg, "--out", out, "converge",
                 "--methods", "cf2+strang,cf4+rkn74", "--steps", "4,8,16"])
    assert code == 0
    text = capsys.readouterr().out
    assert "reference: bbk+rkn116" in text
    assert text.count("observed order") == 2
    csv_path = os.path.join(out, "convergence.csv")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("method,h,n_steps,l2_error")
    assert len(lines) == 7


def test_self_converge_writes_per_method_csv(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "selfconv")
    code = main(["--config", tiny_cfg, "--out", out, "self-converge",
                 "--methods", "cf2+strang", "--steps", "2,4,8,16"])
    assert code == 0
    assert "self-convergence order" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out,
                                       "self-convergence-cf2-strang.csv"))


def test_list_schemes(capsys):
    assert main(["list-schemes"]) == 0
    text = capsys.readouterr().out
    for m in METHODS:
        assert m in text
        assert method_checksum(m) in text
    assert "splittings:" in text


def test_oracle_check_passes(capsys):
    assert main(["oracle-check"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_gradient_check_passes(capsys):
    for argv in (["gradient-check"], ["--dim", "3", "gradient-check"]):
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text


def test_failed_oracle_figures_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(rgpe.oracle, "local_order_check", lambda: (6.0, 0.0))
    monkeypatch.setattr(rgpe.oracle, "classical_transform_check",
                        lambda trap: (0.0, 0.0))
    monkeypatch.setattr(rgpe.oracle, "gradient_deviation", lambda *a: 1e-3)
    for command in ("oracle-check", "gradient-check"):
        assert main([command]) == 3
        assert "FAIL" in capsys.readouterr().out


def test_bundled_configs_parse():
    configs = os.path.join(os.path.dirname(rgpe.cli.__file__), "configs")
    bench = parse_config(os.path.join(configs, "testequation-2d.cfg"))
    assert bench.sizes == (64, 64) and bench.t_final == 4.0
    assert bench.theta == 1.0 and bench.omega == 0.5
    assert bench.gammas == (0.8, 1.2)
    assert bench.method == "cf6af+rkn116"
    vortex = parse_config(os.path.join(configs, "bec-vortex.cfg"))
    assert vortex.sizes == (128, 128) and vortex.theta == 100.0
    assert vortex.initial_state == "vortex" and vortex.t_final == 15.0
    assert vortex.n_steps == 3000
