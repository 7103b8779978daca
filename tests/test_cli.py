"""Command-line interface: exit codes, outputs, and bundled configs."""

import os

import pytest

import rgpe.cli
import rgpe.harness
from rgpe.cli import _bundled, main
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
], ids=["nan-theta", "inf-omega", "inf-half-width", "duplicate-key",
        "no-equals"])
def test_invalid_config_exits_2(tmp_path, capsys, text, match):
    p = tmp_path / "bad.cfg"
    p.write_text("[run]\n" + text)
    assert main(["--config", str(p), "--out", str(tmp_path / "o"),
                 "simulate"]) == 2
    err = capsys.readouterr().err
    assert match in err
    assert not list(tmp_path.rglob("*.field"))


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


@pytest.mark.parametrize("command", ["converge", "self-converge"])
@pytest.mark.parametrize("methods,steps,match", [
    ("cf2+strang,cf9+magic", "2,4,8,16", "unknown method"),
    (",", "2,4,8,16", "no methods"),
    ("cf2+strang", "0", "positive"),
    ("cf2+strang", "8,0", "positive"),
], ids=["unknown-method", "no-methods", "zero-steps", "zero-in-list"])
def test_bad_study_arguments_exit_2_before_any_run(tiny_cfg, tmp_path,
                                                   monkeypatch, capsys,
                                                   command, methods, steps,
                                                   match):
    calls = []
    monkeypatch.setattr(rgpe.harness, "evolve",
                        lambda *a, **k: calls.append(a))
    code = main(["--config", tiny_cfg, "--out", str(tmp_path / "o"), command,
                 "--methods", methods, "--steps", steps])
    assert code == 2
    assert match in capsys.readouterr().err
    assert calls == []


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
        raise DivergenceError("norm blew up", time=0.5, norm=float("inf"))
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
    assert main(["gradient-check"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_bundled_configs_parse():
    bench = parse_config(_bundled("testequation-2d.cfg"))
    assert bench.sizes == (64, 64) and bench.t_final == 4.0
    assert bench.theta == 1.0 and bench.omega == 0.5
    assert bench.gammas == (0.8, 1.2)
    assert bench.method == "cf6af+rkn116"
    vortex = parse_config(_bundled("bec-vortex.cfg"))
    assert vortex.sizes == (128, 128) and vortex.theta == 100.0
    assert vortex.initial_state == "vortex" and vortex.t_final == 15.0
    assert vortex.n_steps == 3000
