"""Convergence studies, CSV output, snapshot dumps, and lab-frame resampling."""

import csv
import math

import numpy as np
import pytest

import rgpe.harness as harness
from rgpe.cli import main
from rgpe.config import RunConfig
from rgpe.harness import (CSV_HEADER, ConvergenceRow, StudyResult,
                          _steps_for, convergence_study, rotate_to_lab,
                          self_convergence, write_rows)
from rgpe.integrators import DivergenceError, pairs_per_step
from rgpe.model import Trap, gaussian_state
from rgpe.oracle import observed_order
from rgpe.spectral import Field, Grid, read_field

TINY = dict(half_widths=(3.5, 3.5), sizes=(8, 8), theta=0.0, t_final=1.0,
            reference_factor=5, reference_method="bbk+rkn116", seed=7)


def test_steps_for_rounds_exactly():
    assert _steps_for(4.0, [0.5, 0.25, 0.125]) == [8, 16, 32]
    # 4/0.8 = 5 despite floating point
    assert _steps_for(4.0, [0.8]) == [5]


def test_steps_for_rejects_non_divisors_and_duplicates():
    with pytest.raises(ValueError, match="does not divide"):
        _steps_for(4.0, [0.3])
    with pytest.raises(ValueError, match="duplicate"):
        _steps_for(4.0, [0.5, 0.5000000001])


def test_convergence_study_small(tmp_path):
    cfg = RunConfig(**TINY)
    csv_path = str(tmp_path / "conv.csv")
    study = convergence_study(cfg, ["cf2+strang"], [0.25, 0.125, 0.0625],
                              csv_path=csv_path)
    assert study.reference_method == "bbk+rkn116"
    assert study.reference_n_steps == 5 * 16
    assert math.isfinite(study.self_check_distance)
    assert study.self_check_distance < 1e-9

    hs, errors = study.errors_for("cf2+strang")
    assert hs == [0.0625, 0.125, 0.25]
    assert all(e > 0 for e in errors)
    assert observed_order(hs, errors) == pytest.approx(2.0, abs=0.3)
    for row in study.rows:
        assert row.transform_pairs == row.n_steps * pairs_per_step(row.method)
        assert 0.0 <= row.norm_drift < 1e-12

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 4
    # full repr round-trip of the error column
    assert [float(r[3]) for r in rows[1:]] == errors


def test_convergence_study_per_method_stepsizes():
    cfg = RunConfig(**TINY)
    study = convergence_study(cfg, ["cf2+strang", "cf4+rkn74"],
                              {"cf2+strang": [0.25, 0.125],
                               "cf4+rkn74": [0.5, 0.25]})
    assert study.self_check_distance < 1e-9
    assert len(study.rows) == 4
    assert study.errors_for("cf4+rkn74")[0] == [0.25, 0.5]
    with pytest.raises(ValueError, match="cover exactly"):
        convergence_study(cfg, ["cf2+strang"], {"cf4+rkn74": [0.25]})


def test_convergence_study_keeps_diverged_rows(tmp_path, monkeypatch):
    cfg = RunConfig(**TINY)
    real_evolve = harness.evolve

    def exploding(start, trap, theta, method, t_final, n_steps, **kw):
        if method == "cf2+strang" and n_steps == 8:
            raise DivergenceError("boom", time=0.5, norm=float("inf"))
        return real_evolve(start, trap, theta, method, t_final, n_steps, **kw)

    monkeypatch.setattr(harness, "evolve", exploding)
    csv_path = str(tmp_path / "div.csv")
    study = convergence_study(cfg, ["cf2+strang"], [0.25, 0.125],
                              csv_path=csv_path)
    bad = [r for r in study.rows if r.diverged]
    assert len(bad) == 1 and bad[0].n_steps == 8
    assert math.isinf(bad[0].l2_error) and bad[0].transform_pairs == 0
    # diverged rows are skipped by errors_for but kept in the CSV
    hs, _ = study.errors_for("cf2+strang")
    assert hs == [0.25]
    with open(csv_path, newline="") as fh:
        recorded = [r[3] for r in csv.reader(fh)][1:]
    assert "inf" in recorded


def test_studies_check_methods_before_any_run(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(a))
    cfg = RunConfig(**TINY)
    with pytest.raises(ValueError, match="unknown method"):
        convergence_study(cfg, ["cf2+strang", "cf9+magic"], [0.25, 0.125])
    with pytest.raises(ValueError, match="no methods"):
        convergence_study(cfg, [], [0.25, 0.125])
    with pytest.raises(ValueError, match="unknown method"):
        self_convergence(cfg, "cf9+magic", [0.5, 0.25, 0.125, 0.0625])
    assert calls == []


def test_errors_for_unknown_method_is_empty():
    study = StudyResult([ConvergenceRow("m", 0.1, 10, 1e-3, 20, 1.0)],
                        "ref", 100, 1.0)
    assert study.errors_for("other") == ([], [])


def test_self_convergence_needs_four_stepsizes():
    cfg = RunConfig(**TINY)
    with pytest.raises(ValueError, match="at least 4"):
        self_convergence(cfg, "cf2+strang", [0.5, 0.25, 0.125])


def test_self_convergence_rows(tmp_path):
    cfg = RunConfig(**TINY)
    csv_path = str(tmp_path / "self.csv")
    rows = self_convergence(cfg, "cf4+rkn74", [0.5, 0.25, 0.125, 0.0625],
                            csv_path=csv_path)
    assert [r.n_steps for r in rows] == [16, 8, 4, 2]
    hs = [r.h for r in rows]
    es = [r.l2_error for r in rows]
    assert observed_order(hs, es) == pytest.approx(4.0, abs=0.4)
    with open(csv_path, newline="") as fh:
        assert len(list(csv.reader(fh))) == 5


def test_write_rows_roundtrips_floats(tmp_path):
    row = ConvergenceRow("cf2+strang", 1.0 / 3.0, 3, 1.2345678901234e-7,
                         6, 12.3456)
    path = str(tmp_path / "rows.csv")
    write_rows([row], path)
    with open(path, newline="") as fh:
        header, data = list(csv.reader(fh))
    assert tuple(header) == CSV_HEADER
    assert float(data[1]) == row.h and float(data[3]) == row.l2_error
    assert data[5] == "12.346"


def test_vortex_run_writes_snapshots(tmp_path):
    cfg = tmp_path / "vortex.cfg"
    cfg.write_text("[run]\ndim = 2\nhalf_widths = 6, 6\nsizes = 32, 32\n"
                   "theta = 1\nt_final = 0.5\nn_steps = 20\n"
                   "initial_state = vortex\nmethod = cf4+rkn74\n"
                   "snapshot_times = 0.25, 0.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    assert sorted(p.name for p in out.glob("state-*")) == [
        "state-t0.25.field", "state-t0.5.field"]
    back = read_field(str(out / "state-t0.5.field"))
    assert back.time == pytest.approx(0.5)
    assert back.frame == "rotating"
    assert back.density().shape == (32, 32)


def test_rotate_to_lab_identity_at_start():
    grid = Grid(2, (8.0, 8.0), (32, 32))
    vals = gaussian_state(grid, (1.1, 0.9))
    field = Field(grid, vals, 0.0, "rotating")
    lab = rotate_to_lab(field, Trap((0.8, 1.2), 0.5))
    assert lab.frame == "lab"
    np.testing.assert_allclose(lab.values, vals, atol=1e-14)


def test_rotate_to_lab_rejects_3d():
    grid = Grid(3, (4.0,) * 3, (8,) * 3)
    field = Field(grid, np.ones(grid.sizes, complex), 0.0, "rotating")
    with pytest.raises(ValueError, match="2-D"):
        rotate_to_lab(field, Trap((0.8, 1.2, 1.0), 0.5))

