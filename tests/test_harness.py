"""Convergence studies, CSV output and snapshot dumps."""

import csv
import math

import pytest

import rgpe.harness as harness
from rgpe.cli import main
from rgpe.config import RunConfig
from rgpe.harness import (CSV_HEADER, ConvergenceRow, StudyResult,
                          _steps_for, convergence_study, self_convergence,
                          study_runs, write_rows)
from rgpe.integrators import DivergenceError, pairs_per_step
from rgpe.oracle import observed_order
from rgpe.spectral import read_field

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
    for h in (1e-320, 0.0):
        with pytest.raises(ValueError, match="no finite step count"):
            _steps_for(4.0, [h])


def test_pool_size_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert harness._pool_size(RunConfig()) == 1
    assert harness._pool_size(RunConfig(workers=3)) == 3
    assert harness._pool_size(RunConfig(), requested=4) == 4
    # without an affinity call, every CPU counts
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    assert harness._pool_size(RunConfig()) == 2


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
            raise DivergenceError("boom")
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


@pytest.mark.parametrize("diverging", [4, 20], ids=["run", "reference"])
def test_self_convergence_keeps_diverged_rows(tmp_path, monkeypatch, capsys,
                                              diverging):
    # the 4-step run is checked against a 5 * 4 = 20-step reference
    cfg = RunConfig(**TINY)
    real_evolve = harness.evolve

    def exploding(start, trap, theta, method, t_final, n_steps, **kw):
        if n_steps == diverging:
            raise DivergenceError("boom")
        return real_evolve(start, trap, theta, method, t_final, n_steps, **kw)

    monkeypatch.setattr(harness, "evolve", exploding)
    rows = self_convergence(cfg, "cf4+rkn74", [0.5, 0.25, 0.125, 0.0625])
    bad = [r for r in rows if r.diverged]
    assert len(bad) == 1 and bad[0].n_steps == 4
    assert math.isinf(bad[0].l2_error) and bad[0].transform_pairs == 0
    assert all(math.isfinite(r.l2_error) for r in rows if not r.diverged)

    # the command fits its order over the three rows that did not diverge
    path = tmp_path / "tiny.cfg"
    path.write_text("[run]\nhalf_widths = 3.5, 3.5\nsizes = 8, 8\n"
                    "theta = 0\nt_final = 1\nreference_factor = 5\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "self-converge", "--methods", "cf4+rkn74",
                 "--steps", "2,4,8,16"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("cf4+rkn74") and line.endswith("(nominal 4)")
    kept = [r for r in rows if not r.diverged]
    slope = observed_order([r.h for r in kept], [r.l2_error for r in kept],
                           floor=1e-13)
    assert f"self-convergence order {slope:5.2f} (nominal 4)" in line


def test_self_convergence_raises_other_failures(monkeypatch):
    # a reference that fails otherwise than by diverging is not hidden by
    # the divergence of its run
    real_evolve = harness.evolve

    def failing(start, trap, theta, method, t_final, n_steps, **kw):
        if n_steps == 4:
            raise DivergenceError("boom")
        if n_steps == 20:
            raise RuntimeError("reference failed")
        return real_evolve(start, trap, theta, method, t_final, n_steps, **kw)

    monkeypatch.setattr(harness, "evolve", failing)
    with pytest.raises(RuntimeError, match="reference failed"):
        self_convergence(RunConfig(**TINY), "cf4+rkn74",
                         [0.5, 0.25, 0.125, 0.0625])


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
    with pytest.raises(ValueError, match="duplicate methods"):
        convergence_study(cfg, ["cf2+strang", "cf4+rkn74", "cf2+strang"],
                          [0.25, 0.125])
    # rows that would run, but a reference of 4e21 steps (8e21 for its
    # self-check) and self-convergence references of 2e20 steps and more
    # have step sizes below the resolution of the time axis
    huge = RunConfig(**dict(TINY, reference_factor=10 ** 20))
    with pytest.raises(ValueError, match="below the resolution"):
        convergence_study(huge, ["cf2+strang"], [0.5, 0.25])
    with pytest.raises(ValueError, match="below the resolution"):
        self_convergence(huge, "cf2+strang", [0.5, 0.25, 0.125, 0.0625])
    assert calls == []


def test_study_runs_lists_every_run_once():
    cfg = RunConfig(**TINY)
    ref = ("bbk+rkn116", 80)
    assert list(study_runs(cfg, ["cf4+rkn74", "cf2+strang"],
                           [0.0625, 0.25]).items()) == [
        (ref, ("bbk+rkn116", 160)),
        (("cf4+rkn74", 4), ref), (("cf4+rkn74", 16), ref),
        (("cf2+strang", 4), ref), (("cf2+strang", 16), ref)]
    per_method = study_runs(cfg, ["cf2+strang", "cf4+rkn74"],
                            {"cf4+rkn74": [0.5], "cf2+strang": [0.125]})
    assert list(per_method) == [("bbk+rkn116", 40), ("cf2+strang", 8),
                                ("cf4+rkn74", 2)]
    assert study_runs(cfg, ["cf2+strang"], [0.5, 0.25, 0.125, 0.1],
                      self_convergence=True) == {
        ("cf2+strang", n): ("cf2+strang", 5 * n) for n in (2, 4, 8, 10)}
    # the row counts are checked before the self-convergence length rule
    with pytest.raises(ValueError, match="does not divide"):
        study_runs(cfg, ["cf2+strang"], [0.3], self_convergence=True)
    with pytest.raises(ValueError, match="at least 4"):
        study_runs(cfg, ["cf2+strang"], [0.5], self_convergence=True)


def test_self_convergence_runs_a_shared_run_once(monkeypatch):
    # with 2 and 10 steps, the 2-step row's 10-step reference is a row too
    cfg = RunConfig(**TINY)
    real_evolve = harness.evolve
    counts = []

    def counting(start, trap, theta, method, t_final, n_steps, **kw):
        counts.append(n_steps)
        return real_evolve(start, trap, theta, method, t_final, n_steps, **kw)

    monkeypatch.setattr(harness, "evolve", counting)
    rows = self_convergence(cfg, "cf2+strang", [0.5, 0.25, 0.125, 0.1])
    assert sorted(counts) == [2, 4, 8, 10, 20, 40, 50]
    assert [r.n_steps for r in rows] == [10, 8, 4, 2]


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

