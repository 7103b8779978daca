"""Self-test of the benchmark at quick size; checks no times.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

IMPORT_S = run.import_rgpe()

import workloads  # noqa: E402
from tracer import COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(run.REFERENCE) as _fh:
    REFERENCE = json.load(_fh)["workloads"]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Per workload: one untraced and two traced quick runs."""
    out = str(tmp_path_factory.mktemp("bench"))
    return {name: [run.run_workload(w.quick(), run.DEFAULT_SEED, 0.0, trace,
                                    out, IMPORT_S)
                   for trace in (False, True, True)]
            for name, w in WORKLOADS.items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_reported_with_its_unit(records, name):
    for record in records[name]:
        line = run.summary(record, BENCH)
        wanted = BENCH["per_layer" if record["trace"] else "end_to_end"]
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 2
        assert len(record["setups"]) == run.SETUP_CHILDREN + 1
        assert {m["name"]: m["unit"] for m in wanted} == \
            {k: v["unit"] for k, v in line["metrics"].items()}
        for v in line["metrics"].values():
            assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_executed_pairs_are_nominal(records, name):
    first, second = (r["metrics"] for r in records[name][1:])
    for key in COUNTS:
        assert first[key] == second[key], key
    assert first["integrators.steps"] > 0
    assert first["spectral.fft_pairs"] == first["integrators.nominal_pairs"]
    assert first["integrators.pair_ratio"] == 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_default_seed_passes_the_reference_gate(records, name):
    for record in records[name]:
        assert all(op["ok"] and op["reference"] < 1.0
                   for op in record["ops"])
        assert record["checks"]["reversal_ok"]


@pytest.mark.parametrize("name", ["vortex-128", "linear-3d"])
def test_perturbed_state_fails_the_reference_gate(tmp_path, name):
    w = WORKLOADS[name].quick()
    cfg_path = w.write_config(run.DEFAULT_SEED, str(tmp_path))
    s, _ = workloads.set_up(w, cfg_path, run.DEFAULT_SEED)
    reference = REFERENCE[w.reference_key]
    res = w.run(s, str(tmp_path))
    assert workloads.compare(w.observables(res, s), reference) < 1.0
    res.field.values *= 1.0 + 1e-9
    assert workloads.compare(w.observables(res, s), reference) > 1.0


def test_perturbed_error_table_fails_the_reference_gate():
    reference = REFERENCE[WORKLOADS["converge-64"].quick().reference_key]
    values = dict(reference["values"])
    assert workloads.compare(values, reference) == 0.0
    key = next(k for k in values if k.startswith("l2_error"))
    values[key] += 1e-9
    assert workloads.compare(values, reference) > 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "vortex-128", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
