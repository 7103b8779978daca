"""Benchmark of rgpe: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vortex-128 --seed 0 --seconds 30 \\
        --trace 0

``BENCHMARK.json`` at the root names the workloads and the metrics.  With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_mem_mb``); with
``--trace 1`` it holds the per-layer metrics.

* ``setup_s``: import of rgpe, config parse, ``build()`` and one warm-up step
  on the same grid.  Taken once in this process and twice more in child
  processes, so that each sample pays its own import; the median is
  reported.
* ``wall_s``: wall time of one operation (one run or one study), tracing
  off: the upper quartile over the operations that fit in ``--seconds``.
  On a shared machine the fast operations are the ones that found the
  co-tenants idle; the upper quartile is the time under load, and it
  repeated from run to run more closely than the median did (quartile
  spread over ten seeds 0.075 against 0.20 on ``vortex-128``).
* ``peak_mem_mb``: peak resident memory of this process, read right after
  the timed loop.  Every operation repeats the same work and set-up samples
  that pay a fresh import run in their own processes, so the figure is the
  peak of one operation plus the interpreter, not an accumulation.

With ``--trace 1`` operations alternate untraced and traced.  The per-layer
figures are medians per operation over the traced ones, and
``trace.overhead_frac`` is the traced ``wall_s`` over the untraced one,
minus 1.  The in-process set-up is traced as well, because its warm-up step
fills the Fourier-phase cache: ``spectral.kinetic_phase_s`` is the
set-up's ``kinetic_phase`` self time plus one operation's.  (The set-up
times in that run's record then include the tracer; ``setup_s`` is
reported from untraced runs only.)  Every operation must pass its
workload's gates (norm drift, study self-check, and for the default seed
the stored reference data); one that fails or raises counts as failed.  One step forward and back must return
the start state (criterion 9); that check counts as one more operation.

A run record (parameters, environment, every sample and gate value) and the
spans of the last traced operation are written to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_CHILDREN = 2
# Array libraries get one thread each, so the process never runs more
# compute threads than the study's pool, which has one worker per CPU.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


def import_rgpe():
    """Import rgpe from this checkout's ``src``; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "rgpe", "__init__.py")):
        raise BenchError(f"no rgpe sources under {SRC}")
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, SRC)
    tic = time.perf_counter()
    import rgpe
    import rgpe.harness  # noqa: F401  (the study workload's entry point)
    took = time.perf_counter() - tic
    if os.path.dirname(os.path.abspath(rgpe.__file__)) != \
            os.path.join(SRC, "rgpe"):
        raise BenchError(f"rgpe imported from {rgpe.__file__}, not {SRC}")
    return took


def _probe_setup(workload, cfg_path, seed):
    """One set-up sample in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload.name, "--seed", str(seed), "--probe-setup", cfg_path]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _environment():
    import numpy
    import scipy

    sha = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "rgpe")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
            "machine": platform.machine()}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _upper_quartile(xs):
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=4)[2]


def run_workload(workload, seed, seconds, trace, out_dir, import_s):
    """Set up, run the timed loop and the gates; returns the run record.

    ``import_s`` is the time this process took to import rgpe; it is part of
    the in-process set-up sample."""
    from tracer import COUNTS, Tracer, layer_metrics
    from workloads import compare, reversal_error, set_up, REVERSAL_BOUND

    os.makedirs(out_dir, exist_ok=True)
    cfg_path = workload.write_config(seed, out_dir)
    setups = [_probe_setup(workload, cfg_path, seed)
              for _ in range(SETUP_CHILDREN)]
    tracer = Tracer() if trace else None
    if trace:
        tracer.install()
    try:
        s, timing = set_up(workload, cfg_path, seed)
    finally:
        if trace:
            tracer.uninstall()
    setups.append({"import_s": import_s, **timing})
    setup_phase_s = (layer_metrics(tracer.spans)["spectral.kinetic_phase_s"]
                     if trace else 0.0)

    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE) as fh:
            reference = json.load(fh)["workloads"].get(workload.reference_key)
        if reference is None:
            raise BenchError(f"no reference data for {workload.reference_key}")

    walls = {False: [], True: []}
    layers = []
    ops = []
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        for traced in ((False, True) if trace else (False,)):
            record = {"traced": traced}
            if traced:
                tracer.reset()
                tracer.install()
            tic = clock()
            try:
                result = workload.run(s, out_dir)
            except (RuntimeError, AssertionError) as exc:
                record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
                ops.append(record)
                continue
            finally:
                wall = clock() - tic
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            gates, ok = workload.gates(result)
            if reference is not None:
                gates["reference"] = compare(
                    workload.observables(result, s), reference)
                ok = ok and gates["reference"] < 1.0
            record.update(wall_s=wall, ok=bool(ok), **gates)
            if traced:
                layers.append(layer_metrics(tracer.spans, s.cfg.workers or 1,
                                            workload.reference(s.cfg)))
            ops.append(record)
        if clock() >= deadline:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    reversal = reversal_error(workload, s)
    checks = {"reversal": reversal, "reversal_ok": reversal < REVERSAL_BOUND}
    failed = sum(not op["ok"] for op in ops) + (not checks["reversal_ok"])

    metrics = {
        "setup_s": _median([sum(x.values()) for x in setups]),
        "wall_s": _upper_quartile(walls[False]),
        "peak_mem_mb": peak_mb,
    }
    if trace:
        counts = [[m[k] for k in COUNTS] for m in layers]
        checks["counts_repeat"] = all(c == counts[0] for c in counts)
        failed += not checks["counts_repeat"]
        for key in layers[0] if layers else ():
            metrics[key] = _median([m[key] for m in layers])
        metrics["spectral.kinetic_phase_s"] = (
            setup_phase_s + metrics.get("spectral.kinetic_phase_s", 0.0))
        metrics["config.parse_s"] = _median([x["parse_s"] for x in setups])
        metrics["trace.overhead_frac"] = (
            _upper_quartile(walls[True]) / _upper_quartile(walls[False]) - 1.0
            if walls[True] and walls[False] else 0.0)
        with open(os.path.join(out_dir, f"{workload.name}-seed{seed}"
                               "-spans.json"), "w") as fh:
            json.dump(tracer.export(), fh, separators=(",", ":"))

    return {
        "workload": workload.name, "params": workload.params, "seed": seed,
        "seconds": seconds, "trace": trace, "environment": _environment(),
        "attempted": len(ops) + 1, "failed": failed, "checks": checks,
        "setups": setups, "ops": ops, "per_op_layers": layers,
        "metrics": metrics,
    }


def summary(record, bench):
    """The result line: the end-to-end metrics, or with tracing the
    per-layer ones, each with the unit BENCHMARK.json gives it."""
    wanted = bench["per_layer" if record["trace"] else "end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", metavar="CFG",
                   help=argparse.SUPPRESS)  # one set-up sample, for a child
    args = p.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        import_s = import_rgpe()
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, set_up

    workload = WORKLOADS[args.workload]
    if args.probe_setup:
        _, timing = set_up(workload, args.probe_setup, args.seed)
        print(json.dumps({"import_s": import_s, **timing}))
        return 0

    record = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          OUT, import_s)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**record, "benchmark": bench}, fh, indent=1)
    print(json.dumps(summary(record, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
