"""Alternating before/after runs of the benchmark, summarised in BENCH_<n>.json.

Runs ``perfbench/run.py`` on two trees: a base revision, extracted with
``git archive`` into a temporary directory, and the working tree (or, with
``--change``, a second extracted revision).  For each
workload it runs N pairs, alternating which side goes first, and records per
side and metric the median and quartiles, and per metric the number of pairs
the working tree won and whether that meets the rule for claiming a gain
(:func:`claim`).  Run from the repo root, for example:

    python3 tools/bench_pairs.py --number <n> --base <rev> --pairs 10 \\
        --workloads linear-3d --seed 0 --seconds 30 --trace 0

Results are merged into ``BENCH_<number>.json`` at the repo root under the
key ``<workload>-seed<seed>-trace<trace>``, followed by ``-<label>`` if
``--label`` is given, so separate invocations (other workloads, seeds, the
traced runs or other revisions) add to one file.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def extract(rev, dest):
    """Write the tree of ``rev`` into ``dest``; returns its full sha."""
    sha = _git("rev-parse", rev)
    os.makedirs(dest, exist_ok=True)
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, sha],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "tree"), filter="data")
    os.remove(archive)
    return sha, os.path.join(dest, "tree")


def run_once(tree, workload, seed, seconds, trace):
    """One benchmark run in ``tree``; returns its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def bench(trees, workload, seed, seconds, trace, pairs, better):
    """Alternate the two sides for ``pairs`` pairs of one workload."""
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds,
                                       trace))
        print(f"{workload} pair {i + 1}/{pairs} done", file=sys.stderr)
    names = list(runs["base"][0]["metrics"])
    entry = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": trace, "pairs": pairs}
    for side, results in runs.items():
        entry[side] = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {m: summarise([r["metrics"][m]["value"]
                                      for r in results]) for m in names}}
    entry["claim"] = {}
    for m in names:
        sign = 1.0 if better.get(m, "lower") == "lower" else -1.0
        wins = sum(
            sign * c["metrics"][m]["value"] < sign * b["metrics"][m]["value"]
            for b, c in zip(runs["base"], runs["change"]))
        base = entry["base"]["metrics"][m]
        change = entry["change"]["metrics"][m]
        change["ratio_to_base_median"] = (change["median"] / base["median"]
                                          if base["median"] else None)
        gap = sign * (base["median"] - change["median"])
        entry["claim"][m] = claim(wins, pairs, gap, base["q3"] - base["q1"])
    return entry


def claim(wins, pairs, gap, spread):
    """The rule for claiming a gain: the change wins at least nine tenths of
    the pairs (ties count for neither) and its median is better than the
    base's by more than the base's quartile spread.  ``gap`` is the
    median improvement, positive when the change is better."""
    return {"wins": wins, "pairs": pairs, "median_gap": gap,
            "base_spread": spread,
            "met": 10 * wins >= 9 * pairs and gap > spread}


def environment(base_sha, change_sha=None):
    import numpy
    import scipy

    return {"base_sha": base_sha,
            "change_sha": change_sha or _git("rev-parse", "HEAD"),
            "change_dirty": change_sha is None and bool(
                _git("status", "--porcelain", "--untracked-files=no")),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--number", type=int, required=True,
                   help="write BENCH_<number>.json")
    p.add_argument("--base", default="HEAD",
                   help="git revision to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", default=None,
                   help="comma-separated names (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--change", default=None,
                   help="git revision to run as the change side "
                        "(default: the working tree)")
    p.add_argument("--label", default="",
                   help="suffix for this run's key in the record")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    record = {"runs": {}}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        base_sha, base_tree = extract(args.base, os.path.join(scratch, "b"))
        change_sha, change_tree = None, ROOT
        if args.change:
            change_sha, change_tree = extract(args.change,
                                              os.path.join(scratch, "c"))
        trees = {"base": base_tree, "change": change_tree}
        suffix = f"-{args.label}" if args.label else ""
        for w in workloads:
            entry = bench(trees, w, args.seed, args.seconds, args.trace,
                          args.pairs, better)
            entry["environment"] = environment(base_sha, change_sha)
            record["runs"][f"{w}-seed{args.seed}-trace{args.trace}{suffix}"] \
                = entry
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
