"""Compare `evolve` states of a base revision and the working tree.

Extracts the base revision with ``bench_pairs.extract`` and runs the same
cases on both trees, each in its own Python subprocess importing that
tree's ``src``: every method at theta 0 and 10, on 32^2, 24x20, 16^3 and
24x20x16 grids with half width 8 on every axis and on a 24x20x16 grid with
the unequal, non-dyadic half widths (7.3, 5.1, 4.2), each giving its final
state and a snapshot half-way; the states of one stepper reused over the
steps h, -h, h on each grid; and two runs at the benchmark's sizes (128^2
at theta 100 with bbk+rkn116, 64^3 at theta 0 with cf6af+rkn116), since
whether two states agree bit for bit can depend on the strides.  Prints per
array the largest pointwise difference relative to the largest modulus of
the base state, and whether the two arrays are equal bit for bit.  Exits 1
if any array differs by more than 1e-12.  Run from the repo root, for
example:

    python3 tools/compare_states.py HEAD~1
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, extract  # noqa: E402

TOL = 1e-12

# Runs in the tree under test; uses only names both revisions share.
_CHILD = """
import sys
import numpy as np
from rgpe.integrators import METHODS, evolve, make_stepper
from rgpe.model import Trap, TrapOnGrid, gaussian_state
from rgpe.spectral import Field, Grid

states = {}
for sizes, half_widths in (((32, 32), None), ((24, 20), None),
                           ((16, 16, 16), None), ((24, 20, 16), None),
                           ((24, 20, 16), (7.3, 5.1, 4.2))):
    dim = len(sizes)
    shape = "x".join(map(str, sizes))
    if half_widths:
        shape += " L=" + ",".join(map(str, half_widths))
    grid = Grid(dim, half_widths or (8.0,) * dim, sizes)
    trap = Trap((0.8, 1.2, 1.0)[:dim], 0.5)
    start = Field(grid, gaussian_state(grid, (1.1, 0.9, 1.0)[:dim]), 0.0,
                  "rotating")
    for theta in (0.0, 10.0):
        for method in METHODS:
            res = evolve(start, trap, theta, method, 0.2, 4,
                         snapshot_times=(0.1,))
            key = f"{method} theta={theta:g} {shape}"
            states[key] = res.field.values
            states[key + " t=0.1"] = res.snapshots[0].values
    # one stepper reused over h, -h, h: a per-h phase cache must rebuild
    for theta in (0.0, 10.0):
        step = make_stepper("cf6af+rkn116", TrapOnGrid(trap, grid), theta)
        values = start.values
        for n, h in enumerate((0.05, -0.05, 0.05)):
            values = step(values, 0.05 * (n % 2), h)
            states[f"reused theta={theta:g} {shape} #{n}"] = values
# the benchmark's sizes, whose strides the small grids do not have
for method, theta, sizes, t_final, n_steps in (
        ("bbk+rkn116", 100.0, (128, 128), 0.02, 4),
        ("cf6af+rkn116", 0.0, (64, 64, 64), 2 / 64, 2)):
    dim = len(sizes)
    grid = Grid(dim, (8.0,) * dim, sizes)
    start = Field(grid, gaussian_state(grid, (1.1, 0.9, 1.0)[:dim]), 0.0,
                  "rotating")
    res = evolve(start, Trap((0.8, 1.2, 1.0)[:dim], 0.5), theta, method,
                 t_final, n_steps)
    states[f"{method} theta={theta:g} {'x'.join(map(str, sizes))}"] = \
        res.field.values
np.savez(sys.argv[1], **states)
"""


def run_tree(tree, path):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, "-c", _CHILD, path], env=env, check=True)
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", help="git revision to compare against")
    args = p.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="compare-states-")
    try:
        sha, tree = extract(args.base, scratch)
        base = run_tree(tree, os.path.join(scratch, "base.npz"))
        change = run_tree(ROOT, os.path.join(scratch, "change.npz"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"base {sha[:12]} against the working tree")
    worst = 0.0
    width = max(map(len, base))
    for key, ref in base.items():
        new = change[key]
        rel = float(np.abs(new - ref).max() / np.abs(ref).max())
        worst = max(worst, rel)
        print(f"  {key:{width}s} max rel diff {rel:.2e}  "
              f"array_equal {np.array_equal(new, ref)}")
    ok = worst <= TOL
    print(f"{len(base)} cases, worst {worst:.2e} "
          f"({'within' if ok else 'OVER'} {TOL:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
