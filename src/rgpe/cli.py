"""Command-line entry point.

Subcommands: simulate, converge, self-converge, oracle-check,
gradient-check, list-schemes.  Exit codes: 0 success, 2 invalid
input/config, 3 runtime failure (including failed checks), 4 divergence.
Input is checked before any step runs.
"""

import argparse
import os
import sys

from . import harness, oracle
from .config import RunConfig, parse_config, write_config
from .integrators import (DivergenceError, METHODS, evolve, method_checksum,
                          method_order, pairs_per_step)
from .model import Trap
from .spectral import write_field
from .splitting import SPLIT_ORDERS, SPLITTINGS

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3
EXIT_DIVERGED = 4


def _load_config(args):
    cfg = parse_config(args.config) if args.config else RunConfig()
    over = {}
    for key in ("theta", "dim", "workers"):
        if getattr(args, key, None) is not None:
            over[key] = getattr(args, key)
    over["out_dir"] = (args.out_dir or cfg.out_dir
                       or os.environ.get("RGPE_OUT", "."))
    if isinstance(getattr(args, "steps", None), int):
        over["n_steps"] = args.steps
    if getattr(args, "snapshot_times", None) is not None:
        over["snapshot_times"] = tuple(
            float(s) for s in args.snapshot_times.split(","))
    return cfg.with_overrides(**over)


def _echo_config(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_config(cfg, os.path.join(cfg.out_dir, "effective-config.cfg"))


def _study(cfg, args, default, self_convergence=False):
    """The study's methods and stepsizes, every run of it checked by
    ``harness.study_runs`` before anything is written."""
    methods = (list(default) if args.methods is None else
               [m.strip() for m in args.methods.split(",") if m.strip()])
    span = cfg.t_final - cfg.t0
    if args.steps is None:
        stepsizes = (list(cfg.stepsizes)
                     or [span / 2 ** m for m in range(4, 10)])
    else:
        counts = [int(s) for s in args.steps.split(",")]
        if min(counts) < 1:
            raise ValueError(f"step counts must be positive, got {args.steps}")
        try:
            stepsizes = [span / n for n in counts]
        except OverflowError:
            raise ValueError("a step count beyond float range has a step "
                             "size below the resolution of the time axis")
    harness.study_runs(cfg, methods, stepsizes, self_convergence)
    return methods, stepsizes


def _snapshot_name(time):
    return f"state-t{time:g}.field"


def _print_order(method, label, hs, es, note=""):
    """Print the order observed over a study's errors es at stepsizes hs."""
    try:
        slope = oracle.observed_order(hs, es, floor=1e-13)
    except ValueError:
        print(f"{method:16s} {label} n/a")
        return
    print(f"{method:16s} {label} {slope:5.2f}{note}")


def cmd_simulate(args):
    cfg = _load_config(args)
    named = {}
    for ts in cfg.snapshot_times:
        other = named.setdefault(_snapshot_name(ts), ts)
        if other != ts:
            raise ValueError(f"snapshot times {other!r} and {ts!r} would both "
                             f"be dumped to {_snapshot_name(ts)}")
    _echo_config(cfg)
    grid, trap, start = cfg.build()
    res = evolve(start, trap, cfg.theta, cfg.method, cfg.t_final, cfg.n_steps,
                 snapshot_times=cfg.snapshot_times,
                 threads=cfg.workers or None)
    drift = res.norm_drift / res.norm_initial
    if not drift < 1e-8:
        # a run that fails unitarity that badly has nothing trustworthy to dump
        raise RuntimeError(f"relative norm drift {drift:.3e} over the run; "
                           "unitarity lost, dumps withheld")
    final_path = os.path.join(cfg.out_dir, "final.field")
    write_field(res.field, final_path)
    for snap in res.snapshots:
        write_field(snap, os.path.join(cfg.out_dir, _snapshot_name(snap.time)))
    print(f"method          {cfg.method}")
    print(f"steps           {res.n_steps} (h = {res.step_size:g})")
    print(f"transform pairs {res.transform_pairs}")
    print(f"norm drift      {res.norm_drift:.3e}")
    print(f"final state     {final_path}")
    return EXIT_OK


def cmd_converge(args):
    cfg = _load_config(args)
    methods, stepsizes = _study(cfg, args, METHODS)
    _echo_config(cfg)
    csv_path = os.path.join(cfg.out_dir, "convergence.csv")
    study = harness.convergence_study(cfg, methods, stepsizes,
                                      csv_path=csv_path)
    print(f"reference: {study.reference_method} at {study.reference_n_steps} "
          f"steps (norm {study.reference_norm:.12g}, self-check "
          f"{study.self_check_distance:.3e})")
    for m in methods:
        _print_order(m, "observed order", *study.errors_for(m))
    print(f"rows written to {csv_path}")
    return EXIT_OK


def cmd_self_converge(args):
    cfg = _load_config(args)
    methods, stepsizes = _study(cfg, args, [cfg.method],
                                self_convergence=True)
    _echo_config(cfg)
    for m in methods:
        csv_path = os.path.join(cfg.out_dir,
                                f"self-convergence-{m.replace('+', '-')}.csv")
        rows = harness.self_convergence(cfg, m, stepsizes, csv_path=csv_path)
        kept = [r for r in rows if not r.diverged]
        _print_order(m, "self-convergence order", [r.h for r in kept],
                     [r.l2_error for r in kept],
                     f" (nominal {method_order(m)})")
    return EXIT_OK


def _check_line(name, value, bound):
    ok = value < bound
    print(f"  {'PASS' if ok else 'FAIL'}  {name}: {value:.3e} "
          f"(require < {bound:g})")
    return ok


def cmd_oracle_check(args):
    print("dense truncated-exponent propagator:")
    slope, gap = oracle.local_order_check()
    ok = [_check_line("local-order slope deviation from 7", abs(slope - 7.0),
                      0.3),
          _check_line("commuting-samples modified-vs-full gap", gap, 1e-13)]
    print("classical two-frame consistency:")
    dev, energy = oracle.classical_transform_check(Trap((0.8, 1.2), 0.5))
    ok += [_check_line("trajectory deviation", dev, 1e-8),
           _check_line("matched-state energy mismatch", energy, 1e-8)]
    print("all checks passed" if all(ok) else "some checks FAILED")
    return EXIT_OK if all(ok) else EXIT_RUNTIME


def cmd_gradient_check(args):
    cfg = _load_config(args)
    worst = oracle.gradient_deviation(Trap(cfg.gammas, cfg.omega), cfg.t0,
                                      cfg.t_final, cfg.seed)
    ok = worst < 1e-6
    print(f"{'PASS' if ok else 'FAIL'}  analytic vs central differences over "
          f"1000 samples: max relative deviation {worst:.3e} (require < 1e-6)")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_list_schemes(args):
    print("method descriptors (outer scheme + splitting):")
    for m in METHODS:
        outer, inner = m.split("+")
        s = len(SPLITTINGS[inner][0])
        print(f"  {m:16s} order {method_order(m)}  "
              f"pairs/step {pairs_per_step(m):3d}  "
              f"splitting stages {s:2d}  checksum {method_checksum(m)}")
    print("splittings:")
    for name in sorted(SPLITTINGS):
        alphas, betas = SPLITTINGS[name]
        print(f"  {name:8s} order {SPLIT_ORDERS[name]}  "
              f"stages {len(alphas):2d}  "
              f"sum(alpha)-1 = {sum(alphas) - 1.0:+.1e}  "
              f"sum(beta)-1 = {sum(betas) - 1.0:+.1e}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="rgpe",
        description="Pseudospectral solver for the rotational "
                    "Gross-Pitaevskii equation in a co-rotating frame")
    p.add_argument("--config", help="path to a [run] config file")
    p.add_argument("--out", dest="out_dir", help="output directory "
                   "(fallback: $RGPE_OUT, then '.')")
    p.add_argument("--theta", type=float, help="override coupling constant")
    p.add_argument("--dim", type=int, choices=(2, 3), help="override "
                   "dimension (2-D configs extend to the 3-D defaults)")
    p.add_argument("--workers", type=int, help="concurrent runs in studies; "
                   "threads per step in simulate (default: the CPUs this "
                   "process may use)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="single evolution with snapshots")
    sp.add_argument("--steps", type=int, help="number of time steps")
    sp.add_argument("--snapshot-times", help="comma-separated times")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("converge", help="error-vs-stepsize study")
    sp.add_argument("--methods", help="comma-separated method descriptors")
    sp.add_argument("--steps", help="comma-separated step counts")
    sp.set_defaults(fn=cmd_converge)

    sp = sub.add_parser("self-converge", help="refinement consistency study")
    sp.add_argument("--methods", help="comma-separated method descriptors")
    sp.add_argument("--steps", help="comma-separated step counts")
    sp.set_defaults(fn=cmd_self_converge)

    sp = sub.add_parser("oracle-check", help="dense and classical oracles")
    sp.set_defaults(fn=cmd_oracle_check)

    sp = sub.add_parser("gradient-check", help="analytic gradient vs "
                        "finite differences")
    sp.set_defaults(fn=cmd_gradient_check)

    sp = sub.add_parser("list-schemes", help="registered schemes and tables")
    sp.set_defaults(fn=cmd_list_schemes)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
