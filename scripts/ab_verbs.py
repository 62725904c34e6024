"""Interleaved A/B run of the perfbench verbs on two checkouts.

    python3 scripts/ab_verbs.py BASE [CHANGE] [--workload W ...]
                                [--seed N] [--passes P]

BASE and CHANGE are checkout roots (CHANGE defaults to this one).  Both
checkouts' src/homlie packages are imported into one interpreter, under
the names homlie_base and homlie_change.  Each verb of each workload
(from this checkout's perfbench/workloads.py, which is only read) runs
on both, alternating which one goes first, and its exit code, stdout and
stderr must be identical.  Each pass prints the CPU time of both sides
and their ratio change/base.  After the passes, each workload prints
both sides' op_tail_ms and its ratio, by the benchmark's own rule
(perfbench/run.py's tail of each verb's median wall latency over the
passes), and a line per verb name (argv[0]): the median change/base
ratio of those verbs' median latencies, and on each side how many of
the verbs at or above the op_tail percentile carry the name.  Because
both sides share one process and every verb alternates, a drift in
machine speed between processes does not enter the ratios.  Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cohomology-tables", "operator-routes", "deformation-chain")


def load_module(name: str, path: str, package_dir: str | None = None):
    """Import the file at path as module name (a package if package_dir)."""
    locations = None if package_dir is None else [package_dir]
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(checkout: str, alias: str):
    """homlie.cli of a checkout, imported as the package alias."""
    package_dir = os.path.join(os.path.abspath(checkout), "src", "homlie")
    load_module(alias, os.path.join(package_dir, "__init__.py"), package_dir)
    return importlib.import_module(f"{alias}.cli")


def run_verb(cli, argv: list) -> tuple:
    """(cpu_s, wall_s, exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start, wall = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--json"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return (time.process_time() - start, time.perf_counter() - wall, code,
            out.getvalue(), err.getvalue())


def ab_pass(base, change, verbs: list, parity: int) -> tuple:
    """One pass over verbs: (base cpu_s, change cpu_s, mismatching argv,
    {side: each verb's wall latency})."""
    totals = {"base": 0.0, "change": 0.0}
    latencies = {"base": [], "change": []}
    mismatches = []
    for k, verb in enumerate(verbs):
        order = [("base", base), ("change", change)]
        if (k + parity) % 2:
            order.reverse()
        results = {}
        for side, cli in order:
            cpu, wall, *outcome = run_verb(cli, verb["argv"])
            totals[side] += cpu
            latencies[side].append(wall)
            results[side] = outcome
        if results["base"] != results["change"]:
            mismatches.append(" ".join(verb["argv"]))
    return totals["base"], totals["change"], mismatches, latencies


def per_verb(passes: list) -> list:
    """Each verb's median latency over passes."""
    return [statistics.median(lat) for lat in zip(*passes)]


def op_tail_ms(run, passes: list) -> float:
    """The benchmark's op_tail_ms: run.tail over verbs of each verb's
    median latency over passes."""
    return 1000 * run.tail(per_verb(passes))[1]


def by_verb_name(run, verbs: list, latencies: dict) -> list:
    """Lines of the per-verb-name breakdown: the median change/base
    ratio of the verbs' median latencies, and for each side how many
    verbs at or above its op_tail percentile carry the name."""
    medians = {side: per_verb(lat) for side, lat in latencies.items()}
    names = [verb["argv"][0] for verb in verbs]
    tails = {}
    for side, lat in medians.items():
        label, cut = run.tail(lat)
        tails[side] = label, [n for n, x in zip(names, lat) if x >= cut]
    lines = []
    for name in sorted(set(names)):
        ratios = [c / b for n, b, c in zip(names, medians["base"],
                                           medians["change"]) if n == name]
        counts = ", ".join(f"{side} {tail.count(name)}/{len(tail)} at or "
                           f"above {label}"
                           for side, (label, tail) in tails.items())
        lines.append(f"  {name}: {len(ratios)} verbs, median ratio "
                     f"{statistics.median(ratios):.3f}; tail verbs: {counts}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="checkout root of the base side")
    parser.add_argument("change", nargs="?", default=ROOT,
                        help="checkout root of the change side")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default all three")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)

    workloads = load_module(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    run = load_module(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    base = load_cli(args.base, "homlie_base")
    change = load_cli(args.change, "homlie_change")
    failed = False
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="ab_verbs_") as scratch:
        for workload in args.workload or WORKLOADS:
            directory = os.path.join(scratch, workload)
            verbs = workloads.generate(workload, args.seed, directory)
            os.chdir(directory)
            ratios = []
            latencies = {"base": [], "change": []}
            try:
                for p in range(args.passes):
                    cpu_base, cpu_change, mismatches, walls = ab_pass(
                        base, change, verbs, p)
                    ratios.append(cpu_change / cpu_base)
                    for side, lat in walls.items():
                        latencies[side].append(lat)
                    print(f"{workload} pass {p + 1}: base {cpu_base:.3f} s, "
                          f"change {cpu_change:.3f} s, "
                          f"ratio {ratios[-1]:.3f}")
                    for line in mismatches:
                        print(f"  outputs differ: {line}")
                    failed = failed or bool(mismatches)
            finally:
                os.chdir(home)
            print(f"{workload}: {len(verbs)} verbs, median ratio "
                  f"{statistics.median(ratios):.3f} "
                  f"(min {min(ratios):.3f}, max {max(ratios):.3f})")
            tails = {side: op_tail_ms(run, lat)
                     for side, lat in latencies.items()}
            print(f"{workload}: op_tail_ms base {tails['base']:.3f}, change "
                  f"{tails['change']:.3f}, ratio "
                  f"{tails['change'] / tails['base']:.3f}")
            print("\n".join(by_verb_name(run, verbs, latencies)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
