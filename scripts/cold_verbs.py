"""Cold-process A/B run of one perfbench workload on two checkouts.

    python3 scripts/cold_verbs.py BASE [CHANGE] --workload W
                                  [--seed N] [--pairs P]

BASE and CHANGE are checkout roots (CHANGE defaults to this one).
perfbench runs every pass in a fresh interpreter, so what a process
pays once (building the parser, filling first-call caches) lands on the
first verbs of each pass.  ab_verbs.py runs both sides in one process
and cannot see it; this script can.  Each pass is a fresh interpreter
that imports homlie.cli from one checkout's src/, as perfbench's set-up
does, then runs every verb of the workload once through cli.main with
--json, timed as ab_verbs.py times it (the verbs come from this
checkout's perfbench/workloads.py, which is only read).  The import is
timed on its own: it is the part of perfbench's setup_s that the
package controls (with PYTHONDONTWRITEBYTECODE=1 and no bytecode cache
it includes compiling the package).  It runs P pairs of passes, one per
side, and the side that goes first alternates from pair to pair.  Each
verb's exit code, stdout and stderr must be identical on both sides.
For each side it prints the median over passes of the import, of the
first verb's latency and of the sum of a pass, and op_tail_ms by
perfbench/run.py's rule: the tail over verbs of each verb's median
latency, followed by the verb that sets it; then the ratios
change/base.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from ab_verbs import ROOT, WORKLOADS, load_module, run_verb


def child(checkout: str, verbs_path: str) -> dict:
    """One cold pass: the import of homlie.cli, each verb's wall latency
    and a digest of its exit code, stdout and stderr."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import homlie.cli as cli
    imported = time.perf_counter() - start

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"homlie was imported from {where}, not {src}")
    with open(verbs_path, encoding="utf-8") as handle:
        verbs = json.load(handle)
    latencies, outputs = [], []
    for argv in verbs:
        _, wall, *outcome = run_verb(cli, argv)
        latencies.append(wall)
        outputs.append(hashlib.sha256(
            json.dumps(outcome).encode()).hexdigest())
    return {"import": imported, "latencies": latencies, "outputs": outputs}


def cold_pass(checkout: str, verbs_path: str, directory: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), checkout, "--child",
         verbs_path], cwd=directory, capture_output=True, text=True,
        timeout=600, check=False)
    if done.returncode:
        raise RuntimeError(f"cold pass on {checkout} failed:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="checkout root of the base side")
    parser.add_argument("change", nargs="?", default=ROOT,
                        help="checkout root of the change side")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--child", metavar="VERBS_JSON",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.base, args.child)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workloads = load_module(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    run = load_module(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    passes = {"base": [], "change": []}
    differ = 0
    with tempfile.TemporaryDirectory(prefix="cold_verbs_") as scratch:
        directory = os.path.join(scratch, args.workload)
        verbs = workloads.generate(args.workload, args.seed, directory)
        verbs_path = os.path.join(scratch, "verbs.json")
        with open(verbs_path, "w", encoding="utf-8") as handle:
            json.dump([verb["argv"] for verb in verbs], handle)
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else [
                "change", "base"]
            for side in order:
                passes[side].append(
                    cold_pass(sides[side], verbs_path, directory))
            outputs = [passes[side][-1]["outputs"] for side in sides]
            for k, (a, b) in enumerate(zip(*outputs)):
                if a != b:
                    differ += 1
                    print(f"  outputs differ: {' '.join(verbs[k]['argv'])}")
    print(f"{args.workload}: {len(verbs)} verbs, {args.pairs} pairs, "
          f"{'outputs identical' if not differ else f'{differ} differ'}")
    summary = {}
    for side, runs in passes.items():
        lat = [r["latencies"] for r in runs]
        per_verb = [statistics.median(v) for v in zip(*lat)]
        tail = run.tail(per_verb)[1]
        summary[side] = (1000 * statistics.median(r["import"] for r in runs),
                         1000 * statistics.median(r[0] for r in lat),
                         1000 * statistics.median(sum(r) for r in lat),
                         1000 * tail)
        print(f"{side:6}: import {summary[side][0]:.2f} ms, first verb "
              f"{summary[side][1]:.2f} ms, pass sum {summary[side][2]:.2f} "
              f"ms, op_tail_ms {summary[side][3]:.2f} "
              f"({' '.join(verbs[per_verb.index(tail)]['argv'])})")
    ratios = [c / b for b, c in zip(summary["base"], summary["change"])]
    print("ratio : import {:.3f}, first verb {:.3f}, pass sum {:.3f}, "
          "op_tail_ms {:.3f}".format(*ratios))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
