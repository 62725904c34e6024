"""Smoke check of the harness, in seconds rather than minutes.

    python3 perfbench/smoke.py [--seed N]

Runs a reduced-size pass of every workload twice, untraced and traced,
each in a fresh interpreter, then the untraced measurement once.  Exits 0
only if no verb failed its checks (fail_ratio is 0), the traced outputs
equal the untraced ones, and the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
from workloads import WORKLOADS


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    ok = True
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=seed, smoke=True,
                                  deadline=time.monotonic() + run.RUN_LIMIT_S)
        passes, metrics, _, identical = run.traced(args)
        if set(metrics) != declared("per_layer"):
            print(f"{workload}: traced metrics differ from BENCHMARK.json")
            ok = False
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(len(p["failures"]) for p in passes)
        for p in passes:
            for verb, errors in p["failures"].items():
                print(f"FAILED {verb}: {errors[0][:500]}")
        print(f"{workload}: fail_ratio {failed}/{attempted}, traced outputs "
              f"{'identical' if identical else 'DIFFER'}, overhead "
              f"{metrics['trace.overhead_ratio'][0]:.2f}x")
        ok = ok and failed == 0 and identical
    args = argparse.Namespace(workload=WORKLOADS[0], seed=seed, smoke=True,
                              seconds=0,
                              deadline=time.monotonic() + run.RUN_LIMIT_S)
    _, metrics, _ = run.measure(args)
    if set(metrics) != declared("end_to_end"):
        print("untraced metrics differ from BENCHMARK.json")
        ok = False
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
