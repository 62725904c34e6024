"""homlie benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every pass over the workload's verbs runs in a fresh interpreter
(worker.py) with no warm-up, because every real CLI call starts cold.
One client issues the verbs back to back: a closed loop, one process and
one thread at a time.

--trace 0 first sets up SETUP_RUNS times, then runs untraced passes while
another one still fits in S seconds (at least one), and reports the
end-to-end metrics as medians over passes.  --trace 1 runs one untraced
and one traced pass, checks that their outputs are identical, and
reports the per-layer metrics of the traced one.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the lines before it give the environment and every metric with its unit.
A fuller report goes to .perfbench_work/report-<workload>-seed<N>-trace<T>
.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_RUNS = 10
RUN_LIMIT_S = 170  # a whole run, so a hung verb cannot outlast 180 s
# Tail percentiles tried from the top; the first with at least TAIL_BEYOND
# samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class HarnessError(RuntimeError):
    pass


def spawn(args, mode):
    """Run worker.py once in a fresh interpreter; return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, args.deadline - t0))
    if proc.returncode != 0:
        raise HarnessError(f"worker {mode} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(label, value) of the highest ladder percentile with TAIL_BEYOND
    samples beyond it (nearest rank), else of the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def environment():
    load = os.getloadavg()[0]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "load1_start": load,
            "commit": commit}


def measure(args):
    """Untraced passes while another fits in args.seconds."""
    setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_RUNS)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(args, "pass"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    setups += [p["setup_s"] for p in passes]
    # Each verb's latency is its median over passes.
    per_verb = [statistics.median(lat) for lat in
                zip(*(p["latencies_s"] for p in passes))]
    label, slowest = tail(per_verb)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "op_tail_ms": (1000 * slowest, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(
            p["peak_rss_mb"] for p in passes), "MB"),
    }
    # op_p50_ms is printed but not gated: on workloads of few short verbs
    # it samples single instants of a machine whose speed drifts.
    notes = [f"{len(passes)} passes of {len(per_verb)} verbs, "
             f"{len(setups)} set-ups; op_p50_ms and op_tail_ms are the p50 "
             f"and {label} over verbs of each verb's median latency",
             f"op_p50_ms = {1000 * statistics.median(per_verb):.6g} ms"]
    return passes, metrics, notes


def traced(args):
    """One untraced and one traced pass; per-layer metrics."""
    plain = spawn(args, "pass")
    spanned = spawn(args, "traced")
    layers = spanned["layers"]
    metrics = {}
    for name, value in layers.items():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (spanned["wall_s"] / plain["wall_s"],
                                       "ratio")
    self_total = sum(v for k, v in layers.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
    notes = [f"{spanned['spans']} spans; layer self times sum to "
             f"{self_total:.4f} s of {spanned['wall_s']:.4f} s traced wall "
             f"({self_total / spanned['wall_s']:.1%})"]
    identical = plain["outputs"] == spanned["outputs"]
    if not identical:
        notes.append("traced outputs differ from untraced outputs")
    return [plain, spanned], metrics, notes, identical


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.set_defaults(smoke=False)  # smoke.py sets it
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "homlie", "cli.py")):
        print(f"error: no homlie sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = environment()
    try:
        if args.trace:
            passes, metrics, notes, identical = traced(args)
        else:
            passes, metrics, notes = measure(args)
            identical = True
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["load1_end"] = os.getloadavg()[0]

    attempted = sum(p["attempted"] for p in passes)
    failures = {}
    for p in passes:
        failures.update(p["failures"])
    failed = sum(len(p["failures"]) for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} share "
          f"({failed} of {attempted} verbs)")
    for verb, errors in list(failures.items())[:10]:
        print(f"FAILED {verb}: {errors[0][:500]}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(WORK_DIR, exist_ok=True)
    report = os.path.join(WORK_DIR, f"report-{args.workload}-seed"
                                    f"{args.seed}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env, "notes": notes,
                   "metrics": metrics, "failures": failures,
                   "passes": passes}, handle, indent=1)
    print(json.dumps({"correct": failed == 0 and identical,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
