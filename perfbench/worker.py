"""One fresh-interpreter pass over a workload; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --mode M --t0 T

Set-up imports homlie from the checkout's src/ and writes the workload's
JSON inputs.  setup_s runs from T (time.monotonic() read by the parent
just before it started this process) until set-up is done.  Modes:

    setup   stop after set-up,
    pass    run every verb once through homlie.cli.main, untraced,
    traced  the same with every layer wrapped by tracer.Tracer,
    record  run a pass and write its answers to expected/<workload>.json,
            the recorded values later passes are checked against.

The pass captures each verb's --json output, times it, and checks it
(checks.py).  The last line on stdout is one JSON object with the
results.  Nothing is warmed up: each pass starts cold, like a CLI call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def _import_cli():
    """homlie.cli from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import homlie.cli

    where = os.path.realpath(homlie.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"homlie was imported from {where}, not {src}")
    return homlie.cli


def run_verbs(cli, verbs, tracer=None):
    """Run each verb once; return (wall_s, cpu_s, per-verb records)."""
    records = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for index, verb in enumerate(verbs):
        if tracer is not None:
            tracer.request = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(verb["argv"] + ["--json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raising verb is counted, not fatal
            code, err = None, io.StringIO(traceback.format_exc())
        records.append((time.perf_counter() - start, code, out.getvalue(),
                        err.getvalue()))
    return (time.perf_counter() - wall0, time.process_time() - cpu0,
            records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "pass", "traced", "record"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs (smoke.py)")
    args = parser.parse_args(argv)

    cli = _import_cli()
    directory = os.path.join(WORK_DIR, args.workload)
    verbs = workloads.generate(args.workload, args.seed, directory,
                               smoke=args.smoke)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(directory)
    wall, cpu, records = run_verbs(cli, verbs, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.mode == "record":
        return _record(args.workload, verbs, records)
    expected = checks.load_expected(args.workload)
    failures = {}
    for verb, (_, code, out, err) in zip(verbs, records):
        errors = checks.check(verb, code, out, expected)
        if errors:
            failures[checks.verb_id(verb)] = errors + ([err] if err else [])
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        latencies_s=[r[0] for r in records],
        peak_rss_mb=peak_rss_kb / 1024,
        attempted=len(verbs),
        failures=failures,
        outputs=[hashlib.sha256(json.dumps(r[1:]).encode()).hexdigest()
                 for r in records],
    )
    if tracer is not None:
        result["layers"], result["spans"] = tracer.summary()
        tracer.write_spans(os.path.join(directory, "spans"))
    print(json.dumps(result))
    return 0


def _record(workload, verbs, records):
    recorded = {}
    for verb, (_, code, out, err) in zip(verbs, records):
        errors = checks.check(verb, code, out, {})
        if errors:
            print(checks.verb_id(verb), errors, err, file=sys.stderr)
            return 1
        recorded[checks.verb_id(verb)] = checks.summarize(verb, code, out)
    path = os.path.join(checks.EXPECTED_DIR, f"{workload}.json")
    os.makedirs(checks.EXPECTED_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                for k, v in recorded.items()))
        handle.write("\n}\n")
    print(f"recorded {len(recorded)} verbs in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
