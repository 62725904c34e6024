"""The benchmark harness's own smoke check, run as a test.

perfbench/smoke.py runs a reduced pass of every workload untraced and
traced, checks every verb's output against the recorded answers, and
checks that the traced metric names match BENCHMARK.json.  Running it
here catches wrong benchmark answers and a tracer broken by a rename in
src/ before a benchmark run does.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: ok" in done.stdout.splitlines(), done.stdout
