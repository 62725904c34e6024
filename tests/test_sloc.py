"""The code-line budget of src/, counted by scripts/sloc.py."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET = 2950


def _code_lines():
    spec = importlib.util.spec_from_file_location(
        "sloc", os.path.join(ROOT, "scripts", "sloc.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_src_stays_within_its_code_line_budget():
    code_lines = _code_lines()
    total = 0
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name),
                          encoding="utf-8") as handle:
                    total += code_lines(handle.read())
    assert 0 < total <= BUDGET
