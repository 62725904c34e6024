"""List the functions of src/ in which no line runs on the golden corpus.

    python3 scripts/reach.py [CHECKOUT]

Runs every case of CHECKOUT/tests/golden/cases.json through
homlie.cli.main, imported from CHECKOUT/src, in one process under
sys.settrace, and records each line of src/ that runs.  CHECKOUT
defaults to this checkout.  The package is imported before tracing
starts, so only the lines inside function bodies count.  A function is
unreached when no line of its body runs; methods and nested functions
count on their own.  Prints one line per unreached function (its
physical lines, decorators included, then module:qualname) and the
totals.  Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def functions(path: str) -> list:
    """(qualname, body lines, physical lines) of each function in a
    source file, in the order of the file."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                body = set(range(child.body[0].lineno, child.end_lineno + 1))
                found.append((name, body, child.end_lineno - first + 1))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def run_corpus(checkout: str) -> tuple:
    """The (file, line) pairs of src/ that run on the golden corpus, and
    the number of cases."""
    src = os.path.join(checkout, "src")
    golden = os.path.join(checkout, "tests", "golden")
    with open(os.path.join(golden, "cases.json"), encoding="utf-8") as handle:
        cases = json.load(handle)
    sys.path.insert(0, src)
    from homlie.cli import main

    prefix = os.path.join(os.path.realpath(src), "")
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if os.path.realpath(frame.f_code.co_filename).startswith(prefix):
            return local
        return None

    for argv in cases.values():
        argv = [os.path.join(golden, a) if a.startswith("inputs/") else a
                for a in argv]
        sink = io.StringIO()
        sys.settrace(calls)
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                main(argv)
        except SystemExit:
            pass
        finally:
            sys.settrace(None)
    return {(os.path.realpath(f), line) for f, line in executed}, len(cases)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = os.path.abspath(argv[0] if argv else ROOT)
    executed, count = run_corpus(checkout)
    package = os.path.join(checkout, "src", "homlie")
    unreached = lines = total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(package, name))
        for qualname, body, physical in functions(path):
            total += 1
            if not any((path, line) in executed for line in body):
                unreached += 1
                lines += physical
                print(f"{physical:5d}  {name}:{qualname}")
    print(f"{unreached} of {total} functions, {lines} physical lines, "
          f"run no line on {count} golden cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
