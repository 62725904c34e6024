"""The CLI's argument surface: help texts and usage errors, byte for byte.

tests/golden/cli_surface.json lists argv lists that never reach a verb's
handler (every --help, no verb, an unknown verb, unrecognised, missing
and malformed arguments) with the exit code, stdout and stderr that
homlie.cli.main gave for each.  Help is formatted at COLUMNS=80.

To record the surface again (only when it is meant to change):

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from homlie.cli import build_parser, main

SURFACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "cli_surface.json")


def _argvs() -> dict:
    verbs = build_parser()._subparsers._group_actions[0].choices
    argvs = {"root --help": ["--help"], "no verb": [],
             "unknown verb": ["no-such-verb"],
             "option before the verb": ["--json"],
             "unrecognised option": ["cohomology", "x", "--bogus"],
             "extra positional": ["verify-algebra", "x", "y"],
             "missing positional": ["cohomology"],
             "malformed int": ["cohomology", "x", "--max-arity", "z"],
             "help after arguments": ["rmatrix-check", "x", "-h"]}
    argvs.update({f"{verb} --help": [verb, "--help"] for verb in verbs})
    return argvs


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded() -> dict:
    with open(SURFACE, encoding="utf-8") as handle:
        return json.load(handle)


def test_surface_covers_help_of_every_verb():
    assert set(_recorded()) == set(_argvs())


@pytest.mark.parametrize("name", sorted(_argvs()))
def test_cli_surface(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _recorded()[name]
    assert _run(expected["argv"]) == expected


def record():
    os.environ["COLUMNS"] = "80"
    surface = {name: _run(argv) for name, argv in sorted(_argvs().items())}
    with open(SURFACE, "w", encoding="utf-8") as handle:
        json.dump(surface, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(surface)} argv lists", file=sys.stderr)


if __name__ == "__main__":
    record()
