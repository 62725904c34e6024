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
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.cli import VERBS, build_parser, main, read_argv

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


FLAGS = sorted({a[0] for _, _, arguments in VERBS.values()
                for a in arguments if not isinstance(a, str)})
# Every verb and flag, and tokens that argparse reads in its own way:
# help, "--", a lone "-", an empty token, a negative number, abbreviated
# and "=" forms.
TOKENS = [*VERBS, *FLAGS, "--json", "-h", "--help", "--", "-", "", "-1",
          "-0", "3", "x", "--max=3", "--out=o.json", "--js", "--max"]


@st.composite
def calls(draw, int_values, str_values):
    """A verb with its positionals in order, and some of its options and
    --json placed anywhere among them; each option's value is drawn from
    int_values or str_values by the option's type."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    pieces = []
    for argument in VERBS[verb][2]:
        if isinstance(argument, str):
            pieces.append([draw(st.sampled_from(["x", "3", ""]))])
        elif draw(st.booleans()):
            values = int_values if "type" in argument[1] else str_values
            option = [argument[0], draw(st.sampled_from(values))]
            pieces.insert(draw(st.integers(0, len(pieces))), option)
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), ["--json"])
    return [verb, *(token for piece in pieces for token in piece)]


# Calls whose values all pass their type, and calls whose values may be
# any token.
WELL_FORMED = calls(["3", "-2", "0", "\u0663", "-\u0663"],
                    ["x", "3", "-2", ""])
NEARLY_WELL_FORMED = calls(TOKENS, TOKENS)


def _argparse(argv):
    """build_parser().parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=7),
    st.builds(lambda verb, rest: [verb, *rest],
              st.sampled_from(sorted(VERBS)),
              st.lists(st.sampled_from(TOKENS), max_size=6)),
    NEARLY_WELL_FORMED, WELL_FORMED))
def test_reader_returns_none_or_what_argparse_returns(argv):
    """read_argv gives None or exactly argparse's Namespace, same names,
    types and defaults; where argparse exits (help or a usage error) it
    gives None."""
    parsed = read_argv(list(argv))
    expected = _argparse(list(argv))
    if expected is None:
        assert parsed is None
    elif parsed is not None:
        assert parsed == expected
        assert all(type(value) is type(getattr(expected, name))
                   for name, value in vars(parsed).items())


@settings(max_examples=200, deadline=None)
@given(WELL_FORMED)
def test_reader_reads_every_well_formed_call(argv):
    """Every call from WELL_FORMED is read without argparse, to
    argparse's Namespace."""
    expected = _argparse(argv)
    assert expected is not None and read_argv(argv) == expected


def record():
    os.environ["COLUMNS"] = "80"
    surface = {name: _run(argv) for name, argv in sorted(_argvs().items())}
    with open(SURFACE, "w", encoding="utf-8") as handle:
        json.dump(surface, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(surface)} argv lists", file=sys.stderr)


if __name__ == "__main__":
    record()
