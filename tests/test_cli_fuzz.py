"""Seeded mutation fuzzing of the CLI on the golden inputs.

Each golden case is replayed through cli.main with one of its input
documents mutated in one place: one element of a list or object is
replaced by a small scalar or an empty container, deleted, or (in a
list) duplicated.  Whatever the mutation, the CLI must exit 0, 1 or 2
and raise nothing.  Replacement integers are at most 2, so no dimension
grows past the golden inputs' and every run stays small.

The inputs are copied to a temporary directory first, because a rep
document names its algebra by a path relative to itself.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil

import pytest

from homlie.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _handle:
    CASES = json.load(_handle)

REPLACEMENTS = (-1, 0, 1, 2, "1/2", "1/0", "3/-2", "x", 1.5, True, None,
                [], {})
ROUNDS = 60


def _slots(node) -> list:
    """Every (container, key) pair below node, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return []
    slots = []
    for key in keys:
        slots.append((node, key))
        slots.extend(_slots(node[key]))
    return slots


def mutate(document, rng: random.Random):
    """A copy of document with one element replaced, deleted or
    duplicated; the root itself is replaced when it has no elements."""
    document = copy.deepcopy(document)
    slots = _slots(document)
    if not slots:
        return copy.deepcopy(rng.choice(REPLACEMENTS))
    container, key = rng.choice(slots)
    action = rng.choice(("replace", "delete", "duplicate"))
    if action == "delete":
        del container[key]
    elif action == "duplicate" and isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:
        container[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return document


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("seed", [7])
def test_mutated_golden_inputs_never_crash(tmp_path, seed):
    shutil.copytree(os.path.join(GOLDEN, "inputs"), tmp_path / "inputs")
    rng = random.Random(seed)
    runs = 0
    for _ in range(ROUNDS):
        for name in sorted(CASES):
            argv = [str(tmp_path / a) if a.startswith("inputs/") else a
                    for a in CASES[name]]
            target = rng.choice([a for a in argv
                                 if a.startswith(str(tmp_path))])
            with open(target, encoding="utf-8") as handle:
                original = handle.read()
            mutated = mutate(json.loads(original), rng)
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(mutated, handle)
            try:
                code = _run(argv)
            except BaseException as exc:
                raise AssertionError(
                    f"{name}: {os.path.basename(target)} mutated to "
                    f"{json.dumps(mutated)} raised {exc!r}") from exc
            finally:
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(original)
            assert code in (0, 1, 2), (name, code)
            runs += 1
    assert runs == ROUNDS * len(CASES)
