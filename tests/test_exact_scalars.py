"""Exactness guards for the scalar contract.

Every scalar is an int when it is integral and a Fraction otherwise,
never a float or a bool.  These tests pin that contract at its three
edges: scalar() refuses inexact values, every kernel gives the same
result on integral data spelled as Fractions (the path every kernel ran
before ints were admitted, kept here as the oracle) as on the same data
normalized to ints, and no CLI verb of the golden corpus holds or
prints a float or a bool where a scalar belongs, however its input
spells the integral scalars.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.alternating import wedge_coords
from homlie.cli import VERBS, main
from homlie.linalg import (
    Matrix,
    bilinear,
    rref_kernel,
    scalar,
    sparse_rref,
    sparse_solve,
    sparse_table,
    vadd,
    vscale,
    vsub,
)
from homlie.reporting import Failure

import test_golden as golden
from helpers import exact_scalars


@pytest.mark.parametrize("value", [True, False, 1.0, float("nan")])
def test_scalar_refuses_floats_and_bools(value):
    with pytest.raises(TypeError):
        scalar(value)


def test_scalar_normalizes_integral_values_to_int():
    for value in (3, Fraction(6, 2), "3", "6/2", " 3 "):
        assert type(scalar(value)) is int and scalar(value) == 3
    for value in (Fraction(1, 2), "2/4", "1/2"):
        assert type(scalar(value)) is Fraction
        assert scalar(value) == Fraction(1, 2)


def test_vscale_by_one_refuses_a_float_entry():
    with pytest.raises(TypeError):
        vscale(1, (Fraction(1), 2.0))
    with pytest.raises(TypeError):
        vscale(1, (1, True))
    ints = (1, 0, -2)
    assert vscale(1, ints) is ints


# ---------------------------------------------------------------------------
# Every kernel on two spellings of the same values.

values = st.builds(Fraction, st.integers(-3, 3),
                   st.sampled_from((1, 1, 1, 2, 3)))
mostly_zero = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), values)


def fractions(n):
    return st.lists(mostly_zero, min_size=n, max_size=n).map(tuple)


def normalized(u):
    """u with every integral entry an int, as scalar() spells it."""
    return tuple(scalar(x) for x in u)


def fraction_matrix(rows, ncols):
    """A Matrix whose entries stay Fractions, as every Matrix held them
    before scalar() normalized integral entries to ints."""
    m = Matrix(rows, ncols=ncols)
    m.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
    return m


def sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def same(frac, ints):
    """Both spellings give equal results of int and Fraction entries."""
    assert frac == ints
    for out in (frac, ints):
        assert exact_scalars(out.values() if isinstance(out, dict) else out)


def same_rows(frac, ints):
    for row, row_ints in zip(frac.rows, ints.rows, strict=True):
        same(row, row_ints)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_kernel_agrees_on_both_spellings(data):
    n, m, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    u, v = data.draw(fractions(n)), data.draw(fractions(n))
    c = data.draw(mostly_zero)
    a = [data.draw(fractions(n)) for _ in range(m)]
    b = [data.draw(fractions(k)) for _ in range(n)]

    same(vadd(u, v), vadd(normalized(u), normalized(v)))
    same(vsub(u, v), vsub(normalized(u), normalized(v)))
    same(vscale(c, u), vscale(scalar(c), normalized(u)))

    a_frac, a_ints = fraction_matrix(a, n), Matrix(a, ncols=n)
    b_frac, b_ints = fraction_matrix(b, k), Matrix(b, ncols=k)
    same(a_frac.apply(u), a_ints.apply(normalized(u)))
    same_rows(a_frac @ b_frac, a_ints @ b_ints)

    table = [[data.draw(fractions(n)) for _ in range(n)] for _ in range(n)]
    table_frac = tuple(tuple(tuple((i, x) for i, x in enumerate(w) if x)
                             for w in row) for row in table)
    same(bilinear(u, v, table_frac, n),
         bilinear(normalized(u), normalized(v), sparse_table(table), n))

    same(wedge_coords(a, n), wedge_coords([normalized(w) for w in a], n))

    rows_frac = sparse(a)
    rows_ints = sparse(normalized(row) for row in a)
    reduced, reduced_ints = sparse_rref(rows_frac), sparse_rref(rows_ints)
    assert reduced.keys() == reduced_ints.keys()
    for pivot, row in reduced.items():
        same(row, reduced_ints[pivot])
    kernel = rref_kernel(reduced, n)
    for vector, vector_ints in zip(kernel, rref_kernel(reduced_ints, n),
                                   strict=True):
        same(vector, vector_ints)
    rhs = data.draw(fractions(m))
    found = sparse_solve(rows_frac, n, rhs)
    assert found == sparse_solve(rows_ints, n, normalized(rhs))
    if found is not None:
        assert exact_scalars(found)

    square = [data.draw(fractions(n)) for _ in range(n)]
    frac, ints = fraction_matrix(square, n), Matrix(square, ncols=n)
    if ints.is_invertible():
        same_rows(frac.inverse(), ints.inverse())
    else:
        for singular in (frac, ints):
            with pytest.raises(ValueError):
                singular.inverse()


# ---------------------------------------------------------------------------
# The golden corpus, walked before it is rendered and respelled on input.

# Dataclass fields that hold nested vectors of scalars.
SCALAR_FIELDS = ("table", "values")


def _walk(value, where, counts, in_scalar=False):
    """Assert that value holds no float, and no bool where a scalar
    belongs; count the scalars and failures seen."""
    assert not isinstance(value, float), where
    if isinstance(value, bool):
        assert not in_scalar, where
    elif isinstance(value, (int, Fraction)):
        counts["scalars"] += in_scalar
    elif isinstance(value, Matrix):
        _walk(value.rows, where, counts, True)
    elif isinstance(value, Failure):
        counts["failures"] += 1
        _walk(value.indices, where, counts)
        _walk(value.lhs, f"{where}.lhs", counts, True)
        _walk(value.rhs, f"{where}.rhs", counts, True)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            _walk(getattr(value, field.name), f"{where}.{field.name}", counts,
                  in_scalar or field.name in SCALAR_FIELDS)
    elif isinstance(value, dict):
        for key, inner in value.items():
            _walk(key, where, counts)
            _walk(inner, f"{where}[{key!r}]", counts, in_scalar)
    elif isinstance(value, (list, tuple)):
        for inner in value:
            _walk(inner, where, counts, in_scalar)


def _locals_at_return(handler, args) -> tuple:
    """handler(args) and the handler's locals when it returns: every
    report, structure and value the verb held before rendering."""
    seen = {}

    def local(frame, event, arg):
        if event == "return":
            seen.update(frame.f_locals)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is handler.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = handler(args)
    finally:
        sys.settrace(previous)
    return result, seen


def test_golden_verbs_hold_no_float_or_bool_scalar(monkeypatch):
    counts = {"scalars": 0, "failures": 0}
    for verb, (handler, *entry) in VERBS.items():

        def walked(args, handler=handler, verb=verb):
            result, held = _locals_at_return(handler, args)
            verdict, data, failures = result
            assert isinstance(verdict, bool), verb
            _walk(data, f"{verb} data", counts)
            _walk(tuple(failures), f"{verb} failures", counts)
            for name, value in held.items():
                _walk(value, f"{verb} {name}", counts)
            return result

        monkeypatch.setitem(VERBS, verb, (walked, *entry))
    for name, argv in golden.CASES.items():
        assert golden._replay(argv)[1] == golden._expected(name), name
    assert counts["scalars"] > 1000 and counts["failures"] > 20, counts


def _spell(value, spelling):
    """An integral scalar value in one of three spellings; any other
    value as it is."""
    try:
        q = Fraction(value)
    except (TypeError, ValueError):
        return value
    if isinstance(value, bool) or q.denominator != 1:
        return value
    p = q.numerator
    return {"int": p, "string": str(p), "ratio": f"{2 * p}/2"}[spelling]


def _respell(node, spelling, key=None):
    """A JSON document with every integral scalar respelled: the entries
    of its lists (but not basis labels) and the wedge coefficients."""
    if isinstance(node, dict):
        if key == "wedge":
            return {k: _spell(v, spelling) for k, v in node.items()}
        return {k: _respell(v, spelling, k) for k, v in node.items()}
    if isinstance(node, list) and key != "basis":
        return [_respell(v, spelling, key) if isinstance(v, (dict, list))
                else _spell(v, spelling) for v in node]
    return node


@pytest.mark.parametrize("spelling", ["int", "string", "ratio"])
def test_golden_outputs_do_not_depend_on_scalar_spelling(spelling, tmp_path):
    inputs = os.path.join(golden.GOLDEN, "inputs")
    changed = 0
    for name in os.listdir(inputs):
        with open(os.path.join(inputs, name), encoding="utf-8") as handle:
            document = json.load(handle)
        respelled = _respell(document, spelling)
        changed += respelled != document
        (tmp_path / name).write_text(json.dumps(respelled), encoding="utf-8")
    assert changed
    codes = golden._load("exit_codes.json")
    for name, argv in golden.CASES.items():
        argv = [str(tmp_path / a[len("inputs/"):]) if a.startswith("inputs/")
                else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert out.getvalue() == golden._expected(name), name
        assert code == codes[name], name
