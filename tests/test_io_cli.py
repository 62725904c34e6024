"""JSON schema and command-line tests.

The documents below are written from the format described in the io
module docstring; expected CLI numbers (cohomology dimensions, frozen
generator matrices, obstruction coefficients) are the same hand-checked
values already pinned by the per-module tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import homlie.cochain as cochain_module
import homlie.io as io_module
from homlie.alternating import wedge_extend
from homlie.cli import main
from homlie.cochain import coboundary_matrix
from homlie.io import (
    SchemaError,
    algebra_from_dict,
    algebra_to_dict,
    deformation_from_dict,
    load_json,
    load_rep,
    operator_from_dict,
    rep_from_dict,
    rep_to_dict,
    rmatrix_from_dict,
    rmatrix_to_dict,
    vector_from_dict,
)
from homlie.linalg import Matrix, Q, format_scalar, matrix, parse_scalar
from homlie.rmatrix import require_skew, skew_matrix, wedge_coeffs
from homlie.structures import adjoint_rep, semidirect_product, sl2

from helpers import (
    oracle_exact,
    oracle_matrix,
    oracle_parse_scalar,
    oracle_vector,
    record_cohomology_matrices,
)

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
GOLDEN_INPUTS = os.path.join(TESTS, "golden", "inputs")


AFF1 = {"dim": 2, "brackets": {"0,1": [0, 1]}}
AFF1_REP = {"algebra": AFF1, "rho": [[[0, 0], [0, 1]], [[0, 0], [-1, 0]]]}
SL2 = {
    "dim": 3,
    "basis": ["h", "e", "f"],
    "brackets": {"0,1": [0, 2, 0], "0,2": [0, 0, -2], "1,2": [1, 0, 0]},
}
SL2_REP = {
    "algebra": SL2,
    "rho": [
        [[0, 0, 0], [0, 2, 0], [0, 0, -2]],
        [[0, 0, 1], [-2, 0, 0], [0, 0, 0]],
        [[0, -1, 0], [0, 0, 0], [2, 0, 0]],
    ],
}
TWISTED = {"dim": 2, "alpha": [[1, 0], [0, 2]], "brackets": {"0,1": [0, 2]}}
TWISTED_REP = {
    "algebra": TWISTED,
    "beta": [[1, 0], [0, 2]],
    "rho": [[[0, 0], [0, 2]], [[0, 0], [-2, 0]]],
}
T_DOC = {"matrix": [[0, 1], [0, 0]]}
ID2_DOC = {"matrix": [[1, 0], [0, 1]]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    return code, json.loads(out)


# ---------------------------------------------------------------- io layer


def test_algebra_roundtrip_and_defaults():
    g = algebra_from_dict(AFF1)
    assert g.dim == 2
    assert g.basis == ("e1", "e2")
    assert g.alpha == Matrix.identity(2)
    assert g.brackets_dict() == {(0, 1): (Q(0), Q(1))}
    again = algebra_from_dict(algebra_to_dict(g))
    assert again.brackets_dict() == g.brackets_dict()
    assert again.alpha == g.alpha
    assert again.basis == g.basis


def test_rep_roundtrip_inline_and_path(tmp_path):
    rep = rep_from_dict(AFF1_REP)
    assert rep.beta == Matrix.identity(2)
    assert rep.rho[0] == matrix([[0, 0], [0, 1]])
    again = rep_from_dict(rep_to_dict(rep))
    assert again.rho == rep.rho and again.beta == rep.beta

    write(tmp_path, "aff1.json", AFF1)
    rep_path = write(
        tmp_path, "rep.json", {"algebra": "aff1.json", "rho": AFF1_REP["rho"]})
    loaded = load_rep(rep_path)
    assert loaded.algebra.brackets_dict() == rep.algebra.brackets_dict()
    assert loaded.rho == rep.rho


def test_scalar_forms():
    doc = dict(AFF1, alpha=[["1/2", 0], [0, "2"]])
    g = algebra_from_dict(doc)
    assert g.alpha == matrix([["1/2", 0], [0, 2]])
    with pytest.raises(SchemaError):
        algebra_from_dict(dict(AFF1, alpha=[[0.5, 0], [0, 2]]))
    with pytest.raises(SchemaError):
        algebra_from_dict(dict(AFF1, alpha=[[True, 0], [0, 2]]))
    with pytest.raises(SchemaError):
        algebra_from_dict(dict(AFF1, alpha=[["1/0", 0], [0, 2]]))
    with pytest.raises(SchemaError):
        algebra_from_dict(dict(AFF1, alpha=[["x", 0], [0, 2]]))


SCALAR_REFUSALS = (
    (True, "booleans are not scalars"),
    (1.5, "floats are not exact; write the value as a string"),
    ("1/0", "malformed rational '1/0'"),
    ("x", "malformed rational 'x'"),
    (None, "cannot read None as a scalar"),
    ([], "cannot read [] as a scalar"),
)


def test_scalar_refusals_name_the_entry():
    """A refused scalar is named by its place in the document, whichever
    entry of a vector, a matrix row, an action matrix or a bracket it
    is; the texts are the ones the reader always gave."""
    doc = {"algebra": dict(AFF1, alpha=[[1, 0], [0, 1]]),
           "beta": [[1, 0], [0, 1]], "rho": AFF1_REP["rho"]}
    slots = [(("beta", r, c), f".beta[{r}][{c}]")
             for r in range(2) for c in range(2)]
    slots += [(("rho", i, r, c), f".rho[{i}][{r}][{c}]")
              for i in range(2) for r in range(2) for c in range(2)]
    slots += [(("algebra", "alpha", r, c), f".algebra.alpha[{r}][{c}]")
              for r in range(2) for c in range(2)]
    slots += [(("algebra", "brackets", "0,1", k),
               f".algebra.brackets['0,1'][{k}]") for k in range(2)]
    for path, where in slots:
        for bad, reason in SCALAR_REFUSALS:
            broken = json.loads(json.dumps(doc))
            node = broken
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad
            with pytest.raises(SchemaError) as refused:
                rep_from_dict(broken, where="rep.json")
            assert str(refused.value) == f"rep.json{where}: {reason}"
    with pytest.raises(SchemaError) as refused:
        vector_from_dict({"vector": [0, "1/2", False]}, where="v.json")
    assert str(refused.value) == "v.json.vector[2]: booleans are not scalars"


# Strings at the edges of what int() and parse_scalar accept: whitespace,
# signs, underscores, non-ASCII digits, fractions, division by zero, the
# int() digit limit.
SCALAR_TEXTS = (" 7 ", "+3", "1_000", "1__0", "_1", "\u0663", "\uff17",
                "\u0661/\u0662", "3/1", "-0", "1/0", "1.5", "", " ", "-",
                "1/2/3", "1/", "/2", " 1 / -2 ", "4/6", "0x10", "\t5\n",
                "\u20037", "1e3", "5" * 5000, "-" + "9" * 4301 + "/2")
JSON_SCALARS = st.one_of(
    st.sampled_from(SCALAR_TEXTS),
    st.text(alphabet="0123456789/+-_ .\u0663", max_size=6),
    st.integers(-10**30, 10**30), st.booleans(), st.floats(), st.none(),
    st.lists(st.integers(), max_size=1), st.dictionaries(
        st.text(max_size=1), st.integers(), max_size=1))
JSON_ROWS = st.one_of(st.lists(JSON_SCALARS, max_size=3), JSON_SCALARS,
                      st.sampled_from(["12", {"1": 0}]))


def _outcome(read, *args):
    """What read(*args) gives: its value with the type of each scalar, or
    the type and text of its refusal."""
    try:
        value = read(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, Matrix):
        value = value.rows
    if isinstance(value, tuple):
        return [[(type(x), x) for x in row] if isinstance(row, tuple)
                else (type(row), row) for row in value]
    return type(value), value


@settings(max_examples=300, deadline=None)
@given(JSON_SCALARS)
def test_scalar_reader_matches_the_parse_scalar_reader(value):
    """One int() call, then parse_scalar, reads every scalar as the
    parse_scalar reader did: the same value, the same type (int against
    Fraction) and the same refusal text."""
    assert _outcome(io_module._exact, value) == _outcome(oracle_exact, value)
    if isinstance(value, str):
        assert _outcome(parse_scalar, value) == \
            _outcome(oracle_parse_scalar, value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(JSON_ROWS, max_size=3), JSON_ROWS))
def test_vector_and_matrix_readers_match_the_entry_by_entry_readers(obj):
    """A vector in one map and a matrix row by row give the values, types
    and SchemaError texts that reading entry by entry gave."""
    assert _outcome(io_module._vector, obj, "v.json") == \
        _outcome(oracle_vector, obj, "v.json")
    assert _outcome(io_module._matrix, obj, "m.json") == \
        _outcome(oracle_matrix, obj, "m.json")


def _into_a_closed_pipe(argv, unbuffered):
    """Exit code and stderr of python -m homlie argv with its stdout on a
    pipe whose reader has gone before the verb writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "homlie", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120, check=False)
    finally:
        os.close(write_end)
    return done.returncode, done.stderr.decode()


def test_a_reader_gone_during_the_write_ends_the_verb_with_exit_2(tmp_path):
    """Unbuffered, the write inside main meets the closed pipe, as
    `| head -c 100` does once head has exited: exit 2, no traceback."""
    zero = [["0"] * 3] * 3
    path = write(tmp_path, "zero.json", {"base": zero, "terms": [zero]})
    argv = [os.path.join(GOLDEN_INPUTS, "sl2-transposed.rep.json"), path,
            "--max-order", "2", "--json"]
    assert _into_a_closed_pipe(["deform-extend", *argv], True) == (2, "")


def test_a_reader_gone_before_the_flush_ends_the_verb_with_exit_2():
    """Buffered, the output meets the closed pipe only when it is flushed;
    main flushes it, so the flush at exit has nothing left to raise."""
    argv = ["cohomology", os.path.join(GOLDEN_INPUTS, "sl2.adjoint.rep.json"),
            "--json"]
    assert _into_a_closed_pipe(argv, False) == (2, "")


def test_algebra_schema_violations():
    with pytest.raises(SchemaError):
        algebra_from_dict(dict(AFF1, extra=1))
    with pytest.raises(SchemaError):
        algebra_from_dict({"brackets": {}})
    with pytest.raises(SchemaError):
        algebra_from_dict({"dim": 0})
    with pytest.raises(SchemaError):
        algebra_from_dict({"dim": 2, "brackets": {"1,0": [0, 1]}})
    with pytest.raises(SchemaError):
        algebra_from_dict({"dim": 2, "brackets": {"0,2": [0, 1]}})
    with pytest.raises(SchemaError):
        algebra_from_dict({"dim": 2, "brackets": {"0,1": [0, 1, 0]}})
    with pytest.raises(SchemaError):
        algebra_from_dict({"dim": 2, "basis": ["only-one"]})
    with pytest.raises(SchemaError):
        algebra_from_dict([1, 2])


def test_rep_schema_violations():
    with pytest.raises(SchemaError):
        rep_from_dict({"algebra": AFF1, "rho": [[[0, 0], [0, 1]]]})
    with pytest.raises(SchemaError):
        rep_from_dict({
            "algebra": AFF1,
            "rho": [[[0, 0], [0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
        })
    with pytest.raises(SchemaError):
        rep_from_dict(dict(AFF1_REP, beta=[[1, 0]]))
    with pytest.raises(SchemaError):
        rep_from_dict(dict(AFF1_REP, basis=["v1"]))
    with pytest.raises(SchemaError):
        rep_from_dict({"algebra": AFF1})


def test_operator_vector_docs():
    assert operator_from_dict(T_DOC) == matrix([[0, 1], [0, 0]])
    assert vector_from_dict({"vector": [1, "1/2"]}) == (Q(1), Q(1, 2))
    with pytest.raises(SchemaError):
        operator_from_dict({"rows": [[1]]})
    with pytest.raises(SchemaError):
        operator_from_dict({"matrix": [[1, 0], [1]]})
    with pytest.raises(SchemaError):
        operator_from_dict({"matrix": []})
    with pytest.raises(SchemaError):
        vector_from_dict({"vector": 3})


def test_deformation_doc():
    d = deformation_from_dict(
        {"base": T_DOC, "terms": [[[1, 0], [0, 0]]], "order": 1})
    assert d.order == 1
    assert d.base == matrix([[0, 1], [0, 0]])
    assert d.terms[0] == matrix([[1, 0], [0, 0]])
    with pytest.raises(SchemaError):
        deformation_from_dict({"base": T_DOC, "terms": [], "order": 1})
    with pytest.raises(SchemaError):
        deformation_from_dict({"base": T_DOC, "terms": [[[1, 0]]]})
    with pytest.raises(SchemaError):
        deformation_from_dict({"terms": []})


def test_rmatrix_doc():
    r = rmatrix_from_dict({"wedge": {"0,1": "1/2"}, "dim": 2})
    assert r == skew_matrix(2, {(0, 1): Q(1, 2)})
    assert rmatrix_from_dict({"wedge": {}}, dim=3) == Matrix.zero(3, 3)
    assert rmatrix_to_dict(r) == {"dim": 2, "wedge": {"0,1": "1/2"}}
    with pytest.raises(SchemaError):
        rmatrix_from_dict({"wedge": {"1,0": 1}, "dim": 2})
    with pytest.raises(SchemaError):
        rmatrix_from_dict({"wedge": {"0,1": 1}, "dim": 2}, dim=3)
    with pytest.raises(SchemaError):
        rmatrix_from_dict({"wedge": {"0,1": 1}})
    with pytest.raises(SchemaError):
        rmatrix_from_dict({"wedge": {"0,3": 1}, "dim": 2})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_two_tensor_roundtrips_through_its_skew_matrix(data):
    """{(i, j): q} with zeros mixed in, dims 1-5: the skew matrix gives
    back the nonzero coefficients in pair order, passes require_skew, and
    the wedge document survives the loader and rmatrix-convert both ways
    in canonical form."""
    dim = data.draw(st.integers(min_value=1, max_value=5))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    entries = {pair: data.draw(st.one_of(
        st.just(Q(0)), st.fractions(min_value=-4, max_value=4,
                                    max_denominator=5)))
        for pair in data.draw(st.permutations(pairs))}
    nonzero = sorted((pair, q) for pair, q in entries.items() if q)
    m = skew_matrix(dim, entries)
    assert list(wedge_coeffs(m).items()) == nonzero
    assert require_skew(m) is m
    doc = {"dim": dim, "wedge": {f"{i},{j}": format_scalar(q)
                                 for (i, j), q in entries.items()}}
    canonical = {"dim": dim, "wedge": {f"{i},{j}": format_scalar(q)
                                       for (i, j), q in nonzero}}
    assert rmatrix_to_dict(rmatrix_from_dict(doc)) == canonical
    with tempfile.TemporaryDirectory() as tmp:
        wedge_path = os.path.join(tmp, "wedge.json")
        matrix_path = os.path.join(tmp, "matrix.json")
        with open(wedge_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["rmatrix-convert", wedge_path,
                         "--out", matrix_path]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["rmatrix-convert", matrix_path, "--json"]) == 0
    assert json.loads(out.getvalue())["data"] == canonical


@pytest.mark.parametrize("keys", [("0,1", "0, 01"), ("0, 01", "0,1")])
def test_repeated_index_pairs_are_refused(keys):
    """Two keys naming one pair would let the later one win silently,
    so the document would load as aff1 or as abelian by key order."""
    first, second = keys
    docs = [
        (algebra_from_dict, {"dim": 2, "brackets": {first: [0, 1],
                                                    second: [0, 0]}}),
        (rmatrix_from_dict, {"dim": 2, "wedge": {first: 1, second: 2}}),
    ]
    for loader, doc in docs:
        with pytest.raises(SchemaError) as err:
            loader(doc)
        assert repr(first) in str(err.value)
        assert repr(second) in str(err.value)


def test_load_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_json(str(bad))
    with pytest.raises(OSError):
        load_json(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------- CLI


def test_cli_verify_algebra(tmp_path, capsys):
    path = write(tmp_path, "aff1.json", AFF1)
    code, out, err = run(capsys, ["verify-algebra", path])
    assert code == 0
    assert out.startswith("verify-algebra: OK")
    assert err == ""

    code, payload = run_json(capsys, ["verify-algebra", path])
    assert code == 0
    assert set(payload) == {"verb", "verdict", "failures", "data"}
    assert payload["verb"] == "verify-algebra"
    assert payload["verdict"] is True
    assert payload["failures"] == []
    assert payload["data"]["multiplicative"] is True
    assert payload["data"]["hom_jacobi"] is True
    assert payload["data"]["regular"] is True
    assert payload["data"]["dim"] == 2

    bad = write(tmp_path, "bad_twist.json",
                dict(AFF1, alpha=[[2, 0], [0, 1]]))
    code, out, _ = run(capsys, ["verify-algebra", bad])
    assert code == 1
    assert out.startswith("verify-algebra: FAIL")
    code, payload = run_json(capsys, ["verify-algebra", bad])
    assert code == 1
    assert payload["verdict"] is False
    assert payload["data"]["multiplicative"] is False
    assert payload["failures"] and all(
        isinstance(f, str) for f in payload["failures"])


def test_cli_error_exits(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    code, out, err = run(capsys, ["verify-algebra", str(broken)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")

    code, _, err = run(capsys, ["verify-algebra", str(tmp_path / "no.json")])
    assert code == 2
    assert err.startswith("error:")

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit):
        main(["no-such-verb"])
    capsys.readouterr()


def test_cli_refuses_deeply_nested_json(tmp_path, capsys):
    """A document nested deeper than the parser's recursion limit is a
    schema error naming the file, also when a rep points at it."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    rep = write(tmp_path, "rep.json", {"algebra": "deep.json", "rho": []})
    for argv in (["verify-algebra", str(deep)], ["verify-rep", rep]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {deep}: JSON nested too deeply\n", argv


def test_cli_verify_rep_and_semidirect(tmp_path, capsys):
    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    code, payload = run_json(capsys, ["verify-rep", rep_path])
    assert code == 0
    assert payload["data"] == {
        "twist_intertwine": True, "module_equation": True,
        "algebra_dim": 2, "module_dim": 2,
    }

    out_path = str(tmp_path / "semi.json")
    code, payload = run_json(capsys, ["semidirect", rep_path,
                                      "--out", out_path])
    assert code == 0
    assert payload["data"]["hom_lie"] is True
    assert payload["data"]["algebra"]["dim"] == 4

    code, payload = run_json(capsys, ["verify-algebra", out_path])
    assert code == 0
    assert payload["data"]["dim"] == 4


def test_cli_cohomology(tmp_path, capsys):
    rep_path = write(tmp_path, "sl2rep.json", SL2_REP)
    code, payload = run_json(
        capsys, ["cohomology", rep_path, "--max-arity", "2"])
    assert code == 0
    assert payload["verdict"] is True
    data = payload["data"]
    assert data["complex"] == "representation"
    assert data["regular"] is True
    assert [row["arity"] for row in data["table"]] == [0, 1, 2]
    assert all(row["h"] == 0 for row in data["table"])
    row1 = data["table"][1]
    assert row1["cochains"] == 9
    assert row1["cocycles"] == row1["coboundaries"]

    code, out, _ = run(capsys, ["cohomology", rep_path, "--max-arity", "1"])
    assert code == 0
    assert out.startswith("cohomology: OK")
    assert '"table"' in out

    code, _, err = run(capsys, ["cohomology", rep_path, "--max-arity", "-1"])
    assert code == 2
    assert err.startswith("error:")

    aff1_rep = write(tmp_path, "rep.json", AFF1_REP)
    t_path = write(tmp_path, "t.json", T_DOC)
    code, payload = run_json(capsys, ["cohomology", aff1_rep,
                                      "--operator", t_path,
                                      "--max-arity", "2"])
    assert code == 0
    assert payload["data"]["complex"] == "operator"
    assert [row["arity"] for row in payload["data"]["table"]] == [0, 1, 2]


def test_cli_cohomology_refuses_an_arity_past_the_algebra_dimension(capsys):
    """Every cochain space above the dimension of the complex's algebra
    is zero, so a larger --max-arity exits 2 at once with a message that
    names the limit and the value; --max-arity equal to the dimension
    prints the recorded full-range output."""
    name = "cohomology.heisenberg3_twisted"
    rep = os.path.join(GOLDEN_INPUTS, "heisenberg3_twisted.adjoint.rep.json")
    with open(os.path.join(TESTS, "golden", "stdout", name + ".txt"),
              encoding="utf-8") as handle:
        recorded = handle.read()
    assert run(capsys, ["cohomology", rep, "--max-arity", "3", "--json"]) \
        == (0, recorded, "")
    for top in ("4", str(10**9)):
        started = time.perf_counter()
        code, out, err = run(capsys, ["cohomology", rep, "--max-arity", top])
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --max-arity {top} exceeds the limit 3")
    operator = [os.path.join(GOLDEN_INPUTS, "aff1.adjoint.rep.json"),
                "--operator", os.path.join(GOLDEN_INPUTS, "aff1.T.json")]
    code, _, err = run(capsys, ["cohomology", *operator, "--max-arity", "3"])
    assert code == 2 and "exceeds the limit 2" in err
    code, payload = run_json(capsys, ["cohomology", *operator,
                                      "--max-arity", "2"])
    assert code == 0 and len(payload["data"]["table"]) == 3


def test_cli_cohomology_refuses_invalid_input(tmp_path, capsys):
    broken = json.loads(json.dumps(SL2_REP))
    broken["rho"][1][0][0] = 5
    rep_path = write(tmp_path, "broken.json", broken)
    code, _ = run_json(capsys, ["verify-rep", rep_path])
    assert code == 1
    # Not a complex: delta_2 . delta_1 does not vanish.
    rep = load_rep(rep_path)
    square = coboundary_matrix(rep, 2) @ coboundary_matrix(rep, 1)
    assert not square.is_zero()

    code, payload = run_json(capsys, ["cohomology", rep_path])
    assert code == 1
    assert payload["verdict"] is False
    assert payload["failures"]
    assert payload["data"] == {"complex": "representation",
                               "hom_lie": True, "representation": False}


def test_cli_cohomology_assembles_without_determinants(tmp_path, capsys,
                                                       monkeypatch):
    """A timing-free guard on the cost model of the cohomology verb: no
    determinants, one compatible basis per arity, and few wedge_extend
    steps (one wedge factor each) while assembling delta_n and the
    compatible system, n = 1..3, on dim 6: one per nonzero bracket and
    (n - 1)-subset K of the other indices, one per prefix of a K whose
    twisted wedge is expanded, and one per prefix of the n-tuples whose
    twist minors the compatible system reads.  Expanding every bracket
    pair of every (n + 1)-tuple took 339 steps here; evaluating cochains
    pointwise would take far more."""
    semi = semidirect_product(adjoint_rep(sl2(), 0))
    rep_path = write(tmp_path, "semi.json",
                     rep_to_dict(adjoint_rep(semi, 0)))
    counts = {"wedge_extend": 0}
    basis_arities = []

    def counting_wedge_extend(terms, v):
        counts["wedge_extend"] += 1
        return wedge_extend(terms, v)

    basis = cochain_module.compatible_flats

    def recording_basis(sigma, tau, arity):
        basis_arities.append(arity)
        return basis(sigma, tau, arity)

    for name, module in list(sys.modules.items()):
        if name.startswith("homlie") and \
                getattr(module, "wedge_extend", None) is wedge_extend:
            monkeypatch.setattr(module, "wedge_extend", counting_wedge_extend)
    monkeypatch.setattr(cochain_module, "compatible_flats", recording_basis)
    code, payload = run_json(
        capsys, ["cohomology", rep_path, "--max-arity", "3"])
    assert code == 0
    assert [row["h"] for row in payload["data"]["table"]] == [0, 1, 1, 0]
    assert not hasattr(Matrix, "det")
    brackets = len(semi.brackets_dict())  # 9
    prefixes = [sum(comb(6, j) for j in range(1, n + 1)) for n in range(4)]
    assert 0 < counts["wedge_extend"] <= sum(
        brackets * comb(4, n - 1) + prefixes[n - 1] + prefixes[n]
        for n in range(1, 4))  # 194
    assert basis_arities == [0, 1, 2, 3]


def test_cli_check_o_operator(tmp_path, capsys):
    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    t_path = write(tmp_path, "t.json", T_DOC)
    code, payload = run_json(capsys, ["check-o-operator", rep_path, t_path])
    assert code == 0
    data = payload["data"]
    assert set(data) == {"o_operator", "graph", "nijenhuis_on_semidirect",
                         "maurer_cartan", "routes_agree"}
    assert data["o_operator"] == {"intertwines": True, "quadratic": True}
    assert data["graph"] == {"bracket_closed": True, "twist_closed": True}
    assert data["nijenhuis_on_semidirect"] == {
        "commutes_with_twist": True, "identity": True}
    assert data["maurer_cartan"] is not None
    assert data["routes_agree"] is True

    id_path = write(tmp_path, "id.json", ID2_DOC)
    code, payload = run_json(capsys, ["check-o-operator", rep_path, id_path])
    assert code == 1
    assert payload["data"]["o_operator"]["quadratic"] is False
    assert payload["data"]["routes_agree"] is True


def test_cli_check_rota_baxter(tmp_path, capsys):
    alg_path = write(tmp_path, "aff1.json", AFF1)
    id_path = write(tmp_path, "id.json", ID2_DOC)
    code, payload = run_json(capsys, ["check-rota-baxter", alg_path, id_path,
                                      "--weight=-1"])
    assert code == 0
    assert payload["data"] == {
        "commutes_with_twist": True, "identity": True,
        "degree": 0, "weight": "-1",
    }
    code, payload = run_json(capsys, ["check-rota-baxter", alg_path, id_path])
    assert code == 1
    assert payload["data"]["identity"] is False
    assert payload["data"]["weight"] == "0"

    code, _, err = run(capsys, ["check-rota-baxter", alg_path, id_path,
                                "--weight", "oops"])
    assert code == 2
    assert err.startswith("error:")


def test_cli_rota_baxter_huge_degree_is_fast(tmp_path, capsys):
    """alpha^s is taken by repeated squaring, so degree 10^6 costs about
    forty products instead of a million."""
    alg_path = write(tmp_path, "sl2.json", SL2)
    zero_path = write(tmp_path, "zero.json", {"matrix": [[0] * 3] * 3})
    start = time.perf_counter()
    code, payload = run_json(capsys, ["check-rota-baxter", alg_path,
                                      zero_path, "--degree", "1000000"])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert payload["data"]["degree"] == 1000000


def test_cli_rota_baxter_failure_past_the_digit_limit_exits_2():
    """At degree 10^5 the twisted line's failures hold integers past
    int()'s digit limit; rendering them is part of the guarded call, so
    the verb ends with exit 2 and an error line, not a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = ["check-rota-baxter",
            os.path.join(GOLDEN_INPUTS, "aff1_twisted.algebra.json"),
            os.path.join(GOLDEN_INPUTS, "identity2.matrix.json"),
            "--degree", "100000"]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "homlie", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: Exceeds the limit (")
    assert "Traceback" not in done.stderr


def test_cli_check_nijenhuis_operator(tmp_path, capsys):
    alg_path = write(tmp_path, "aff1.json", AFF1)
    n_path = write(tmp_path, "n.json", {"matrix": [[1, 2], [3, 4]]})
    code, payload = run_json(capsys,
                             ["check-nijenhuis-operator", alg_path, n_path])
    assert code == 0
    assert payload["data"] == {"commutes_with_twist": True, "identity": True}

    sl2_path = write(tmp_path, "sl2.json", SL2)
    bad_n = write(tmp_path, "badn.json",
                  {"matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]})
    code, payload = run_json(capsys,
                             ["check-nijenhuis-operator", sl2_path, bad_n])
    assert code == 1
    assert payload["data"]["identity"] is False
    assert payload["failures"]


def test_cli_induced_pre_lie_and_rho_t(tmp_path, capsys):
    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    t_path = write(tmp_path, "t.json", T_DOC)
    code, payload = run_json(capsys, ["induced-pre-lie", rep_path, t_path])
    assert code == 0
    data = payload["data"]
    assert data["axioms"] == {"twist_multiplicative": True,
                              "left_symmetry": True}
    assert data["pre_lie"]["products"]["1,1"] == ["0", "1"]
    assert data["pre_lie"]["products"]["0,0"] == ["0", "0"]
    assert data["subadjacent"]["brackets"] == {}

    code, payload = run_json(capsys, ["rho-t", rep_path, t_path])
    assert code == 0
    rep_dict = payload["data"]["representation"]
    assert rep_dict["beta"] == [["1", "0"], ["0", "1"]]
    assert rep_dict["rho"][0] == [["0", "-1"], ["0", "0"]]
    assert payload["data"]["axioms"]["module_equation"] is True

    id_path = write(tmp_path, "id.json", ID2_DOC)
    code, _, err = run(capsys, ["induced-pre-lie", rep_path, id_path])
    assert code == 2
    assert err.startswith("error:")


def test_cli_check_linear_deformation(tmp_path, capsys):
    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    t_path = write(tmp_path, "t.json", T_DOC)
    code, payload = run_json(capsys, ["check-linear-deformation",
                                      rep_path, t_path, t_path])
    assert code == 0
    assert payload["data"]["cocycle"] is True
    assert payload["data"]["generator_is_o_operator"] is True

    k_path = write(tmp_path, "k.json", {"matrix": [[1, 0], [0, -1]]})
    code, payload = run_json(capsys, ["check-linear-deformation",
                                      rep_path, t_path, k_path])
    assert code == 1
    assert payload["data"]["cocycle"] is True
    assert payload["data"]["generator_is_o_operator"] is False


def test_cli_nijenhuis_element(tmp_path, capsys):
    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    t_path = write(tmp_path, "t.json", T_DOC)
    e1_path = write(tmp_path, "e1.json", {"vector": [1, 0]})
    code, payload = run_json(capsys, ["nijenhuis-element",
                                      rep_path, t_path, e1_path])
    assert code == 0
    data = payload["data"]
    assert data["element"] == {
        "fixed_by_twist": True, "bracket_square": True,
        "action_square": True, "generator_bracket": True,
    }
    assert data["generator"] == [["0", "1"], ["0", "0"]]
    assert data["certificate_holds"] is True
    assert data["certificate"]
    assert {c["degree"] for c in data["certificate"]} <= {0, 1, 2}
    assert all(c["holds"] for c in data["certificate"])

    e2_path = write(tmp_path, "e2.json", {"vector": [0, 1]})
    code, payload = run_json(capsys, ["nijenhuis-element",
                                      rep_path, t_path, e2_path])
    assert code == 1
    data = payload["data"]
    assert data["element"]["generator_bracket"] is False
    assert data["element"]["bracket_square"] is True
    assert data["generator"] == [["-1", "0"], ["0", "1"]]
    assert data["linear_deformation"]["cocycle"] is True
    assert data["linear_deformation"]["generator_quadratic"] is False

    tw_rep = write(tmp_path, "twrep.json", TWISTED_REP)
    tw_t = write(tmp_path, "twt.json", {"matrix": [[1, 0], [0, 0]]})
    code, payload = run_json(capsys, ["nijenhuis-element",
                                      tw_rep, tw_t, e2_path])
    assert code == 1
    assert payload["data"]["element"]["fixed_by_twist"] is False
    assert payload["data"]["generator"] is None
    assert payload["data"]["certificate_holds"] is None


def test_cli_deform_check(tmp_path, capsys):
    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    d_path = write(tmp_path, "d.json",
                   {"base": T_DOC, "terms": [[[0, 1], [0, 0]]], "order": 1})
    code, payload = run_json(capsys, ["deform-check", rep_path, d_path])
    assert code == 0
    data = payload["data"]
    assert data["order"] == 1
    assert data["twist_compatible"] is True
    assert data["first_failing_order"] is None
    assert all(row["holds"] for row in data["per_order"])
    assert data["infinitesimal"]["index"] == 1
    assert data["infinitesimal"]["is_cocycle"] is True

    bad_path = write(tmp_path, "dbad.json", {"base": ID2_DOC})
    code, payload = run_json(capsys, ["deform-check", rep_path, bad_path])
    assert code == 1
    assert payload["data"]["first_failing_order"] == 0
    assert payload["data"]["infinitesimal"] is None


def test_cli_deform_extend(tmp_path, capsys):
    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    d_path = write(tmp_path, "d.json", {"base": T_DOC})
    out_path = str(tmp_path / "extended.json")
    code, payload = run_json(capsys, ["deform-extend", rep_path, d_path,
                                      "--max-order", "2", "--out", out_path])
    assert code == 0
    data = payload["data"]
    assert data["reached_order"] == 2
    assert data["obstructed_at"] is None
    assert data["deformation"]["order"] == 2
    assert data["last_step"]["dim_h2"] == 0
    assert data["last_step"]["dim_image"] == 2

    code, payload = run_json(capsys, ["deform-check", rep_path, out_path])
    assert code == 0
    assert payload["data"]["order"] == 2

    tw_rep = write(tmp_path, "twrep.json", TWISTED_REP)
    tw_d = write(tmp_path, "twd.json",
                 {"base": [[1, 0], [0, 0]], "terms": [[[0, 0], [0, 1]]]})
    code, payload = run_json(capsys, ["deform-extend", tw_rep, tw_d,
                                      "--max-order", "3"])
    assert code == 1
    data = payload["data"]
    assert data["obstructed_at"] == 2
    assert data["reached_order"] == 1
    assert data["last_step"]["dim_h2"] == 1
    assert data["last_step"]["dim_image"] == 0
    assert data["last_step"]["theta"]["coeffs"] == {"0,1": ["0", "-2"]}
    assert any("obstructed at order 2" in f for f in payload["failures"])

    code, _, err = run(capsys, ["deform-extend", rep_path, d_path,
                                "--max-order", "0"])
    assert code == 2
    assert err.startswith("error:")


def test_cli_obstruction(tmp_path, capsys):
    tw_rep = write(tmp_path, "twrep.json", TWISTED_REP)
    tw_d = write(tmp_path, "twd.json",
                 {"base": [[1, 0], [0, 0]], "terms": [[[0, 0], [0, 1]]]})
    code, payload = run_json(capsys, ["obstruction", tw_rep, tw_d])
    assert code == 0
    data = payload["data"]
    assert data["order"] == 2
    assert data["theta_is_zero"] is False
    assert data["is_cocycle"] is True
    assert data["theta"]["coeffs"] == {"0,1": ["0", "-2"]}

    rep_path = write(tmp_path, "rep.json", AFF1_REP)
    d_path = write(tmp_path, "d.json", {"base": T_DOC})
    code, payload = run_json(capsys, ["obstruction", rep_path, d_path])
    assert code == 0
    assert payload["data"]["theta_is_zero"] is True


def test_cli_rmatrix_check(tmp_path, capsys):
    aff1_path = write(tmp_path, "aff1.json", AFF1)
    r_path = write(tmp_path, "r.json", {"wedge": {"0,1": 1}, "dim": 2})
    code, payload = run_json(capsys, ["rmatrix-check", aff1_path, r_path])
    assert code == 0
    data = payload["data"]
    assert data["wedge_square_zero"] is True
    assert data["cybe_zero"] is True
    assert data["o_operator"] == {"intertwines": True, "quadratic": True}
    assert data["routes_agree"] is True
    assert data["wedge_square"] == {}
    assert data["dual_algebra"]["brackets"] == {"0,1": ["-1", "0"]}

    sl2_path = write(tmp_path, "sl2.json", SL2)
    ef_path = write(tmp_path, "ef.json", {"wedge": {"1,2": 1}, "dim": 3})
    code, payload = run_json(capsys, ["rmatrix-check", sl2_path, ef_path])
    assert code == 1
    data = payload["data"]
    assert data["wedge_square_zero"] is False
    assert data["routes_agree"] is True
    assert data["wedge_square"] == {"0,1,2": "2"}
    assert "dual_algebra" not in data

    tw_path = write(tmp_path, "tw.json", TWISTED)
    code, _, err = run(capsys, ["rmatrix-check", tw_path, r_path])
    assert code == 2
    assert err.startswith("error:")


def test_cli_rmatrix_convert(tmp_path, capsys):
    r_path = write(tmp_path, "r.json", {"wedge": {"0,1": 1}, "dim": 2})
    out_path = str(tmp_path / "rmat.json")
    code, payload = run_json(capsys, ["rmatrix-convert", r_path,
                                      "--out", out_path])
    assert code == 0
    assert payload["data"] == {"matrix": [["0", "1"], ["-1", "0"]]}
    assert json.load(open(out_path)) == {"matrix": [["0", "1"], ["-1", "0"]]}

    code, payload = run_json(capsys, ["rmatrix-convert", out_path])
    assert code == 0
    assert payload["data"] == {"dim": 2, "wedge": {"0,1": "1"}}

    nodim = write(tmp_path, "nodim.json", {"wedge": {"0,1": 1}})
    code, _, err = run(capsys, ["rmatrix-convert", nodim])
    assert code == 2
    assert err.startswith("error:")
    code, payload = run_json(capsys, ["rmatrix-convert", nodim, "--dim", "2"])
    assert code == 0
    assert payload["data"] == {"matrix": [["0", "1"], ["-1", "0"]]}

    neither = write(tmp_path, "v.json", {"vector": [1, 0]})
    code, _, err = run(capsys, ["rmatrix-convert", neither])
    assert code == 2
    assert err.startswith("error:")


def test_cli_rmatrix_convert_refuses_non_positive_dims(tmp_path, capsys):
    """A tensor of dim <= 0 would convert to {"matrix": []}, which
    rmatrix-convert itself refuses to read back."""
    negative = write(tmp_path, "neg.json", {"wedge": {}, "dim": -2})
    empty = write(tmp_path, "empty.json", {"wedge": {}})
    for argv in ([negative], [empty, "--dim", "-1"], [empty, "--dim", "0"]):
        code, out, err = run(capsys, ["rmatrix-convert", *argv, "--json"])
        assert (code, out) == (2, "")
        assert "must be positive" in err


@pytest.mark.parametrize("rows, condition", [
    ([["0", "1", "0"], ["-1", "0", "0"]], "needs a square matrix"),
    ([["1", "0"], ["0", "1"]], "not skew-symmetric"),
])
def test_cli_rmatrix_convert_refuses_non_skew_matrices(tmp_path, capsys,
                                                       rows, condition):
    """Only a skew matrix is the r# of a two-tensor: a non-square or a
    non-skew matrix is a usage error that names the condition."""
    path = write(tmp_path, "m.json", {"matrix": rows})
    code, out, err = run(capsys, ["rmatrix-convert", path, "--json"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and condition in err, err


def test_cli_weak_hom_check(tmp_path, capsys):
    alg_path = write(tmp_path, "ab2.json", {"dim": 2})
    phi_path = write(tmp_path, "phi.json", {"matrix": [[2, 0], [0, 2]]})
    psi_path = write(tmp_path, "psi.json", ID2_DOC)
    r1_path = write(tmp_path, "r1.json", {"wedge": {"0,1": 1}, "dim": 2})
    r2_path = write(tmp_path, "r2.json", {"wedge": {"0,1": "1/2"}, "dim": 2})
    code, payload = run_json(capsys, ["weak-hom-check", alg_path, phi_path,
                                      psi_path, r1_path, r2_path])
    assert code == 0
    data = payload["data"]
    assert data["tensor_condition"] is True
    assert data["operator_hom_agrees"] is True
    assert set(data["operator_hom"]) == {
        "algebra_morphism", "operator_intertwine",
        "module_twist", "action_equivariant"}
    assert all(data["operator_hom"].values())

    code, payload = run_json(capsys, ["weak-hom-check", alg_path, phi_path,
                                      psi_path, r2_path, r1_path])
    assert code == 1
    assert payload["data"]["tensor_condition"] is False
    assert payload["data"]["operator_hom_agrees"] is True


def test_cli_weak_hom_check_refuses_non_square_maps(tmp_path, capsys):
    """A phi or psi that is not dim x dim is a usage error naming the
    map, not a traceback."""
    alg_path = write(tmp_path, "ab2.json", {"dim": 2})
    good = write(tmp_path, "id.json", ID2_DOC)
    tall = write(tmp_path, "tall.json",
                 {"matrix": [["2", "0"], ["0", "2"], ["0", "2"]]})
    r1_path = write(tmp_path, "r1.json", {"wedge": {"0,1": 1}, "dim": 2})
    r2_path = write(tmp_path, "r2.json", {"wedge": {"0,1": "1/2"}, "dim": 2})
    for name, maps in (("phi", [tall, good]), ("psi", [good, tall])):
        code, out, err = run(capsys, ["weak-hom-check", alg_path, *maps,
                                      r1_path, r2_path])
        assert (code, out) == (2, ""), name
        assert err.startswith(f"error: {name} must map the algebra"), err


def test_takiff12_cohomology_stays_sparse(tmp_path, capsys, monkeypatch):
    """Takiff-12 (t6 x| t6 for the adjoint action of t6 = sl2 x| sl2) with
    its adjoint representation: H^0..2 = 0, 4, 4, and no Matrix built for
    the table is larger than the 12 x 12 twist."""
    takiff6 = semidirect_product(adjoint_rep(sl2()))
    takiff12 = semidirect_product(adjoint_rep(takiff6))
    path = write(tmp_path, "takiff12.rep.json",
                 rep_to_dict(adjoint_rep(takiff12)))
    built = record_cohomology_matrices(monkeypatch)
    code, doc = run_json(capsys, ["cohomology", path, "--max-arity", "2"])
    assert code == 0
    assert [row["h"] for row in doc["data"]["table"]] == [0, 4, 4]
    assert [row["cochains"] for row in doc["data"]["table"]] == [
        12, 12 * 12, comb(12, 2) * 12]
    assert built and all(max(shape) <= 12 for _, shape in built)
