"""Golden corpus: every CLI verb replayed against recorded output.

tests/golden/cases.json maps a case name to its argv; arguments that
start with "inputs/" name documents under tests/golden/inputs/.  The
stdout of each case is recorded byte for byte in
tests/golden/stdout/<name>.txt and its exit code in
tests/golden/exit_codes.json.  A refactor that keeps these outputs
identical changed no verdict, failure string or number a user can see.

To record the corpus again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import json
import os
import subprocess
import sys

import pytest

import homlie.cli as cli_module
import homlie.cochain as cochain_module
from homlie.cli import build_parser, main
from homlie.cochain import Cochain
from homlie.deformation import (
    formal_deformation_check,
    nijenhuis_element_check,
)
from homlie.io import load_operator
from homlie.linalg import Matrix, densify, rref_kernel
from homlie.ooperator import coefficient_terms, is_o_operator, rho_t
from homlie.rmatrix import is_r_matrix
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    coadjoint_rep,
    semidirect_product,
)

from helpers import count_calls, patch_everywhere, record_cohomology_matrices

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _load(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return json.load(handle)


CASES = _load("cases.json")


def _resolve(argv):
    return [os.path.join(GOLDEN, a) if a.startswith("inputs/") else a
            for a in argv]


def _replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(_resolve(argv))
    return code, out.getvalue()


def _stdout_path(name):
    return os.path.join(GOLDEN, "stdout", f"{name}.txt")


def test_corpus_covers_every_verb():
    parser = build_parser()
    verbs = set(parser._subparsers._group_actions[0].choices)
    assert verbs == {argv[0] for argv in CASES.values()}
    codes = _load("exit_codes.json")
    assert set(codes) == set(CASES)
    assert {0, 1, 2} <= set(codes.values())


def _expected(name):
    with open(_stdout_path(name), encoding="utf-8", newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = _replay(CASES[name])
    assert out == _expected(name)
    assert code == _load("exit_codes.json")[name]


def _cases(verb):
    return {name: argv for name, argv in CASES.items() if argv[0] == verb}


def test_check_o_operator_builds_the_semidirect_sum_once(monkeypatch):
    """The Nijenhuis, graph and Maurer-Cartan routes share one g + V."""
    calls = count_calls(monkeypatch, semidirect_product)
    for name, argv in _cases("check-o-operator").items():
        calls.clear()
        assert _replay(argv)[1] == _expected(name)
        assert len(calls) == 1, name


def test_rmatrix_check_decides_once(monkeypatch):
    """The dual bracket of an r-matrix reuses the verdict and the
    coadjoint representation of the check."""
    decided = count_calls(monkeypatch, is_r_matrix)
    coadjoint = count_calls(monkeypatch, coadjoint_rep)
    duals = 0
    for name, argv in _cases("rmatrix-check").items():
        decided.clear()
        coadjoint.clear()
        out = _replay(argv)[1]
        assert out == _expected(name)
        assert len(decided) == 1, name
        assert len(coadjoint) <= 1, name
        duals += '"dual_algebra"' in out
    assert duals >= 3


def test_coadjoint_rep_inverts_one_twist(monkeypatch):
    """The adjoint representation's beta is alpha, so its dual inverts
    one twist: every coadjoint_rep call makes one Matrix.inverse call."""
    inverses, counts = [], []
    inverse = Matrix.inverse

    def counting_inverse(self):
        if inverses:
            inverses[-1] += 1
        return inverse(self)

    def recording(g):
        inverses.append(0)
        try:
            return coadjoint_rep(g)
        finally:
            counts.append(inverses.pop())

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    patch_everywhere(monkeypatch, coadjoint_rep, recording)
    for name, argv in CASES.items():
        assert _replay(argv)[1] == _expected(name)
    assert counts and set(counts) == {1}, collections.Counter(counts)


def test_cohomology_builds_no_action_matrix(monkeypatch):
    """The axiom checks before a table and delta assembly read the
    sparse tables: no cohomology case calls Representation.rho_of."""
    calls = []
    rho_of = Representation.rho_of

    def counting(self, x):
        calls.append(x)
        return rho_of(self, x)

    monkeypatch.setattr(Representation, "rho_of", counting)
    cases = _cases("cohomology")
    for name, argv in cases.items():
        assert _replay(argv)[1] == _expected(name)
    assert len(cases) >= 3 and calls == []


def test_deform_extend_builds_the_complex_once(monkeypatch):
    """One deform-extend call checks its input once and builds one
    operator complex and one delta_1, however many orders it solves,
    obstructed or not."""
    complexes = count_calls(monkeypatch, rho_t)
    checks = count_calls(monkeypatch, formal_deformation_check)
    columns = count_calls(monkeypatch, cochain_module._coboundary_columns)
    ran = 0
    for name, argv in _cases("deform-extend").items():
        for calls in (complexes, checks, columns):
            calls.clear()
        code, out = _replay(argv)
        assert out == _expected(name)
        if code == 2:
            continue
        assert len(complexes) == 1, name
        assert len(checks) == 1, name
        assert [args[1] for args in columns].count(1) == 1, name
        ran += 1
    assert ran == 6


def test_deform_extend_computes_each_inner_action_once(monkeypatch):
    """{T_j e_a, e_b} - {T_j e_b, e_a} is computed once per coefficient
    T_j and pair (a, b): one coefficient_terms call per coefficient
    covers every pair, the input check's terms are kept, and each
    solved order adds only those of its new term."""
    calls = count_calls(monkeypatch, coefficient_terms)
    ran = 0
    for name, argv in _cases("deform-extend").items():
        calls.clear()
        code, out = _replay(argv)
        assert out == _expected(name)
        if code == 2:
            continue
        computed = collections.Counter(id(t) for _, t in calls)
        reached = json.loads(out)["data"]["reached_order"]
        assert set(computed.values()) == {1}, name
        assert len(computed) == reached + 1, name
        ran += 1
    assert ran == 6


def test_law_checks_call_neither_bracket_nor_act(monkeypatch):
    """The algebra and module checks of cohomology, the complex of T and
    the deformed identity walk the structure constants: no golden case
    of cohomology, check-linear-deformation, deform-check, deform-extend
    or obstruction calls HomLieAlgebra.bracket or Representation.act."""
    calls = []
    for cls, name in ((HomLieAlgebra, "bracket"), (Representation, "act")):
        def counting(self, *args, _method=getattr(cls, name), _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counting)
    verbs = ("cohomology", "check-linear-deformation", "deform-check",
             "deform-extend", "obstruction")
    cases = {name: argv for verb in verbs for name, argv in _cases(verb).items()}
    for name, argv in cases.items():
        assert _replay(argv)[1] == _expected(name)
    assert len(cases) >= 20 and calls == []


def test_deformation_verbs_check_the_base_once(monkeypatch):
    """deform-check reads the base's verdict off its formal check, and
    its infinitesimal check takes that report instead of certifying the
    base again; obstruction validates the whole deformation first.  So
    neither makes an is_o_operator call at all."""
    calls = count_calls(monkeypatch, is_o_operator)
    infinitesimals = 0
    for name, argv in {**_cases("deform-check"),
                       **_cases("obstruction")}.items():
        calls.clear()
        out = _replay(argv)[1]
        assert out == _expected(name)
        assert len(calls) == 0, name
        data = json.loads(out)["data"] if out else {}
        infinitesimals += (argv[0] == "deform-check"
                           and data.get("infinitesimal") is not None)
    assert infinitesimals == 4


def test_nijenhuis_element_checks_the_base_and_element_once(monkeypatch):
    """nijenhuis-element certifies T with one is_o_operator call and runs
    nijenhuis_element_check once.  The only other is_o_operator call is
    the linear deformation check of the generator K, when there is one."""
    operator_checks = count_calls(monkeypatch, is_o_operator)
    element_checks = count_calls(monkeypatch, nijenhuis_element_check)
    for name, argv in _cases("nijenhuis-element").items():
        operator_checks.clear()
        element_checks.clear()
        out = _replay(argv)[1]
        assert out == _expected(name)
        generator = json.loads(out)["data"]["generator"]
        checked = [args[2] for args in operator_checks]
        assert checked[0] == load_operator(_resolve(argv)[2]), name
        assert len(checked) == 1 + (generator is not None), name
        assert len(element_checks) == 1, name


def test_cohomology_keeps_its_basis_sparse(monkeypatch):
    """While cohomology_table runs, every compatible basis stays a list of
    sparse flats: no Cochain is built, densify is not called, and
    rref_kernel returns only dicts."""
    active, written = [], []

    def spy(name, func):
        @functools.wraps(func)
        def recording(*args, **kwargs):
            result = func(*args, **kwargs)
            if active and (name != "rref_kernel" or not all(
                    isinstance(v, dict) for v in result)):
                written.append(name)
            return result
        return recording

    monkeypatch.setattr(Cochain, "__post_init__",
                        spy("__post_init__", Cochain.__post_init__))
    for func in (densify, rref_kernel):
        for module in (m for n, m in list(sys.modules.items())
                       if n == "homlie" or n.startswith("homlie.")):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key,
                                        spy(func.__name__, func))
    table = cli_module.cohomology_table

    def recording_table(rep, top):
        active.append(rep)
        try:
            return table(rep, top)
        finally:
            active.pop()

    monkeypatch.setattr(cli_module, "cohomology_table", recording_table)
    tables = 0
    for name, argv in _cases("cohomology").items():
        written.clear()
        before = tables
        code, out = _replay(argv)
        assert out == _expected(name)
        tables += '"table"' in out
        assert written == [], (name, collections.Counter(written))
        assert tables > before or code != 0, name
    assert tables == 5


def test_each_twist_is_eliminated_at_most_once_per_verb(monkeypatch):
    """Regularity is decided once per twist: in every golden verb no
    Matrix is ranked twice, even where two structures share a twist (the
    operator complex of cohomology --operator swaps alpha and beta), and
    cohomology, deform-extend and obstruction rank two twists at most."""
    ranked = []
    rank = Matrix.rank

    def recording(self):
        ranked.append(self)
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", recording)
    for name, argv in CASES.items():
        ranked.clear()
        assert _replay(argv)[1] == _expected(name), name
        assert len({id(m) for m in ranked}) == len(ranked), name
        if argv[0] in ("cohomology", "deform-extend", "obstruction"):
            assert len(ranked) <= 2, (name, len(ranked))


def test_golden_verbs_build_no_cochain_holding_a_zero_vector(monkeypatch):
    """A Cochain keeps only its nonzero values: no Cochain built on the
    way through any golden case stores a zero coefficient vector."""
    counts = collections.Counter()
    post_init = Cochain.__post_init__

    def checked(self):
        post_init(self)
        counts["cochains"] += 1
        counts["values"] += len(self.values)
        counts["zero"] += sum(not any(v) for v in self.values.values())

    monkeypatch.setattr(Cochain, "__post_init__", checked)
    for name, argv in CASES.items():
        assert _replay(argv)[1] == _expected(name), name
    assert counts["zero"] == 0, counts
    assert counts["cochains"] > 50 and counts["values"] > 100, counts


def test_cohomology_builds_no_matrix_larger_than_its_twists(monkeypatch):
    """Ranks and compatible bases are eliminated on sparse rows: while
    cohomology_table runs, no Matrix has more rows or columns than the
    larger twist of the complex."""
    built = record_cohomology_matrices(monkeypatch)
    tables = 0
    for name, argv in _cases("cohomology").items():
        built.clear()
        assert _replay(argv)[1] == _expected(name)
        assert all(max(shape) <= twist for twist, shape in built), (
            name, max(built, key=lambda entry: max(entry[1])))
        tables += bool(built)
    assert tables == 5


def test_repeated_calls_in_one_process_share_one_parser(monkeypatch):
    """The whole corpus twice, forwards then backwards, with two usage
    errors in between: every output is still the golden one.  No golden
    call builds an ArgumentParser; the first usage error builds the full
    tree once (the root and its 17 verbs), and nothing after it builds
    another."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    codes = _load("exit_codes.json")
    names = sorted(CASES)
    for name in names:
        assert _replay(CASES[name]) == (codes[name], _expected(name)), name
    assert built == []
    for argv, message in (([], "required: verb"),
                          (["no-such-verb"], "invalid choice")):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert err.getvalue().startswith("usage: homlie")
        assert message in err.getvalue()
    assert collections.Counter(built) == {
        "homlie": 1, **{f"homlie {verb}": 1 for verb in cli_module.VERBS}}
    for name in reversed(names):
        assert _replay(CASES[name]) == (codes[name], _expected(name)), name
    assert len(built) == 18


def test_a_well_formed_call_builds_no_parser():
    """One well-formed main call in a fresh interpreter constructs no
    ArgumentParser: the verb's arguments are read off cli.VERBS."""
    script = (
        "import argparse, contextlib, io, sys\n"
        "from homlie.cli import main\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, built)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = _resolve(["cohomology", "inputs/sl2.adjoint.rep.json", "--json"])
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert done.stdout == "0 []\n"


def test_python_m_homlie_matches_in_process_main():
    argv = ["verify-algebra", "inputs/aff1.algebra.json", "--json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cold = subprocess.run([sys.executable, "-m", "homlie", *_resolve(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    code, out = _replay(argv)
    assert (cold.returncode, cold.stdout, cold.stderr) == (code, out, "")
    assert code == 0 and json.loads(out)["verb"] == "verify-algebra"


def record():
    os.makedirs(os.path.join(GOLDEN, "stdout"), exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        code, out = _replay(CASES[name])
        codes[name] = code
        with open(_stdout_path(name), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w",
              encoding="utf-8") as handle:
        json.dump(codes, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(codes)} cases", file=sys.stderr)


if __name__ == "__main__":
    record()
