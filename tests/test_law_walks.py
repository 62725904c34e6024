"""The law checks and the deformed identity as walks, against the code
they replaced.

verify_hom_lie and verify_representation walk the nonzero structure
constants and the sparse columns of the twists; the deformed O-operator
identity (ooperator.identity_sides) walks the sparse columns and inner
actions of each coefficient (ooperator.coefficient_terms); and
extension_steps checks each solved order as Theta plus the four terms
that hold the new coefficient.  helpers keeps the dense per-tuple
checks (oracle_verify_hom_lie, oracle_verify_representation) and the
dense deformed identity (oracle_deformed_identity, oracle_inner_actions).
The inputs are test_assembly's Yau twists, singular projections among
them, and the catalog's twisted algebras, heisenberg3 under
diag(2, 1/2, 1) among them; their adjoint, coadjoint and trivial
representations; one-entry mutants of alpha, the bracket table, beta
and rho; and the golden corpus's deformations.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import homlie.deformation as deformation_module
from homlie.cochain import Cochain
from homlie.deformation import (
    TruncatedDeformation,
    extension_steps,
    formal_deformation_check,
    obstruction,
)
from homlie.io import load_deformation, load_rep
from homlie.linalg import Matrix, densify, vsub, vzero
from homlie.ooperator import coefficient_terms, identity_sides, is_o_operator
from homlie.reporting import Failure
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    pair_list,
    verify_hom_lie,
    verify_representation,
)

from helpers import (
    count_calls,
    oracle_deformed_identity,
    oracle_inner_actions,
    oracle_obstruction,
    oracle_verify_hom_lie,
    oracle_verify_representation,
)
from test_assembly import complexes, scalars

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def bumped(m: Matrix, r: int, c: int, delta) -> Matrix:
    rows = [list(row) for row in m.rows]
    rows[r][c] += delta
    return Matrix(rows, ncols=m.ncols)


def mutant(rep, target: str, index: tuple, delta) -> Representation:
    """rep with delta added to one entry of alpha, the bracket table,
    beta or one rho_i."""
    g, beta, rho = rep.algebra, rep.beta, list(rep.rho)
    if target in ("alpha", "table"):
        table, alpha = [list(v) for v in g.table], g.alpha
        if target == "alpha":
            alpha = bumped(alpha, *index, delta)
        else:
            table[index[0]][index[1]] += delta
        g = HomLieAlgebra(dim=g.dim, basis=g.basis, alpha=alpha,
                          table=tuple(map(tuple, table)))
    elif target == "beta":
        beta = bumped(beta, *index, delta)
    elif target == "rho":
        rho[index[0]] = bumped(rho[index[0]], *index[1:], delta)
    return Representation(algebra=g, dim=rep.dim, basis=rep.basis,
                          beta=beta, rho=tuple(rho))


def mutant_indices(rep, target: str) -> list:
    n, m = rep.algebra.dim, rep.dim
    shapes = {"none": (), "alpha": (n, n), "table": (len(pair_list(n)), n),
              "beta": (m, m), "rho": (n, m, m)}
    return list(product(*(range(size) for size in shapes[target])))


@st.composite
def mutants(draw):
    """A representation of complexes() or one of its one-entry mutants."""
    rep = draw(complexes(max_dim=4))
    target = draw(st.sampled_from(("none", "alpha", "table", "beta", "rho")))
    indices = mutant_indices(rep, target)
    if not indices:
        return rep
    return mutant(rep, target, draw(st.sampled_from(indices)),
                  draw(scalars.filter(bool)))


def assert_law_walks_equal_oracles(rep) -> tuple:
    """Both reports equal the dense per-tuple checks: the same failures,
    law, indices, lhs and rhs, in the same order."""
    hom_lie, module = verify_hom_lie(rep.algebra), verify_representation(rep)
    assert hom_lie == oracle_verify_hom_lie(rep.algebra)
    assert module == oracle_verify_representation(rep)
    return hom_lie.failures + module.failures


@settings(max_examples=150, deadline=None)
@given(mutants())
def test_law_walks_equal_the_dense_checks(rep):
    assert_law_walks_equal_oracles(rep)


def test_every_one_entry_mutant_of_the_twisted_heisenberg_algebra():
    """Every one-entry mutant of alpha, the bracket table, beta and rho
    of heisenberg3 twisted by diag(2, 1/2, 1), on its adjoint and
    coadjoint representations, gets the dense checks' reports; between
    them the mutants break all four laws."""
    g = catalog()["heisenberg3_twisted"]
    laws = set()
    for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
        assert not assert_law_walks_equal_oracles(rep)
        for target in ("alpha", "table", "beta", "rho"):
            for index in mutant_indices(rep, target):
                laws.update(f.law for f in assert_law_walks_equal_oracles(
                    mutant(rep, target, index, Q(1, 2))))
    assert laws == {"multiplicativity", "hom_jacobi", "twist_intertwine",
                    "module_equation"}


def oracle_sides(g, rep, coeffs, k) -> list:
    return [oracle_deformed_identity(g, rep, coeffs, k, a, b)
            for (a, b) in pair_list(rep.dim)]


def assert_identity_walk_equals_oracle(g, rep, coeffs) -> None:
    """Every order up to one past the last coefficient, the inner
    actions, Theta and the formal check's failures equal the dense
    deformed identity."""
    terms = [coefficient_terms(rep, t) for t in coeffs]
    for t, (_, inner) in zip(coeffs, terms):
        assert {pair: densify(dict(v), rep.dim) for pair, v in inner.items()} \
            == {(a, b): oracle_inner_actions(rep, [t], a, b)[0]
                for (a, b) in pair_list(rep.dim)}
    expected = []
    for k in range(len(coeffs) + 1):
        sides = oracle_sides(g, rep, coeffs, k)
        assert identity_sides(g, terms, k) == sides
        expected += [Failure("deformation_equation", (k, a, b),
                             vsub(lhs, rhs), vzero(g.dim))
                     for (a, b), (lhs, rhs) in zip(pair_list(rep.dim), sides)
                     if lhs != rhs and k < len(coeffs)]
    d = TruncatedDeformation.of(coeffs[0], coeffs[1:])
    if g.is_regular and rep.is_regular:
        report = formal_deformation_check(g, rep, d)
        assert [f for f in report.failures
                if f.law == "deformation_equation"] == expected
    failures = is_o_operator(g, rep, coeffs[0]).failures
    assert [f for f in failures if f.law == "o_operator_identity"] == [
        Failure("o_operator_identity", f.indices[1:], f.lhs, f.rhs)
        for f in expected if f.indices[0] == 0]


@st.composite
def deformations(draw):
    """A representation of complexes() with one to three random maps
    V -> g as the coefficients of a deformation."""
    rep = draw(complexes(max_dim=4))
    n, m = rep.algebra.dim, rep.dim
    count = draw(st.integers(1, 3))
    coeffs = [Matrix([[draw(scalars) for _ in range(m)] for _ in range(n)],
                     ncols=m) for _ in range(count)]
    return rep, coeffs


@settings(max_examples=120, deadline=None)
@given(deformations())
def test_deformed_identity_walk_equals_the_dense_identity(case):
    rep, coeffs = case
    assert_identity_walk_equals_oracle(rep.algebra, rep, coeffs)


def golden_deformations() -> list:
    """Each distinct (representation, deformation) pair of the golden
    corpus's deformation verbs."""
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as handle:
        cases = json.load(handle)
    pairs = {tuple(argv[1:3]) for argv in cases.values()
             if argv[0] in ("deform-check", "deform-extend", "obstruction")}
    return sorted(pairs)


@pytest.mark.parametrize("rep_file, deformation_file", golden_deformations())
def test_golden_deformations_walk_equals_the_dense_identity(
        rep_file, deformation_file):
    rep = load_rep(os.path.join(GOLDEN, rep_file))
    d = load_deformation(os.path.join(GOLDEN, deformation_file))
    g = rep.algebra
    assert_identity_walk_equals_oracle(g, rep, d.coefficients())
    if g.is_regular and rep.is_regular and formal_deformation_check(
            g, rep, d).ok:
        assert obstruction(g, rep, d) == oracle_obstruction(g, rep, d)


def sl2_start():
    rep = load_rep(os.path.join(GOLDEN, "inputs", "sl2.adjoint.rep.json"))
    d = load_deformation(os.path.join(GOLDEN, "inputs", "sl2.start.json"))
    return rep.algebra, rep, d


def test_each_solved_order_is_checked_on_the_indices_zero_and_k(monkeypatch):
    """After the input check (every order, every index), each step sums
    Theta_k over every index and then checks order k on the coefficient
    indices 0 and k alone, on top of Theta_k."""
    g, rep, d = sl2_start()
    calls = count_calls(monkeypatch, identity_sides)
    steps = list(extension_steps(g, rep, d, 4))
    assert [s.obstructed for s in steps] == [False] * (4 - d.order)
    expected = [(k, None) for k in range(d.order + 1)]
    for k in range(d.order + 1, 5):
        expected += [(k, None), (k, (0, k))]
    assert [(args[2], args[3]) for args in calls] == expected


def test_a_wrong_solution_fails_as_the_full_sum_does(monkeypatch):
    """A solver that returns a wrong X makes the Theta-reuse check raise
    the ValueError of obstruction with the first failure of the full
    deformed identity at that order, as formal_deformation_check finds
    it on the extended deformation."""
    g, rep, d = sl2_start()
    solve_of = deformation_module.coboundary_solver
    wrong = []

    def wrong_solver(complex_t, arity):
        dim_image, solve = solve_of(complex_t, arity)

        def solve_wrongly(rhs):
            x = solve(rhs) + Cochain.from_linear_map(Matrix(
                [[int(i == j == 1) for j in range(rep.dim)]
                 for i in range(g.dim)], ncols=rep.dim))
            wrong.append(x.as_matrix())
            return x

        return dim_image, solve_wrongly

    monkeypatch.setattr(deformation_module, "coboundary_solver", wrong_solver)
    with pytest.raises(ValueError) as raised:
        list(extension_steps(g, rep, d, d.order + 1))
    extended = TruncatedDeformation.of(d.base, d.terms + (wrong[-1],))
    found = [f for f in formal_deformation_check(g, rep, extended).failures
             if f.law == "deformation_equation"]
    assert found and found[0].indices[0] == d.order + 1
    assert str(raised.value) == (
        f"obstruction needs a valid deformation: {found[0]}")
