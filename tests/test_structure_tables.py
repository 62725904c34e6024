"""The sparse structure-constant tables against dense oracles.

bracket, act, rho_of and HomPreLie.product read one sparse table per
object, and cybe_sum expands from the bracket table and the sparse twist
columns.  Each is compared with the dense loops in helpers.py, which
read the stored brackets, actions and products directly.

verify_hom_lie, verify_representation, dual_rep and the action entries
of delta read those tables column by column.  Each must return exactly
what its dense path in helpers.py returns (one rho_of matrix per basis
vector or pair), failure order included, also on inputs with one entry
of alpha, beta or rho perturbed.
"""

from __future__ import annotations

import collections
from fractions import Fraction
from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

import homlie.cochain as cochain_module
from homlie.linalg import Matrix, Q, matrix
from homlie.ooperator import HomPreLie, rho_t
from homlie.rmatrix import cybe_sum, invariant_two_tensor_basis, skew_matrix
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    dual_rep,
    from_lie_with_morphism,
    pair_list,
    semidirect_product,
    trivial_rep,
    verify_hom_lie,
    verify_representation,
)

from helpers import (
    _tbl_bracket,
    algebra_tables,
    oracle_action_entries,
    oracle_bilinear,
    oracle_cybe_sum,
    oracle_dual_rep,
    oracle_verify_hom_lie,
    oracle_verify_representation,
    rep_tables,
)

FIXTURES = catalog()
REPS = {(name, kind): make(g) for name, g in FIXTURES.items()
        for kind, make in (("adjoint", adjoint_rep),
                           ("coadjoint", coadjoint_rep))}

# Rationals with zero drawn often, so supports of every size show up.
scalars = st.one_of(st.just(Q(0)), st.builds(
    Fraction, st.integers(min_value=-3, max_value=3),
    st.sampled_from((1, 2, 3))))


def vectors(n):
    return st.lists(scalars, min_size=n, max_size=n).map(tuple)


def dense_bracket(g):
    table, _ = algebra_tables(g)
    return lambda i, j: _tbl_bracket(table, g.dim, i, j)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(REPS)), st.data())
def test_bracket_act_and_rho_of_equal_dense_oracles(key, data):
    rep = REPS[key]
    g = rep.algebra
    x, y = data.draw(vectors(g.dim)), data.draw(vectors(g.dim))
    v = data.draw(vectors(rep.dim))
    _, rho_list = rep_tables(rep)

    def action(i, j):
        return [row[j] for row in rho_list[i]]

    assert g.bracket(x, y) == oracle_bilinear(x, y, dense_bracket(g), g.dim)
    assert rep.act(x, v) == oracle_bilinear(x, v, action, rep.dim)
    rows = [[sum((c * rho_list[i][r][s] for i, c in enumerate(x)),
                 Fraction(0)) for s in range(rep.dim)]
            for r in range(rep.dim)]
    assert rep.rho_of(x) == Matrix(rows, ncols=rep.dim)


@st.composite
def sparse_algebras(draw):
    """Random bracket tables, most pairs zero, no axioms imposed."""
    dim = draw(st.integers(min_value=1, max_value=4))
    brackets = {}
    for pair in pair_list(dim):
        if draw(st.booleans()):
            brackets[pair] = draw(vectors(dim))
    return HomLieAlgebra.build(dim=dim, brackets=brackets)


@settings(max_examples=40, deadline=None)
@given(sparse_algebras(), st.data())
def test_tables_with_zero_pairs_equal_dense_oracles(g, data):
    n = g.dim
    x, y = data.draw(vectors(n)), data.draw(vectors(n))
    assert g.bracket(x, y) == oracle_bilinear(x, y, dense_bracket(g), n)
    flat = data.draw(vectors(n ** 3))
    table = tuple(tuple(flat[(i * n + j) * n:(i * n + j + 1) * n]
                        for j in range(n)) for i in range(n))
    pre_lie = HomPreLie(dim=g.dim, basis=g.basis, twist=g.alpha, table=table)
    assert pre_lie.product(x, y) == oracle_bilinear(
        x, y, lambda i, j: table[i][j], g.dim)


def assert_cybe_equals_oracle(g, r):
    found = cybe_sum(g, r)
    assert (found.part_12_13, found.part_12_23, found.part_13_23,
            found.total) == oracle_cybe_sum(g, r)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIXTURES)), st.data())
def test_cybe_sum_equals_the_twelve_term_oracle(name, data):
    g = FIXTURES[name]
    entries = {pair: data.draw(scalars) for pair in pair_list(g.dim)}
    assert_cybe_equals_oracle(g, skew_matrix(g.dim, entries))


@settings(max_examples=20, deadline=None)
@given(scalars)
def test_cybe_sum_on_invariant_tensors_of_a_twisted_algebra(c):
    """alpha = diag(2, 1/2, 1) fixes exactly the multiples of e1 ^ e2."""
    g = FIXTURES["heisenberg3_twisted"]
    assert g.alpha != Matrix.identity(3)
    (basis,) = invariant_two_tensor_basis(g)
    assert_cybe_equals_oracle(g, basis.scale(c))


# ------------------------------------ checks and dual against dense paths


def _oracle_reps() -> dict:
    """The catalog x {adjoint, coadjoint, trivial}, the alpha-twisted
    adjoint, sl2 twisted by exp(ad e) (a twist that is not diagonal),
    sl2 x| sl2 and the coefficients of its operator complex."""
    makers = {"adjoint": lambda g: adjoint_rep(g, 0),
              "adjoint1": lambda g: adjoint_rep(g, 1),
              "coadjoint": coadjoint_rep,
              "trivial": trivial_rep}
    algebras = dict(FIXTURES)
    algebras["sl2_nondiagonal"] = from_lie_with_morphism(
        FIXTURES["sl2"], matrix([[1, 0, 1], [-2, 1, -1], [0, 0, 1]]))
    reps = {f"{name}-{kind}": make(g) for name, g in algebras.items()
            for kind, make in makers.items()}
    semi = semidirect_product(adjoint_rep(FIXTURES["sl2"], 0))
    reps["sl2xsl2-adjoint"] = adjoint_rep(semi, 0)
    t = Matrix(tuple(tuple(1 if (i, j) == (1, 2) else 0 for j in range(6))
                     for i in range(6)), ncols=6)
    reps["sl2xsl2-operator"] = rho_t(semi, reps["sl2xsl2-adjoint"], t)
    return reps


ORACLE_REPS = _oracle_reps()


def _bump(m, r, c, delta):
    rows = [list(row) for row in m.rows]
    rows[r][c] += delta
    return Matrix(rows, ncols=m.ncols)


def perturbed(rep, target, index, delta):
    """rep with delta added to one entry of alpha, beta or rho[k]."""
    g, beta, rho = rep.algebra, rep.beta, list(rep.rho)
    if target == "alpha":
        g = HomLieAlgebra(dim=g.dim, basis=g.basis, table=g.table,
                          alpha=_bump(g.alpha, *index, delta))
    elif target == "beta":
        beta = _bump(beta, *index, delta)
    elif target == "rho":
        k, r, c = index
        rho[k] = _bump(rho[k], r, c, delta)
    return Representation(algebra=g, dim=rep.dim, basis=rep.basis,
                          beta=beta, rho=tuple(rho))


def single_bumps(rep, delta=Q(1)):
    """Every single-entry perturbation of alpha, beta and each rho_i."""
    n, m = rep.algebra.dim, rep.dim
    for index in product(range(n), range(n)):
        yield perturbed(rep, "alpha", index, delta)
    for index in product(range(m), range(m)):
        yield perturbed(rep, "beta", index, delta)
    for index in product(range(n), range(m), range(m)):
        yield perturbed(rep, "rho", index, delta)


@st.composite
def oracle_inputs(draw):
    rep = ORACLE_REPS[draw(st.sampled_from(sorted(ORACLE_REPS)))]
    target = draw(st.sampled_from(("none", "alpha", "beta", "rho")))
    n, m = rep.algebra.dim, rep.dim
    shape = {"none": (), "alpha": (n, n), "beta": (m, m), "rho": (n, m, m)}
    index = tuple(draw(st.integers(min_value=0, max_value=size - 1))
                  for size in shape[target])
    delta = draw(scalars.filter(bool))
    return perturbed(rep, target, index, delta)


def dual_outcome(build, rep):
    try:
        return build(rep)
    except ValueError as exc:
        return str(exc)


def assert_checks_equal_dense_paths(rep):
    hom_lie = verify_hom_lie(rep.algebra)
    report = verify_representation(rep)
    assert hom_lie == oracle_verify_hom_lie(rep.algebra)
    assert report == oracle_verify_representation(rep)
    assert dual_outcome(dual_rep, rep) == dual_outcome(oracle_dual_rep, rep)
    return hom_lie.failures + report.failures


@settings(max_examples=120, deadline=None)
@given(oracle_inputs())
def test_checks_and_dual_equal_the_dense_paths(rep):
    assert_checks_equal_dense_paths(rep)


def test_single_entry_perturbations_equal_the_dense_paths():
    """Every one-entry perturbation of three representations, two of
    them twisted, gets the dense paths' reports and dual; between them
    they break all four laws."""
    laws = collections.Counter()
    for key in ("sl2-adjoint", "aff1_twisted-coadjoint",
                "heisenberg3_twisted-adjoint1"):
        for rep in single_bumps(ORACLE_REPS[key]):
            laws.update(f.law for f in assert_checks_equal_dense_paths(rep))
    assert set(laws) == {"multiplicativity", "hom_jacobi",
                         "twist_intertwine", "module_equation"}


@settings(max_examples=60, deadline=None)
@given(oracle_inputs(), st.data())
def test_delta_columns_equal_those_from_rho_of_entries(rep, data):
    """delta reads rho(alpha^{n-1} e_i) off the sparse table; with the
    entries of rho_of matrices instead, it gives the same columns, in
    the same order."""
    low = 0 if rep.algebra.is_regular else 1
    arity = data.draw(st.integers(min_value=low,
                                  max_value=min(rep.algebra.dim, 3)))
    actor = rep.algebra.alpha_power(arity - 1)
    for i in range(rep.algebra.dim):
        x = actor.column(i)
        assert (cochain_module._action_entries(rep, x)
                == oracle_action_entries(rep, x))
    every = range(cochain_module._flat_size(rep, arity))
    with mock.patch.object(cochain_module, "_action_entries",
                           oracle_action_entries):
        expected = cochain_module._coboundary_columns(rep, arity, every)
    found = cochain_module._coboundary_columns(rep, arity, every)
    assert [(k, list(c.items())) for k, c in found.items()] == [
        (k, list(c.items())) for k, c in expected.items()]
