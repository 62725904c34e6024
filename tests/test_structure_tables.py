"""The sparse structure-constant tables against dense oracles.

bracket, act, rho_of and HomPreLie.product read one sparse table per
object, and cybe_sum expands from the bracket table and the sparse twist
columns.  Each is compared with the dense loops in helpers.py, which
read the stored brackets, actions and products directly.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homlie.linalg import Matrix, Q
from homlie.ooperator import HomPreLie
from homlie.rmatrix import WedgeTwoTensor, cybe_sum, invariant_two_tensor_basis
from homlie.structures import (
    HomLieAlgebra,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    pair_list,
)

from helpers import (
    _tbl_bracket,
    algebra_tables,
    oracle_bilinear,
    oracle_cybe_sum,
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
    assert_cybe_equals_oracle(g, WedgeTwoTensor.from_dict(g.dim, entries))


@settings(max_examples=20, deadline=None)
@given(scalars)
def test_cybe_sum_on_invariant_tensors_of_a_twisted_algebra(c):
    """alpha = diag(2, 1/2, 1) fixes exactly the multiples of e1 ^ e2."""
    g = FIXTURES["heisenberg3_twisted"]
    assert g.alpha != Matrix.identity(3)
    (basis,) = invariant_two_tensor_basis(g)
    assert_cybe_equals_oracle(g, basis.scale(c))
