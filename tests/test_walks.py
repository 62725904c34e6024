"""The graded and r-matrix walks against the code they replaced.

circle_product, nr_bracket and derived_bracket walk the nonzero values
of one factor; graded_bracket_wedge sums the brackets per set of other
factors from the structure constants, and cybe_sum sums each passive
index first, both in ints; the structure constants are read off the
pair table, and adjoint_rep and dual_rep read them.  helpers keeps the
shuffle oracles of the circle product and the derived bracket, the
dense wedge bracket, the 12-term Yang-Baxter loop and the dense
adjoint and dual representations.  The algebras are the catalog and
small Lie algebras twisted by exp(c ad x) and by projections
(test_assembly's Yau twists), with coefficients whose denominators
are 2, 3 and 5.
"""

from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from homlie.alternating import increasing_tuples
from homlie.cochain import Cochain
from homlie.graded import circle_product, derived_bracket, nr_bracket
from homlie.linalg import sparse_rref, sparse_table
from homlie.rmatrix import (
    cybe_sum,
    graded_bracket_wedge,
    invariant_two_tensor_basis,
    invariant_wedge_basis,
    two_tensor_square,
    wedge_coeffs,
)
from homlie.structures import adjoint_rep, coadjoint_rep, dual_rep

from helpers import (
    count_calls,
    oracle_adjoint_rep,
    oracle_circle_product,
    oracle_cybe_sum,
    oracle_derived_bracket,
    oracle_dual_rep,
    oracle_graded_bracket_wedge,
    oracle_nr_bracket,
)
from test_assembly import LIE, complexes, twisted_algebras

SCALARS = st.sampled_from((0, 0, 1, -1, 2, Q(1, 2), Q(-1, 3), Q(2, 5),
                           Q(-3, 5), Q(5, 6)))


def canonical(values) -> bool:
    """Every value an int when integral, a Fraction otherwise."""
    return all(type(c) is int or (type(c) is Q and c.denominator > 1)
               for c in values)


@st.composite
def sparse_maps(draw, source_dim: int, target_dim: int, top: int = 2):
    """A cochain of arity 1 to top with a few nonzero values."""
    arity = draw(st.integers(1, top))
    tuples = increasing_tuples(source_dim, arity)
    keys = draw(st.lists(st.sampled_from(tuples), unique=True,
                         max_size=3)) if tuples else []
    return Cochain(arity, source_dim, target_dim, {
        key: tuple(draw(st.lists(SCALARS, min_size=target_dim,
                                 max_size=target_dim)))
        for key in keys})


def combination(data, basis: list) -> dict:
    """A random combination of sparse {key: coefficient} basis vectors."""
    out = {}
    for b in basis:
        c = data.draw(SCALARS)
        for key, q in b.items():
            out[key] = out.get(key, 0) + c * q
    return {key: q for key, q in out.items() if q}


@settings(max_examples=40, deadline=None)
@given(twisted_algebras(max_dim=3), st.data())
def test_circle_walk_equals_the_shuffle_product(g, data):
    """Endomorphism-valued cochains of arities 1-3 on (g, alpha)."""
    phi = data.draw(sparse_maps(g.dim, g.dim, 3))
    psi = data.draw(sparse_maps(g.dim, g.dim, 3))
    assert circle_product(phi, psi, g.alpha) == oracle_circle_product(
        phi, psi, g.alpha)
    assert nr_bracket(phi, psi, g.alpha) == oracle_nr_bracket(
        phi, psi, g.alpha)


@settings(max_examples=40, deadline=None)
@given(complexes(max_dim=3), st.data())
def test_derived_bracket_walk_equals_the_shuffle_oracle(rep, data):
    g = rep.algebra
    p = data.draw(sparse_maps(rep.dim, g.dim))
    q = data.draw(sparse_maps(rep.dim, g.dim))
    assert derived_bracket(rep, p, q) == oracle_derived_bracket(rep, p, q)
    assert derived_bracket(rep, p, p) == oracle_derived_bracket(rep, p, p)


@settings(max_examples=40, deadline=None)
@given(twisted_algebras(max_dim=4), st.data())
def test_wedge_brackets_and_cybe_parts_equal_the_replaced_loops(g, data):
    grade_u = data.draw(st.integers(1, min(3, g.dim)))
    grade_v = data.draw(st.integers(1, min(3, g.dim + 1 - grade_u)))
    u = combination(data, invariant_wedge_basis(g, grade_u))
    v = combination(data, invariant_wedge_basis(g, grade_v))
    found = graded_bracket_wedge(g, u, grade_u, v, grade_v)
    assert found == oracle_graded_bracket_wedge(g, u, grade_u, v, grade_v)
    assert canonical(found.values())
    basis = invariant_two_tensor_basis(g)
    if not basis:
        return
    r = basis[0].scale(0)
    for b in basis:
        r = r + b.scale(data.draw(SCALARS))
    square = two_tensor_square(g, r)
    d = wedge_coeffs(r)
    assert square == oracle_graded_bracket_wedge(g, d, 2, d, 2)
    assert canonical(square.values())
    cybe = cybe_sum(g, r)
    parts = (cybe.part_12_13, cybe.part_12_23, cybe.part_13_23, cybe.total)
    assert parts == oracle_cybe_sum(g, r)
    assert all(canonical(q for _, q in part) for part in parts)


def test_untwisted_coadjoint_inverts_no_twist_by_elimination(monkeypatch):
    """dual_rep of an identity twist runs no elimination and still gives
    the dense dual."""
    expected = {name: oracle_dual_rep(oracle_adjoint_rep(g, 0))
                for name, g in LIE.items()}
    calls = count_calls(monkeypatch, sparse_rref)
    for name, g in LIE.items():
        assert coadjoint_rep(g) == expected[name]
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(twisted_algebras(), st.integers(-1, 2))
def test_adjoint_and_dual_equal_the_dense_constructions(g, s):
    """The structure constants read off the pair table are the sparse
    table of every [e_i, e_j]; the adjoint and dual representations
    built from them are the dense constructions."""
    assert g.structure_constants == sparse_table(
        [[g.bracket_basis(i, j) for j in range(g.dim)] for i in range(g.dim)])
    if s < 0 and not g.is_regular:
        s = -s
    adjoint = adjoint_rep(g, s)
    assert adjoint == oracle_adjoint_rep(g, s)
    assert all(canonical(row) for m in adjoint.rho for row in m.rows)
    if g.is_regular:
        dual = dual_rep(adjoint)
        assert dual == oracle_dual_rep(oracle_adjoint_rep(g, s))
        assert all(canonical(row) for m in dual.rho for row in m.rows)
        assert coadjoint_rep(g) == oracle_dual_rep(oracle_adjoint_rep(g, 0))
