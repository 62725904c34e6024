"""O-operators, Rota-Baxter operators, Nijenhuis operators, and the
structures they induce.

The variety tests enumerate small integer grids and compare the checker
against closed-form membership conditions worked out by hand.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from homlie.cochain import Cochain, compatible_maps_basis, coboundary
from homlie.graded import derived_bracket
from homlie.linalg import Matrix, matrix
from homlie.ooperator import (
    HomPreLie,
    build_nt,
    graph_check,
    induced_hom_pre_lie,
    is_o_operator,
    is_rota_baxter,
    nijenhuis_operator_check,
    o_operator_hom_check,
    o_operator_maurer_cartan_check,
    rb_induced_bracket,
    rho_t,
    subadjacent,
    verify_hom_pre_lie,
)
from homlie.structures import (
    adjoint_rep,
    catalog,
    coadjoint_rep,
    semidirect_product,
    verify_hom_lie,
    verify_representation,
)

from helpers import (
    oracle_rb_induced_bracket,
    oracle_rota_baxter,
    rand_matrix,
)
from test_assembly import twisted_algebras

FIXTURES = catalog()

GRID = [Q(v) for v in (-1, 0, 1, 2)]


def grid_matrices():
    for a, b, c, d in itertools.product(GRID, repeat=4):
        yield matrix([[a, b], [c, d]])


def test_variety_aff1_adjoint():
    """On ([e1,e2] = e2, identity twist) with the adjoint action, T =
    [[a,b],[c,d]] is an O-operator iff b(a+d) = 0 and d^2 + bc = 0."""
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    hits = 0
    for t in grid_matrices():
        a, b = t.entry(0, 0), t.entry(0, 1)
        c, d = t.entry(1, 0), t.entry(1, 1)
        expected = (b * (a + d) == 0) and (d * d + b * c == 0)
        report = is_o_operator(g, rep, t)
        assert report.intertwines
        assert report.ok == expected, (a, b, c, d)
        hits += expected
    assert hits > 10


def test_variety_aff1_twisted_adjoint():
    """On the twisted line algebra the O-operators for the adjoint
    action are exactly diag(a, 0)."""
    g = FIXTURES["aff1_twisted"]
    rep = adjoint_rep(g, 0)
    for t in grid_matrices():
        a, b = t.entry(0, 0), t.entry(0, 1)
        c, d = t.entry(1, 0), t.entry(1, 1)
        expected = (b == 0 and c == 0 and d == 0)
        assert is_o_operator(g, rep, t).ok == expected, (a, b, c, d)


def test_four_route_agreement_on_grid():
    """is_o_operator, graph closure, N_T on the semidirect sum, and the
    Maurer-Cartan square agree verdict-for-verdict."""
    for name in ("aff1", "aff1_twisted"):
        g = FIXTURES[name]
        rep = adjoint_rep(g, 0)
        semi = semidirect_product(rep)
        for t in grid_matrices():
            direct = is_o_operator(g, rep, t).ok
            graph = graph_check(g, rep, t).ok
            nijenhuis = nijenhuis_operator_check(semi, build_nt(t)).ok
            mc = o_operator_maurer_cartan_check(g, rep, t).ok
            assert direct == graph == nijenhuis == mc, (name, t.rows)


def test_bare_nijenhuis_identity_is_weaker():
    """[[1,0],[1,0]] on the twisted line satisfies the bare Nijenhuis
    identity and the quadratic identity but fails every twist condition,
    so all four routes still agree on rejection."""
    g = FIXTURES["aff1_twisted"]
    rep = adjoint_rep(g, 0)
    semi = semidirect_product(rep)
    t = matrix([[1, 0], [1, 0]])
    direct = is_o_operator(g, rep, t)
    assert direct.quadratic and not direct.intertwines
    nij = nijenhuis_operator_check(semi, build_nt(t))
    assert nij.identity and not nij.commutes_with_twist
    mc = o_operator_maurer_cartan_check(g, rep, t)
    assert mc.derived_square_zero and not mc.twist_compatible
    graph = graph_check(g, rep, t)
    assert graph.bracket_closed and not graph.twist_closed
    assert not (direct.ok or nij.ok or mc.ok or graph.ok)


def test_build_nt_blocks():
    t = matrix([[1, 2], [3, 4]])
    n = build_nt(t)
    assert n.rows == (
        (Q(0), Q(0), Q(1), Q(2)),
        (Q(0), Q(0), Q(3), Q(4)),
        (Q(0), Q(0), Q(0), Q(0)),
        (Q(0), Q(0), Q(0), Q(0)),
    )


def test_nijenhuis_operator_on_algebra():
    """Hand-expanding [Nx,Ny] = N([Nx,y] - [Ny,x] - N[x,y]) on
    [e1,e2] = e2 shows every 2x2 matrix satisfies it, while on sl2 the
    projection diag(1,0,0) fails it at the pair (e, f)."""
    g = FIXTURES["aff1"]
    for n in grid_matrices():
        assert nijenhuis_operator_check(g, n).ok, n.rows
    sl2 = FIXTURES["sl2"]
    assert nijenhuis_operator_check(sl2, Matrix.identity(3).scale(Q(3))).ok
    bad = nijenhuis_operator_check(
        sl2, matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert not bad.identity
    assert any(f.law == "nijenhuis_identity" and f.indices == (1, 2)
               for f in bad.failures)


def test_rota_baxter_weights():
    """The identity map is a weight -1 Rota-Baxter operator but not a
    weight 0 one on any algebra with a nonzero bracket."""
    g = FIXTURES["aff1"]
    eye = Matrix.identity(2)
    assert is_rota_baxter(g, eye, 0, Q(-1)).ok
    report = is_rota_baxter(g, eye, 0, Q(0))
    assert report.commutes_with_twist and not report.identity
    # weight passed as int or string-compatible scalar behaves the same
    assert is_rota_baxter(g, eye, 0, -1).ok


def test_rota_baxter_matches_adjoint_o_operator():
    """Weight-zero degree-s Rota-Baxter <=> O-operator for ad^s,
    condition by condition."""
    rng = random.Random(31)
    for name, g in FIXTURES.items():
        for s in (0, 1, 2):
            rep = adjoint_rep(g, s)
            for _ in range(8):
                r = rand_matrix(rng, g.dim, g.dim)
                rb = is_rota_baxter(g, r, s, Q(0))
                oo = is_o_operator(g, rep, r)
                assert rb.commutes_with_twist == oo.intertwines, (name, s)
                assert rb.identity == oo.quadratic, (name, s)
                assert rb.ok == oo.ok, (name, s)


def test_rb_induced_bracket_matches_subadjacent():
    """The descendent bracket of a weight-zero Rota-Baxter operator, the
    sub-adjacent bracket of the induced hom-pre-Lie product, equals the
    dense formula [alpha^s R x, y] + [x, alpha^s R y]."""
    rng = random.Random(32)
    for name in ("aff1", "sl2", "heisenberg3_twisted"):
        g = FIXTURES[name]
        for s in (0, 1):
            for _ in range(5):
                r = rand_matrix(rng, g.dim, g.dim)
                via_pre_lie = rb_induced_bracket(g, r, s)
                direct = oracle_rb_induced_bracket(g, r, s)
                assert via_pre_lie.brackets_dict() == direct.brackets_dict()
                assert via_pre_lie.alpha == direct.alpha
                assert via_pre_lie.basis == direct.basis


weights = st.one_of(st.sampled_from((0, 1, -1)),
                    st.builds(Q, st.integers(-5, 5), st.integers(1, 5)))
entries = st.one_of(st.just(0), st.integers(-2, 2),
                    st.sampled_from((Q(1, 2), Q(-1, 3))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(list(FIXTURES.values())),
                 twisted_algebras()), weights, st.data())
def test_rota_baxter_failures_match_the_dense_formula(g, weight, data):
    """Every failure of is_rota_baxter, text included and in order, is
    the one the dense formula gives, at weights 0, +-1 and p/q and
    degrees 0, 1, 2 (and -1 on a regular algebra), on operators that
    are zero, the identity, a multiple of alpha or drawn entry by
    entry."""
    s = data.draw(st.sampled_from((0, 1, 2, -1) if g.is_regular
                                  else (0, 1, 2)))
    n = g.dim
    r = data.draw(st.one_of(
        st.sampled_from((Matrix.zero(n, n), Matrix.identity(n), g.alpha)),
        st.lists(st.lists(entries, min_size=n, max_size=n),
                 min_size=n, max_size=n).map(matrix)))
    report = is_rota_baxter(g, r, s, weight)
    expected = oracle_rota_baxter(g, r, s, weight)
    assert [str(f) for f in report.failures] == \
        [str(f) for f in expected.failures]
    assert (report.commutes_with_twist, report.identity) == \
        (expected.commutes_with_twist, expected.identity)


def test_induced_structures_frozen_values():
    """T = [[0,1],[0,0]] on ([e1,e2] = e2, adjoint): the induced product
    has e2 . e2 = e2 as its only nonzero value, the sub-adjacent algebra
    is abelian, and rho_T is ([[0,-1],[0,0]], identity)."""
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    t = matrix([[0, 1], [0, 0]])
    assert is_o_operator(g, rep, t).ok
    pre = induced_hom_pre_lie(g, rep, t)
    assert pre.table[1][1] == (Q(0), Q(1))
    assert pre.table[0][0] == pre.table[0][1] == pre.table[1][0] == (Q(0), Q(0))
    assert verify_hom_pre_lie(pre).ok
    sub = subadjacent(pre)
    assert sub.brackets_dict() == {}
    action = rho_t(g, rep, t)
    assert action.rho[0] == matrix([[0, -1], [0, 0]])
    assert action.rho[1] == Matrix.identity(2)
    assert verify_representation(action).ok


def test_induced_structures_second_operator():
    """T = diag(1, 0) on the same data reproduces the base algebra as
    its sub-adjacent algebra."""
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    t = matrix([[1, 0], [0, 0]])
    assert is_o_operator(g, rep, t).ok
    sub = subadjacent(induced_hom_pre_lie(g, rep, t))
    assert sub.brackets_dict() == {(0, 1): (Q(0), Q(1))}
    assert verify_hom_lie(sub).ok
    assert verify_representation(rho_t(g, rep, t)).ok


def test_induced_structures_hold_for_certified_operators():
    """Every grid-certified O-operator induces a hom-pre-Lie product, a
    hom-Lie sub-adjacent algebra, and a representation rho_T."""
    for name in ("aff1", "aff1_twisted"):
        g = FIXTURES[name]
        for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
            for t in grid_matrices():
                if not is_o_operator(g, rep, t).ok:
                    continue
                pre = induced_hom_pre_lie(g, rep, t)
                assert verify_hom_pre_lie(pre).ok, (name, t.rows)
                assert verify_hom_lie(subadjacent(pre)).ok, (name, t.rows)
                assert verify_representation(
                    rho_t(g, rep, t)).ok, (name, t.rows)


def test_requires_certificate_unless_unchecked():
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    bad = Matrix.identity(2)
    assert not is_o_operator(g, rep, bad).ok
    for builder in (induced_hom_pre_lie, rho_t):
        with pytest.raises(ValueError):
            builder(g, rep, bad)
        builder(g, rep, bad, unchecked=True)


def test_shape_guards():
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    wrong = matrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        is_o_operator(g, rep, wrong)
    with pytest.raises(ValueError):
        graph_check(g, rep, wrong)


def test_operator_complex_chain_condition():
    """The complex attached to an O-operator squares to zero, and the
    degree-n coboundary is -{{T, -}} on compatible cochains.

    The overall factor is -1 at every arity: with the Leibniz-consistent
    sign placement of the derived bracket, the arity-dependent factor
    that would otherwise relate the two routes collapses to a constant
    ((-1)^n against the other placement is (-1)^{2n+1} here).  The
    second case below has nonzero content at arity 2, which is what
    pins the even-arity factor."""
    cases = [
        (FIXTURES["aff1"], adjoint_rep(FIXTURES["aff1"], 0),
         matrix([[0, 1], [0, 0]])),
        (FIXTURES["sl2"], coadjoint_rep(FIXTURES["sl2"]),
         matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])),
    ]
    for g, rep, t in cases:
        rep_t = rho_t(g, rep, t)
        tc = Cochain.from_linear_map(t)
        nonzero = 0
        for arity in (1, 2):
            for p in compatible_maps_basis(rep.beta, g.alpha, arity):
                direct = coboundary(rep_t, p)
                braided = derived_bracket(rep, tc, p)
                assert direct == -braided, arity
                assert coboundary(rep_t, direct).is_zero()
                nonzero += not direct.is_zero()
        assert nonzero, g.basis


def test_hom_pre_lie_negative_cases():
    table_bad = (
        ((Q(0), Q(0)), (Q(1), Q(0))),
        ((Q(0), Q(0)), (Q(0), Q(0))),
    )
    p = HomPreLie(dim=2, basis=("e1", "e2"), twist=Matrix.identity(2),
                  table=table_bad)
    report = verify_hom_pre_lie(p)
    assert report.twist_multiplicative and not report.left_symmetry
    q = HomPreLie(dim=2, basis=("e1", "e2"),
                  twist=matrix([[1, 0], [0, 2]]), table=table_bad)
    assert not verify_hom_pre_lie(q).twist_multiplicative


def test_o_operator_hom_check_instances():
    """A diagonal rescaling pair is an endomorphism of the operator
    T = [[0,1],[0,0]]; dropping the module-side rescaling breaks only
    equivariance."""
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    t = matrix([[0, 1], [0, 0]])
    phi_g = matrix([[1, 0], [0, 2]])
    phi_v = matrix([["1/2", 0], [0, 1]])
    good = o_operator_hom_check(g, rep, phi_g, phi_v, t, t)
    assert good.ok
    bad = o_operator_hom_check(g, rep, phi_g, Matrix.identity(2), t, t)
    assert bad.algebra_morphism and bad.operator_intertwine
    assert bad.module_twist and not bad.action_equivariant
    assert not bad.ok
    # identity pair always works
    assert o_operator_hom_check(g, rep, Matrix.identity(2),
                                Matrix.identity(2), t, t).ok


def test_hom_check_rejects_non_endomorphism():
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    t = matrix([[0, 1], [0, 0]])
    swap = matrix([[0, 1], [1, 0]])
    report = o_operator_hom_check(g, rep, swap, Matrix.identity(2), t, t)
    assert not report.algebra_morphism
    assert not report.ok
