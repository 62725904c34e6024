"""Cochains, coboundaries, twist-compatible subspaces, cohomology dims."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from homlie.cochain import (
    Cochain,
    _tuple_positions,
    coboundary,
    coboundary_matrix,
    cohomology_dims,
    cohomology_table,
    compatible_flats,
    compatible_maps_basis,
    twist_defects,
    zero_coboundary,
)
from homlie.linalg import Matrix, basis_vector, densify, matrix
from homlie.ooperator import rho_t
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    _pair_position,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    dual_rep,
    from_lie_with_morphism,
    semidirect_product,
    trivial_rep,
)

from helpers import (
    cochain_from_dense,
    cochain_from_values,
    dense_flat,
    evaluate_basis,
    oracle_coboundary,
    oracle_coboundary_matrix,
    oracle_compatible_maps_basis,
    oracle_diagonal_compatible_basis,
    rand_vector,
)

FIXTURES = catalog()


def rep_family(g):
    return {
        "adjoint0": adjoint_rep(g, 0),
        "adjoint1": adjoint_rep(g, 1),
        "coadjoint": coadjoint_rep(g),
        "dual_adjoint1": dual_rep(adjoint_rep(g, 1)),
        "dual_coadjoint": dual_rep(coadjoint_rep(g)),
    }


def test_cochain_construction_and_evaluation():
    c = cochain_from_values(
        arity=2, source_dim=3, target_dim=2,
        entries={(0, 1): (Q(1), Q(0)), (1, 2): (Q(0), Q(5))})
    assert c.coeff((0, 1)) == (Q(1), Q(0))
    assert c.coeff((0, 2)) == (Q(0), Q(0))
    assert evaluate_basis(c, (1, 0)) == (Q(-1), Q(0))
    assert evaluate_basis(c, (1, 1)) == (Q(0), Q(0))
    # bilinear evaluation with wedge coordinates
    u = (Q(1), Q(1), Q(0))
    v = (Q(0), Q(1), Q(1))
    value = c.evaluate([u, v])
    # wedge coords of u^v: (0,1): 1, (0,2): 1, (1,2): 1
    assert value == (Q(1), Q(5))


def test_cochain_flat_roundtrip():
    c = cochain_from_values(
        arity=1, source_dim=2, target_dim=2,
        entries={(0,): (Q(1), Q(2)), (1,): (Q(3), Q(4))})
    assert cochain_from_dense(1, 2, 2, dense_flat(c)) == c
    assert c.as_matrix() == matrix([[1, 3], [2, 4]])
    m = matrix([[1, 3], [2, 4]])
    assert Cochain.from_linear_map(m).as_matrix() == m


def test_arity_zero_and_fixed_points():
    g = FIXTURES["aff1_twisted"]
    rep = adjoint_rep(g, 0)
    fixed = compatible_flats(g.alpha, rep.beta, 0)
    # beta = alpha = diag(1,2): fixed points are spanned by e1
    assert fixed == [{0: Q(1)}]
    delta0 = zero_coboundary(rep, (Q(1), Q(0)))
    # delta0(e1)(x) = [alpha^{-1}(x), e1]
    assert delta0.coeff((0,)) == (Q(0), Q(0))
    assert delta0.coeff((1,)) == (Q(0), Q(-1))
    with pytest.raises(ValueError):
        zero_coboundary(rep, (Q(0), Q(1)))


def test_delta_zero_then_delta_one_is_zero():
    for name, g in FIXTURES.items():
        for rep_name, rep in rep_family(g).items():
            for w in compatible_flats(g.alpha, rep.beta, 0):
                image = zero_coboundary(rep, densify(w, rep.dim))
                assert coboundary(rep, image).is_zero(), (name, rep_name)


def test_coboundary_squared_zero_all_fixtures():
    for name, g in FIXTURES.items():
        for rep_name, rep in rep_family(g).items():
            for arity in range(1, g.dim + 1):
                m_next = coboundary_matrix(rep, arity + 1)
                m_this = coboundary_matrix(rep, arity)
                assert (m_next @ m_this).is_zero(), (name, rep_name, arity)


def test_coboundary_matrix_matches_pointwise():
    g = FIXTURES["sl2"]
    rep = adjoint_rep(g, 0)
    rng = random.Random(11)
    for arity in (1, 2):
        flat_len = comb(rep.algebra.dim, arity) * rep.dim
        flat = rand_vector(rng, flat_len)
        c = cochain_from_dense(arity, rep.algebra.dim, rep.dim, flat)
        via_matrix = coboundary_matrix(rep, arity).apply(dense_flat(c))
        assert dense_flat(coboundary(rep, c)) == tuple(via_matrix)


def test_known_coboundary_value():
    """delta f (x, y) = rho(x)(f(y)) - rho(y)(f(x)) - f([x, y]) at arity 1
    with alpha = beta = id."""
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    f = Cochain.from_linear_map(Matrix.identity(2))
    image = coboundary(rep, f)
    # delta id (x,y) = [x,y] - [y,x]... - id([x,y]) = [x,y]
    assert image.coeff((0, 1)) == g.bracket_basis(0, 1)


def test_compatible_subspace_membership():
    g = FIXTURES["aff1_twisted"]
    rep = adjoint_rep(g, 0)
    for arity in (1, 2):
        basis = compatible_maps_basis(g.alpha, rep.beta, arity)
        for c in basis:
            assert list(twist_defects(c, g.alpha, rep.beta)) == []


def test_cohomology_dims_whitehead_sl2():
    g = FIXTURES["sl2"]
    rep = adjoint_rep(g, 0)
    assert cohomology_dims(rep, 1).dim_h == 0
    assert cohomology_dims(rep, 2).dim_h == 0


def test_cohomology_dims_abelian_trivial():
    g = FIXTURES["abelian2"]
    rep = trivial_rep(g, 1)
    for n in range(0, 4):
        dims = cohomology_dims(rep, n)
        expected = comb(2, n)
        assert dims.dim_h == expected, (n, dims)


def test_cohomology_nonregular_starts_at_one():
    g = FIXTURES["aff1"]
    rep_nonreg = adjoint_rep(g, 0)
    # a non-regular representation: beta = 0 kills regularity
    from homlie.structures import Representation
    rep = Representation.build(
        algebra=g, beta=Matrix.zero(1, 1), rho=(Matrix.zero(1, 1),
                                                Matrix.zero(1, 1)))
    assert not rep.is_regular
    dims0 = cohomology_dims(rep, 0)
    assert dims0.dim_cochains == 0 and dims0.dim_h == 0
    dims1 = cohomology_dims(rep, 1)
    assert dims1.dim_coboundaries == 0
    assert rep_nonreg is not None


def test_cochain_errors():
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    wrong = Cochain.zero(1, 3, 2)
    with pytest.raises(ValueError):
        coboundary(rep, wrong)
    with pytest.raises(ValueError):
        coboundary_matrix(rep, 0)
    with pytest.raises(ValueError):
        cochain_from_values(arity=1, source_dim=2, target_dim=2,
                            entries={(2,): (Q(1), Q(0))})


def test_operator_complex_direction():
    """The same generic machinery runs with the module as the source."""
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    t = matrix([[0, 1], [0, 0]])
    complex_t = rho_t(g, rep, t)
    assert complex_t.algebra.dim == 2 and complex_t.dim == 2
    for arity in (1, 2):
        m_next = coboundary_matrix(complex_t, arity + 1)
        m_this = coboundary_matrix(complex_t, arity)
        assert (m_next @ m_this).is_zero()


# ------------------------------------------- sparse delta against oracles


def _catalog_complexes() -> dict:
    """Every catalog algebra with adjoint, coadjoint and trivial values."""
    makers = {"adjoint": lambda g: adjoint_rep(g, 0),
              "coadjoint": coadjoint_rep,
              "trivial": trivial_rep}
    return {f"{name}-{kind}": make(g)
            for name, g in FIXTURES.items() for kind, make in makers.items()}


def _oracle_complexes() -> dict:
    complexes = _catalog_complexes()
    # The operator complex of T = E_12 (0-based row 1, column 2) on sl2 x| sl2.
    semi = semidirect_product(adjoint_rep(FIXTURES["sl2"], 0))
    t = Matrix(tuple(tuple(1 if (i, j) == (1, 2) else 0 for j in range(6))
                     for i in range(6)), ncols=6)
    complexes["sl2xsl2-operator"] = rho_t(
        semi, adjoint_rep(semi, 0), t)
    # sl2 twisted by its automorphism exp(ad e): h -> h - 2e, e -> e,
    # f -> f + h - e, an invertible twist that is not diagonal.
    twisted = from_lie_with_morphism(
        FIXTURES["sl2"], matrix([[1, 0, 1], [-2, 1, -1], [0, 0, 1]]))
    for kind, rep in (("adjoint", adjoint_rep(twisted, 0)),
                      ("coadjoint", coadjoint_rep(twisted)),
                      ("trivial", trivial_rep(twisted))):
        complexes[f"sl2_nondiagonal-{kind}"] = rep
    return complexes


CATALOG_COMPLEXES = _catalog_complexes()
ORACLE_COMPLEXES = _oracle_complexes()
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _arities(rep, cap):
    return st.integers(min_value=1, max_value=min(rep.algebra.dim, cap))


@pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_sparse_coboundary_matches_pointwise_oracle(name, data):
    rep = ORACLE_COMPLEXES[name]
    arity = data.draw(_arities(rep, 3))
    length = comb(rep.algebra.dim, arity) * rep.dim
    flat = data.draw(st.lists(rationals, min_size=length, max_size=length))
    f = cochain_from_dense(arity, rep.algebra.dim, rep.dim, flat)
    assert coboundary(rep, f) == oracle_coboundary(rep, f)


diagonal_entries = st.sampled_from(
    [Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(4)])


@settings(max_examples=80, deadline=None)
@given(st.lists(diagonal_entries, min_size=1, max_size=4),
       st.lists(diagonal_entries, min_size=1, max_size=3), st.data())
def test_diagonal_compatible_basis_is_the_solved_basis(sigma, tau, data):
    arity = data.draw(st.integers(min_value=0, max_value=len(sigma) + 1))
    s, t = Matrix.diagonal(sigma), Matrix.diagonal(tau)
    assert (compatible_maps_basis(s, t, arity)
            == oracle_compatible_maps_basis(s, t, arity))


def _diagonal_twists():
    fixed = [[1], [1, 1, 1], [1, 2], [2, Q(1, 2), 1]]
    rng = random.Random(17)
    weights = (Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-2))
    for _ in range(12):
        pool = [rng.choice(weights) for _ in range(2)]
        fixed.append([rng.choice(pool) for _ in range(rng.randint(1, 4))])
    for entries in fixed:
        for coeff in ([1], [1, 2], [Q(1, 2), 2, 1], entries[:2]):
            yield Matrix.diagonal(entries), Matrix.diagonal(coeff)


def test_compatible_basis_equals_the_diagonal_read_off():
    """The one sparse solve gives, on diagonal twists, the unit cochains
    the diagonal shortcut read off, one for one and in order."""
    for sigma, tau in _diagonal_twists():
        for arity in range(sigma.nrows + 2):
            assert (compatible_maps_basis(sigma, tau, arity)
                    == oracle_diagonal_compatible_basis(sigma, tau, arity)), (
                sigma, tau, arity)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_COMPLEXES)), data=st.data())
def test_coboundary_matrix_matches_oracle_columns(name, data):
    rep = ORACLE_COMPLEXES[name]
    arity = data.draw(_arities(rep, 2))
    assert coboundary_matrix(rep, arity) == oracle_coboundary_matrix(
        rep, arity)


# ------------------------------------------------------- cohomology_table


def test_cohomology_table_rows_match_cohomology_dims():
    nonregular = Representation.build(
        algebra=FIXTURES["aff1"], beta=Matrix.zero(1, 1),
        rho=(Matrix.zero(1, 1), Matrix.zero(1, 1)))
    complexes = dict(CATALOG_COMPLEXES, **{"aff1-nonregular": nonregular})
    for name, rep in complexes.items():
        top = rep.algebra.dim + 1
        table = cohomology_table(rep, top)
        assert table == [cohomology_dims(rep, n) for n in range(top + 1)], \
            name
    with pytest.raises(ValueError):
        cohomology_table(nonregular, -1)


def _h_dims(rep):
    return [row.dim_h for row in cohomology_table(rep, rep.algebra.dim)]


def test_cohomology_table_known_betti_numbers():
    assert _h_dims(CATALOG_COMPLEXES["heisenberg3-trivial"]) == [1, 2, 2, 1]
    assert _h_dims(CATALOG_COMPLEXES["sl2-trivial"]) == [1, 0, 0, 1]
    for dim in range(1, 7):
        abelian = HomLieAlgebra.build(dim=dim, brackets={})
        rep = trivial_rep(abelian)
        assert _h_dims(rep) == [comb(dim, n) for n in range(dim + 1)], dim


def test_cohomology_table_euler_characteristic():
    for name, rep in CATALOG_COMPLEXES.items():
        table = cohomology_table(rep, rep.algebra.dim)
        chi_c = sum((-1) ** row.arity * row.dim_cochains for row in table)
        chi_h = sum((-1) ** row.arity * row.dim_h for row in table)
        assert chi_c == chi_h, name


def test_position_caches_are_bounded():
    for cached in (_pair_position, _tuple_positions):
        assert cached.cache_info().maxsize is not None, cached.__name__
