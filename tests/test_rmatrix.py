"""Skew two-tensors, classical r-matrices, induced dual brackets, weak
homomorphisms, and deformation transfer.

Frozen expectations (the e wedge f square on sl2, the dual bracket on
the line algebra, the transfer verdicts) are hand computations recorded
in the docstrings.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from homlie.io import SchemaError, rmatrix_from_dict
from homlie.linalg import Matrix, matrix
from homlie.ooperator import rho_t
from homlie.rmatrix import (
    cybe_sum,
    graded_bracket_wedge,
    induced_dual_bracket,
    invariant_two_tensor_basis,
    invariant_wedge_basis,
    is_invariant,
    is_r_matrix,
    require_skew,
    rmatrix_deformation_transfer,
    skew_matrix,
    two_tensor_square,
    weak_homomorphism_check,
    wedge_coeffs,
)
from homlie.structures import (
    HomLieAlgebra,
    catalog,
    coadjoint_rep,
    verify_hom_lie,
)

from helpers import (
    count_calls,
    oracle_dual_bracket,
    oracle_invariant_wedge_basis,
    rand_invertible,
)
from test_assembly import twisted_algebras

FIXTURES = catalog()


def wedge(dim, i, j, c=1):
    return skew_matrix(dim, {(i, j): Q(c)})


def test_two_tensor_container():
    """A two-tensor is its skew matrix r#: zero coefficients leave no
    trace, sums and multiples are those of matrices, and a pair out of
    order such as "1,0" is refused where pairs are read."""
    r = skew_matrix(3, {(0, 1): 2, (1, 2): 0})
    assert wedge_coeffs(r) == {(0, 1): Q(2)}
    assert not r.is_zero() and skew_matrix(3, {}).is_zero()
    assert (r + r.scale(Q(-1))).is_zero()
    assert wedge_coeffs(r.scale(Q(1, 2))) == {(0, 1): Q(1)}
    with pytest.raises(SchemaError, match="needs 0 <= i < j < dim"):
        rmatrix_from_dict({"wedge": {"1,0": 1}, "dim": 2})
    with pytest.raises(ValueError):
        wedge(2, 0, 1) + wedge(3, 0, 1)


def test_skew_matrix_roundtrip():
    """skew_matrix and wedge_coeffs invert each other, and only a square
    skew matrix passes require_skew."""
    r = skew_matrix(3, {(0, 1): 2, (1, 2): 0})
    assert r == matrix([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
    assert skew_matrix(3, wedge_coeffs(r)) == r
    assert require_skew(r) is r
    assert skew_matrix(2, {(0, 1): Q(1)}) == matrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="not skew-symmetric"):
        require_skew(Matrix.identity(2))
    with pytest.raises(ValueError, match="square matrix"):
        require_skew(matrix([[0, 1, 0], [-1, 0, 0]]))


def test_invariant_wedge_dimensions():
    """With an identity twist every wedge vector is invariant; the
    twisted fixtures kill exactly the monomials whose eigenvalue product
    is not 1."""
    expected = {
        "abelian2": 1,
        "aff1": 1,
        "aff1_twisted": 0,
        "sl2": 3,
        "heisenberg3": 3,
        "heisenberg3_twisted": 1,
    }
    for name, dim in expected.items():
        g = FIXTURES[name]
        assert len(invariant_two_tensor_basis(g)) == dim, name
    survivors = invariant_wedge_basis(FIXTURES["heisenberg3_twisted"], 2)
    assert survivors == [{(0, 1): Q(1)}]
    assert is_invariant(FIXTURES["heisenberg3_twisted"], wedge(3, 0, 1))
    assert not is_invariant(FIXTURES["heisenberg3_twisted"], wedge(3, 0, 2))
    assert not is_invariant(FIXTURES["aff1_twisted"], wedge(2, 0, 1))


def test_r_matrix_aff1():
    g = FIXTURES["aff1"]
    report = is_r_matrix(g, wedge(2, 0, 1))
    assert report.verdict and report.routes_agree
    assert report.cybe_zero and report.operator_report.ok
    assert report.wedge_square == ()


def test_r_matrix_sl2_classification():
    """On sl2: h^e and h^f square to zero monomial by monomial, while
    [e^f, e^f] = 2 h^e^f by the two cross terms [e,f] = h."""
    g = FIXTURES["sl2"]
    for (i, j) in ((0, 1), (0, 2)):
        report = is_r_matrix(g, wedge(3, i, j))
        assert report.verdict and report.routes_agree, (i, j)
    square = two_tensor_square(g, wedge(3, 1, 2))
    assert square == {(0, 1, 2): Q(2)}
    report = is_r_matrix(g, wedge(3, 1, 2))
    assert not report.verdict
    assert report.routes_agree
    assert not report.cybe_zero and not report.operator_report.ok
    assert report.wedge_square == (((0, 1, 2), Q(2)),)
    assert any(f.law == "wedge_square" for f in report.failures)


def test_r_matrix_requires_context():
    g = FIXTURES["aff1_twisted"]
    with pytest.raises(ValueError):
        is_r_matrix(g, wedge(2, 0, 1))  # not invariant
    with pytest.raises(ValueError):
        is_r_matrix(FIXTURES["aff1"], wedge(3, 0, 1))  # wrong dimension
    with pytest.raises(ValueError, match="not skew-symmetric"):
        is_r_matrix(FIXTURES["aff1"], Matrix.identity(2))
    singular = HomLieAlgebra.build(dim=2, brackets={},
                                   alpha=Matrix.zero(2, 2))
    with pytest.raises(ValueError):
        is_r_matrix(singular, wedge(2, 0, 1))


def test_cybe_parts():
    g = FIXTURES["sl2"]
    good = cybe_sum(g, wedge(3, 0, 1))
    assert good.is_zero and good.total == ()
    bad = cybe_sum(g, wedge(3, 1, 2))
    assert not bad.is_zero
    for part in (bad.part_12_13, bad.part_12_23, bad.part_13_23):
        for (indices, q) in part:
            assert len(indices) == 3 and q != 0


def test_induced_dual_bracket_aff1():
    """r = e1^e2 on [e1,e2] = e2 gives [eps1, eps2]_r = -eps1 on the
    dual, checked by hand through the coadjoint action."""
    g = FIXTURES["aff1"]
    dual = induced_dual_bracket(g, wedge(2, 0, 1))
    assert dual.brackets_dict() == {(0, 1): (Q(-1), Q(0))}
    assert dual.alpha == Matrix.identity(2)
    assert dual.basis == ("e1*", "e2*")
    assert verify_hom_lie(dual).ok


def test_dual_bracket_matches_subadjacent_route():
    """The dual bracket, the sub-adjacent algebra of the hom-pre-Lie
    product induced by r# on the coadjoint module, equals the direct
    formula {r#(xi), eta} - {r#(eta), xi} by dense coadjoint act."""
    cases = [("aff1", (0, 1)), ("sl2", (0, 1)), ("sl2", (0, 2)),
             ("heisenberg3", (0, 1)), ("heisenberg3", (0, 2)),
             ("heisenberg3_twisted", (0, 1)), ("abelian2", (0, 1))]
    for name, (i, j) in cases:
        g = FIXTURES[name]
        r = wedge(g.dim, i, j)
        if not is_r_matrix(g, r).verdict:
            continue
        via = induced_dual_bracket(g, r)
        direct = oracle_dual_bracket(g, r)
        assert via.brackets_dict() == direct.brackets_dict(), (name, i, j)
        assert via.alpha == direct.alpha, (name, i, j)
        assert via.basis == direct.basis, (name, i, j)


def test_dual_bracket_requires_r_matrix():
    g = FIXTURES["sl2"]
    with pytest.raises(ValueError):
        induced_dual_bracket(g, wedge(3, 1, 2))


def test_rho_r_is_coadjoint_of_dual():
    """The representation rho_{r#} of the dual algebra back on g is the
    coadjoint representation of the dual algebra."""
    for name, (i, j) in [("aff1", (0, 1)), ("sl2", (0, 1)),
                         ("heisenberg3", (0, 2))]:
        g = FIXTURES[name]
        r = wedge(g.dim, i, j)
        dual = induced_dual_bracket(g, r)
        action = rho_t(g, coadjoint_rep(g), r)
        dual_coadj = coadjoint_rep(dual)
        assert action.beta == dual_coadj.beta, name
        assert action.rho == dual_coadj.rho, name
        assert action.algebra.brackets_dict() == dual.brackets_dict()


def test_graded_bracket_wedge_symmetry_and_frozen_value():
    """Grade-(2,2) brackets are symmetric, and [h^e, h^f] = -4 h^e^f on
    sl2 by the two cross terms [h,f] = -2f and [e,h] = -2e."""
    g = FIXTURES["sl2"]
    u = {(0, 1): Q(1)}
    v = {(0, 2): Q(1)}
    uv = graded_bracket_wedge(g, u, 2, v, 2)
    vu = graded_bracket_wedge(g, v, 2, u, 2)
    assert uv == vu
    assert uv == {(0, 1, 2): Q(-4)}
    with pytest.raises(ValueError):
        graded_bracket_wedge(g, {(0, 1): Q(1)}, 3, v, 2)


def test_weak_homomorphism_instance():
    """On the abelian plane, (phi, psi) = (2 id, id) is a weak
    homomorphism from e1^e2 to (1/2) e1^e2, and the companion operator
    homomorphism runs from the second sharp to the first."""
    g = FIXTURES["abelian2"]
    r1 = wedge(2, 0, 1)
    r2 = wedge(2, 0, 1, Q(1, 2))
    phi = Matrix.identity(2).scale(Q(2))
    psi = Matrix.identity(2)
    report = weak_homomorphism_check(g, phi, psi, r1, r2)
    assert report.ok
    assert report.operator_hom.ok
    assert report.operator_hom_agrees
    swapped = weak_homomorphism_check(g, phi, psi, r2, r1)
    assert not swapped.tensor_condition
    assert not swapped.ok
    assert swapped.operator_hom_agrees


def test_weak_homomorphism_condition_breakdown():
    g = FIXTURES["aff1"]
    r = wedge(2, 0, 1)
    not_endo = matrix([[0, 1], [1, 0]])
    report = weak_homomorphism_check(g, not_endo, Matrix.identity(2), r, r)
    assert not report.phi_bracket_homomorphism
    assert not report.ok
    identity = weak_homomorphism_check(g, Matrix.identity(2),
                                       Matrix.identity(2), r, r)
    assert identity.ok and identity.operator_hom_agrees


def test_transfer_linear_mode():
    g = FIXTURES["aff1"]
    r = wedge(2, 0, 1)
    report = rmatrix_deformation_transfer(g, r, [r.scale(Q(3))])
    assert report.mode == "linear"
    assert report.ok and report.routes_agree
    assert report.wedge_per_order == ((0, True), (1, True), (2, True))
    assert report.operator_linear is not None
    assert report.operator_linear.valid


def test_transfer_linear_blocked_direction():
    """Deforming h^e by h^f on sl2 fails at order one on both routes:
    [r, tau] + [tau, r] = -8 h^e^f."""
    g = FIXTURES["sl2"]
    report = rmatrix_deformation_transfer(g, wedge(3, 0, 1),
                                          [wedge(3, 0, 2)])
    assert not report.ok
    assert report.routes_agree
    assert report.wedge_per_order[0] == (0, True)
    assert report.wedge_per_order[1] == (1, False)
    assert not report.operator_linear.valid


def test_transfer_truncated_mode():
    g = FIXTURES["aff1"]
    r = wedge(2, 0, 1)
    report = rmatrix_deformation_transfer(g, r, [r, r], mode="truncated")
    assert report.mode == "truncated"
    assert report.ok and report.routes_agree
    assert report.operator_formal is not None
    assert report.operator_formal.ok
    assert all(zero for _, zero in report.wedge_per_order)
    failing = rmatrix_deformation_transfer(
        FIXTURES["sl2"], wedge(3, 0, 1), [wedge(3, 0, 2)],
        mode="truncated")
    assert not failing.ok and failing.routes_agree


def test_transfer_builds_the_coadjoint_rep_once(monkeypatch):
    """Both modes deform r# over the coadjoint representation that the
    r-matrix check of the base already built."""
    calls = count_calls(monkeypatch, coadjoint_rep)
    r = wedge(2, 0, 1)
    for terms in ([r.scale(Q(3))], [r, r]):
        calls.clear()
        assert rmatrix_deformation_transfer(FIXTURES["aff1"], r, terms).ok
        assert len(calls) == 1, len(terms)


def test_transfer_errors():
    g = FIXTURES["sl2"]
    with pytest.raises(ValueError):
        rmatrix_deformation_transfer(g, wedge(3, 1, 2), [wedge(3, 0, 1)])
    twisted = FIXTURES["aff1_twisted"]
    with pytest.raises(ValueError):
        rmatrix_deformation_transfer(twisted, skew_matrix(2, {}),
                                     [wedge(2, 0, 1)])
    aff1 = FIXTURES["aff1"]
    r = wedge(2, 0, 1)
    with pytest.raises(ValueError):
        rmatrix_deformation_transfer(aff1, r, [r, r], mode="linear")
    with pytest.raises(ValueError):
        rmatrix_deformation_transfer(aff1, r, [r], mode="bogus")
    with pytest.raises(ValueError):
        rmatrix_deformation_transfer(aff1, r, [wedge(3, 0, 1)])
    with pytest.raises(ValueError, match="not skew-symmetric"):
        rmatrix_deformation_transfer(aff1, r, [Matrix.identity(2)])


def test_r_matrix_grid_route_agreement():
    """Scaled invariant tensors on every regular fixture: the three
    routes agree at each grid point."""
    scalars = (Q(-1), Q(0), Q(1, 2), Q(1))
    for name, g in FIXTURES.items():
        basis = invariant_two_tensor_basis(g)
        for r0 in basis:
            for c in scalars:
                report = is_r_matrix(g, r0.scale(c))
                assert report.routes_agree, (name, c)


@settings(max_examples=40, deadline=None)
@given(twisted_algebras().filter(lambda g: g.is_regular), st.data())
def test_r_matrix_routes_agree_on_generated_twists(g, data):
    """The three routes agree on combinations of the invariant
    two-tensors of a Yau-twisted algebra (exp(ad x) is not diagonal),
    with coefficients whose denominators are 2, 3 and 5."""
    basis = invariant_two_tensor_basis(g)
    r = skew_matrix(g.dim, {})
    for b in basis:
        r = r + b.scale(data.draw(st.sampled_from(
            (0, 1, -1, Q(1, 2), Q(-2, 3), Q(3, 5)))))
    assert is_r_matrix(g, r).routes_agree


# ------------------------------------------- invariant wedges vs oracle


def _twisted(alpha):
    return HomLieAlgebra.build(dim=alpha.nrows, brackets={}, alpha=alpha)


def test_invariant_wedge_basis_matches_oracle_on_catalog():
    for name, g in FIXTURES.items():
        for grade in range(g.dim + 1):
            assert invariant_wedge_basis(g, grade) == \
                oracle_invariant_wedge_basis(g, grade), (name, grade)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=4), seed=st.integers(0, 10**6))
def test_invariant_wedge_basis_matches_oracle_random_twist(dim, seed):
    g = _twisted(rand_invertible(random.Random(seed), dim, lo=-1, hi=1))
    for grade in range(dim + 1):
        assert invariant_wedge_basis(g, grade) == \
            oracle_invariant_wedge_basis(g, grade)


monomial_scales = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 2)])


@settings(max_examples=60, deadline=None)
@given(perm=st.integers(min_value=1, max_value=4).flatmap(
           lambda n: st.permutations(range(n))),
       data=st.data())
def test_invariant_wedge_basis_matches_oracle_permutation_twist(perm, data):
    """Monomial twists alpha e_i = s_i e_perm(i): not diagonal for a
    non-trivial permutation, with invariants mixing several monomials."""
    n = len(perm)
    scales = data.draw(st.lists(monomial_scales, min_size=n, max_size=n))
    rows = [[Q(0)] * n for _ in range(n)]
    for i, (p, s) in enumerate(zip(perm, scales)):
        rows[p][i] = s
    g = _twisted(Matrix(rows, ncols=n))
    for grade in range(n + 1):
        assert invariant_wedge_basis(g, grade) == \
            oracle_invariant_wedge_basis(g, grade)
