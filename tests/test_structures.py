"""Algebras, representations, fixtures, duals, and the semidirect sum."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from homlie.linalg import Matrix, basis_vector, matrix
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    dual_rep,
    from_lie_with_morphism,
    semidirect_product,
    trivial_rep,
    verify_hom_lie,
    verify_representation,
)

from helpers import (
    algebra_tables,
    oracle_hom_lie,
    oracle_representation,
    rand_matrix,
    rand_scalar,
    rep_tables,
)

FIXTURES = catalog()


def test_act_is_the_action_matrix_applied():
    """act runs the shared bilinear loop; rho_of builds the matrix. Both
    give the same exact vectors on every catalog (co)adjoint action."""
    rng = random.Random(7)
    for g in FIXTURES.values():
        for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
            for _ in range(5):
                x = tuple(rand_scalar(rng) for _ in range(g.dim))
                v = tuple(rand_scalar(rng) for _ in range(rep.dim))
                assert rep.act(x, v) == rep.rho_of(x).apply(v)


def test_catalog_contents():
    assert list(FIXTURES) == ["abelian2", "aff1", "aff1_twisted", "sl2",
                              "heisenberg3", "heisenberg3_twisted"]
    assert FIXTURES["aff1"].bracket_basis(0, 1) == (Q(0), Q(1))
    assert FIXTURES["aff1_twisted"].bracket_basis(0, 1) == (Q(0), Q(2))
    assert FIXTURES["aff1_twisted"].alpha == matrix([[1, 0], [0, 2]])
    sl2 = FIXTURES["sl2"]
    assert sl2.bracket_basis(0, 1) == (Q(0), Q(2), Q(0))
    assert sl2.bracket_basis(0, 2) == (Q(0), Q(0), Q(-2))
    assert sl2.bracket_basis(1, 2) == (Q(1), Q(0), Q(0))
    h3t = FIXTURES["heisenberg3_twisted"]
    assert h3t.bracket_basis(0, 1) == (Q(0), Q(0), Q(1))
    assert h3t.alpha == matrix([[2, 0, 0], [0, "1/2", 0], [0, 0, 1]])


def test_all_fixtures_verify():
    for name, g in FIXTURES.items():
        report = verify_hom_lie(g)
        assert report.ok, (name, report.failures)
        assert report.regular


def test_fixtures_match_oracle():
    for name, g in FIXTURES.items():
        table, alpha_rows = algebra_tables(g)
        mult, jac, _, _ = oracle_hom_lie(table, alpha_rows, g.dim)
        assert mult and jac, name


def test_bracket_bilinearity_and_antisymmetry():
    g = FIXTURES["sl2"]
    rng = random.Random(3)
    for _ in range(20):
        u = tuple(Q(rng.randint(-2, 2)) for _ in range(3))
        v = tuple(Q(rng.randint(-2, 2)) for _ in range(3))
        uv = g.bracket(u, v)
        vu = g.bracket(v, u)
        assert uv == tuple(-c for c in vu)
    assert g.bracket_basis(1, 0) == (Q(0), Q(-2), Q(0))
    assert g.bracket_basis(1, 1) == (Q(0), Q(0), Q(0))


def test_build_rejects_bad_keys():
    with pytest.raises(ValueError):
        HomLieAlgebra.build(dim=2, brackets={(1, 0): (Q(0), Q(1))})
    with pytest.raises(ValueError):
        HomLieAlgebra.build(dim=2, brackets={(0, 2): (Q(0), Q(1))})
    with pytest.raises(ValueError):
        HomLieAlgebra.build(dim=2, brackets={(0, 1): (Q(0),)})


def test_mutation_sweep_matches_oracle():
    """Every single structure-constant perturbation gets the same verdict
    from verify_hom_lie and from the independent oracle, and failing
    tuples are pinpointed identically."""
    expected_failable = {"aff1_twisted", "sl2", "heisenberg3",
                         "heisenberg3_twisted"}
    never_failable = {"abelian2", "aff1"}
    for name, g in FIXTURES.items():
        table, alpha_rows = algebra_tables(g)
        saw_failure = False
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                for coord in range(g.dim):
                    mutated = {k: list(v) for k, v in table.items()}
                    row = mutated.setdefault(
                        (i, j), [Q(0)] * g.dim)
                    row[coord] += 1
                    mutant = HomLieAlgebra.build(
                        dim=g.dim,
                        brackets={k: tuple(v) for k, v in mutated.items()},
                        alpha=g.alpha)
                    report = verify_hom_lie(mutant)
                    mult, jac, bad_pairs, bad_triples = oracle_hom_lie(
                        mutated, alpha_rows, g.dim)
                    assert report.multiplicative == mult, (name, i, j, coord)
                    assert report.hom_jacobi == jac, (name, i, j, coord)
                    got_pairs = sorted({f.indices for f in report.failures
                                        if f.law == "multiplicativity"})
                    got_triples = sorted({f.indices for f in report.failures
                                          if f.law == "hom_jacobi"})
                    assert got_pairs == sorted(bad_pairs)
                    assert got_triples == sorted(bad_triples)
                    if not report.ok:
                        saw_failure = True
        if name in expected_failable:
            assert saw_failure, name
        if name in never_failable:
            assert not saw_failure, name


def test_pinpointed_mutations():
    g = FIXTURES["aff1_twisted"]
    mutant = HomLieAlgebra.build(
        dim=2, brackets={(0, 1): (Q(1), Q(2))}, alpha=g.alpha)
    report = verify_hom_lie(mutant)
    assert not report.multiplicative
    assert any(f.law == "multiplicativity" and f.indices == (0, 1)
               for f in report.failures)

    sl2 = FIXTURES["sl2"]
    mutant = HomLieAlgebra.build(
        dim=3,
        brackets={(0, 1): (Q(1), Q(2), Q(0)),
                  (0, 2): sl2.bracket_basis(0, 2),
                  (1, 2): sl2.bracket_basis(1, 2)})
    report = verify_hom_lie(mutant)
    assert not report.hom_jacobi
    defect = [f for f in report.failures if f.law == "hom_jacobi"]
    assert defect[0].indices == (0, 1, 2)
    assert defect[0].lhs == (Q(0), Q(0), Q(2))

    h3 = FIXTURES["heisenberg3"]
    mutant = HomLieAlgebra.build(
        dim=3,
        brackets={(0, 1): h3.bracket_basis(0, 1),
                  (0, 2): (Q(1), Q(0), Q(0))})
    report = verify_hom_lie(mutant)
    defect = [f for f in report.failures if f.law == "hom_jacobi"]
    assert defect and defect[0].lhs == (Q(0), Q(0), Q(1))


def test_alpha_power_and_regularity():
    g = FIXTURES["aff1_twisted"]
    assert g.is_regular
    assert g.alpha_power(2) == matrix([[1, 0], [0, 4]])
    assert g.alpha_power(-1) == matrix([[1, 0], [0, "1/2"]])
    assert g.alpha_power(0) == Matrix.identity(2)


def test_adjoint_reps_are_representations():
    for name, g in FIXTURES.items():
        for s in (0, 1, 2):
            rep = adjoint_rep(g, s)
            report = verify_representation(rep)
            assert report.ok, (name, s, report.failures)
            beta_rows, rho_list = rep_tables(rep)
            table, alpha_rows = algebra_tables(g)
            ax1, ax2 = oracle_representation(
                table, alpha_rows, g.dim, beta_rows, rho_list, rep.dim)
            assert ax1 and ax2, (name, s)


def test_trivial_rep():
    for g in FIXTURES.values():
        assert verify_representation(trivial_rep(g, 2)).ok


def test_dual_reps_are_representations():
    for name, g in FIXTURES.items():
        for rep in (adjoint_rep(g, 0), adjoint_rep(g, 1), coadjoint_rep(g)):
            dual = dual_rep(rep)
            report = verify_representation(dual)
            assert report.ok, (name, report.failures)


def test_coadjoint_frozen_values_aff1_twisted():
    g = FIXTURES["aff1_twisted"]
    co = coadjoint_rep(g)
    assert co.beta == matrix([[1, 0], [0, "1/2"]])
    assert co.rho_of(basis_vector(2, 0)) == matrix([[0, 0], [0, "-1/2"]])
    assert co.rho_of(basis_vector(2, 1)) == matrix([[0, 1], [0, 0]])
    # pairing value <ad*(e1)(eps2), e2> = -1/2
    image = co.act(basis_vector(2, 0), basis_vector(2, 1))
    assert image[1] == Q(-1, 2)
    assert co.basis == ("e1*", "e2*")


def test_dual_rep_requires_invertible():
    g = FIXTURES["aff1"]
    rep = Representation.build(
        algebra=g, beta=matrix([[0, 0], [0, 0]]),
        rho=(Matrix.zero(2, 2), Matrix.zero(2, 2)))
    with pytest.raises(ValueError):
        dual_rep(rep)


def test_semidirect_product_fixture():
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    semi = semidirect_product(rep)
    assert semi.dim == 4
    assert verify_hom_lie(semi).ok
    # cross bracket [e_i, v_a] = rho(e_i)(v_a)
    assert semi.bracket_basis(0, 3) == (Q(0),) * 3 + (Q(1),)
    assert semi.bracket_basis(1, 2) == (Q(0), Q(0), Q(0), Q(-1))


def test_semidirect_equivalence_random():
    rng = random.Random(20260817)
    agreements = 0
    for _ in range(120):
        gdim = rng.choice((1, 2, 3))
        vdim = rng.choice((1, 2, 3))
        g = FIXTURES[rng.choice(list(FIXTURES))]
        if g.dim != gdim:
            brackets = {}
            for i in range(gdim):
                for j in range(i + 1, gdim):
                    if rng.random() < 0.5:
                        brackets[(i, j)] = tuple(
                            Q(rng.randint(-1, 1)) for _ in range(gdim))
            g = HomLieAlgebra.build(dim=gdim, brackets=brackets)
            if not verify_hom_lie(g).ok:
                continue
        beta = rand_matrix(rng, vdim, vdim, -1, 1)
        rho = tuple(rand_matrix(rng, vdim, vdim, -1, 1)
                    for _ in range(g.dim))
        rep = Representation.build(algebra=g, beta=beta, rho=rho)
        assert verify_representation(rep).ok == verify_hom_lie(
            semidirect_product(rep)).ok
        agreements += 1
    assert agreements >= 100


def test_from_lie_with_morphism():
    sl2 = FIXTURES["sl2"]
    phi = matrix([[1, 0, 0], [0, "1/2", 0], [0, 0, 2]])
    twisted = from_lie_with_morphism(sl2, phi)
    assert verify_hom_lie(twisted).ok
    assert twisted.alpha == phi
    # twisted bracket [x, y]' = phi([x, y])
    assert twisted.bracket_basis(0, 1) == (Q(0), Q(1), Q(0))

    with pytest.raises(ValueError):
        from_lie_with_morphism(FIXTURES["aff1_twisted"], Matrix.identity(2))
    with pytest.raises(ValueError):
        from_lie_with_morphism(sl2, matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_heisenberg_twisted_is_multiplicative_not_identity():
    g = FIXTURES["heisenberg3_twisted"]
    assert g.alpha != Matrix.identity(3)
    report = verify_hom_lie(g)
    assert report.multiplicative and report.hom_jacobi
