"""H^n from the weight-zero subcomplex: an oracle that rests on a theorem.

Take alpha = id and h in g with ad h and rho(h) diagonal in the chosen
bases: ad h e_i = lambda_i e_i and rho(h) v_t = mu_t v_t.  Cartan's
formula L_h = delta iota_h + iota_h delta makes L_h null-homotopic, and
L_h acts on the unit cochain e_I^* (x) v_t by its weight
mu_t - sum_{i in I} lambda_i.  So every summand of nonzero weight is
acyclic, and H^n is H^n of the weight-zero subcomplex.

The oracle takes delta on the weight-zero unit cochains only, checks
that it lands in weight zero, and reads its ranks off
helpers.oracle_sparse_rref (Gauss-Jordan on Fractions), so it shares no
elimination with cohomology_table and eliminates a fraction of its rows.
"""

from __future__ import annotations

import pytest

from homlie.alternating import increasing_tuples
from homlie.cochain import coboundary_on_basis, cohomology_table
from homlie.linalg import Matrix, basis_vector
from homlie.structures import (
    adjoint_rep,
    catalog,
    coadjoint_rep,
    semidirect_product,
    trivial_rep,
)

from helpers import oracle_sparse_rref

FIXTURES = catalog()
TAKIFF6 = semidirect_product(adjoint_rep(FIXTURES["sl2"]))
TAKIFF12 = semidirect_product(adjoint_rep(TAKIFF6))


def _diagonal(m) -> list:
    """The diagonal of m, which must have no other nonzero entry."""
    assert all(not e for i, row in enumerate(m.rows)
               for j, e in enumerate(row) if i != j)
    return [m.rows[i][i] for i in range(m.nrows)]


def weight_zero_h(rep, h: int, top: int) -> list:
    """H^0..H^top of the weight-zero subcomplex for h = e_h."""
    g = rep.algebra
    assert g.alpha == Matrix.identity(g.dim)
    assert rep.beta == Matrix.identity(rep.dim)
    x = basis_vector(g.dim, h)
    lam = _diagonal(adjoint_rep(g).rho_of(x))
    mu = _diagonal(rep.rho_of(x))

    def weight(arity, k):
        indices = increasing_tuples(g.dim, arity)[k // rep.dim]
        return mu[k % rep.dim] - sum(lam[i] for i in indices)

    ranks = []
    for n in range(top + 1):
        flats, images = coboundary_on_basis(rep, n)
        zero = []
        for flat, image in zip(flats, images):
            (k, c), = flat.items()
            if not weight(n, k):
                assert c == 1 and not any(weight(n + 1, r) for r in image)
                zero.append(image)
        ranks.append((len(zero), len(oracle_sparse_rref(zero))))
    return [count - rank - (ranks[n - 1][1] if n else 0)
            for n, (count, rank) in enumerate(ranks)]


@pytest.mark.parametrize("name, h", [
    ("abelian2", 0), ("aff1", 0), ("sl2", 0), ("heisenberg3", 2),
])
@pytest.mark.parametrize("coefficients", [adjoint_rep, coadjoint_rep,
                                          trivial_rep])
def test_weight_zero_h_of_the_identity_twist_catalog(name, h, coefficients):
    rep = coefficients(FIXTURES[name])
    top = rep.algebra.dim
    expected = weight_zero_h(rep, h, top)
    assert [row.dim_h for row in cohomology_table(rep, top)] == expected


def test_weight_zero_h_of_takiff6_adjoint():
    rep = adjoint_rep(TAKIFF6)
    expected = weight_zero_h(rep, 0, TAKIFF6.dim)
    assert [row.dim_h for row in cohomology_table(rep, TAKIFF6.dim)] == \
        expected == [0, 1, 1, 0, 1, 1, 0]


def test_weight_zero_h_of_takiff12_adjoint():
    rep = adjoint_rep(TAKIFF12)
    expected = weight_zero_h(rep, 0, 3)
    assert [row.dim_h for row in cohomology_table(rep, 3)] == expected == [
        0, 4, 4, 1]
