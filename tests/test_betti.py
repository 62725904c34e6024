"""Betti numbers checked against theorems, not against another solver.

Both oracles below read only the H^n column of cohomology_table with
trivial one-dimensional coefficients and compare it with numbers that
follow from a theorem, so no kernel or rank of theirs passes through
linalg:

* Poincare duality: for a unimodular Lie algebra (tr ad x = 0 for all
  x) of dimension d, b_n = b_{d-n}.
* Kuenneth: for alpha = id, the Betti numbers of g1 + g2 are the
  convolution of those of g1 and g2.
"""

from __future__ import annotations

import pytest

from homlie.cochain import cohomology_table
from homlie.structures import (
    adjoint_rep,
    catalog,
    semidirect_product,
    trivial_rep,
)

from helpers import direct_sum

FIXTURES = catalog()
TAKIFF6 = semidirect_product(adjoint_rep(FIXTURES["sl2"]))
TAKIFF12 = semidirect_product(adjoint_rep(TAKIFF6))


def betti(g) -> list:
    return [row.dim_h for row in cohomology_table(trivial_rep(g), g.dim)]


def convolution(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("g, expected", [
    (FIXTURES["sl2"], [1, 0, 0, 1]),
    (FIXTURES["heisenberg3"], [1, 2, 2, 1]),
    (TAKIFF6, [1, 0, 0, 2, 0, 0, 1]),
    (TAKIFF12, [1, 0, 1, 5, 0, 1, 8, 1, 0, 5, 1, 0, 1]),
], ids=["sl2", "heisenberg3", "takiff6", "takiff12"])
def test_poincare_duality_on_unimodular_algebras(g, expected):
    for x in range(g.dim):
        assert sum(adjoint_rep(g).rho[x].rows[i][i]
                   for i in range(g.dim)) == 0
    numbers = betti(g)
    assert numbers == numbers[::-1]
    assert numbers == expected


@pytest.mark.parametrize("left, right, expected", [
    ("sl2", "heisenberg3", [1, 2, 2, 2, 2, 2, 1]),
    ("heisenberg3", "heisenberg3", [1, 4, 8, 10, 8, 4, 1]),
    ("aff1", "sl2", [1, 1, 0, 1, 1, 0]),
])
def test_kuenneth_formula_for_direct_sums(left, right, expected):
    g1, g2 = FIXTURES[left], FIXTURES[right]
    numbers = betti(direct_sum(g1, g2))
    assert numbers == convolution(betti(g1), betti(g2))
    assert numbers == expected
