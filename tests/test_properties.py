"""Property-based checks of the exact linear algebra core and JSON codecs.

These complement the example-driven unit tests: hypothesis generates random
rational inputs and the assertions state invariants that must hold for every
input (rank-nullity, determinant multiplicativity, codec roundtrips).
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation

from homlie.alternating import shuffles, wedge_coords
from homlie.cochain import Cochain
from homlie.io import algebra_from_dict, algebra_to_dict, format_scalar, parse_scalar
from homlie.linalg import Matrix, Q

from helpers import (
    algebra_tables,
    exact_scalars,
    oracle_det,
    oracle_wedge_coords,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices(draw, min_dim=1, max_dim=4, square=False):
    nrows = draw(st.integers(min_value=min_dim, max_value=max_dim))
    ncols = nrows if square else draw(st.integers(min_value=min_dim, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(rationals, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix(rows, ncols=ncols)


@given(rationals)
def test_scalar_text_roundtrip(q):
    assert parse_scalar(format_scalar(q)) == q


@settings(deadline=None)
@given(matrices())
def test_rank_transpose_and_bound(a):
    r = a.rank()
    assert r == a.transpose().rank()
    assert 0 <= r <= min(a.nrows, a.ncols)


@settings(deadline=None)
@given(matrices())
def test_rank_nullity_and_kernel_membership(a):
    kernel = a.kernel_basis()
    assert a.rank() + len(kernel) == a.ncols
    for v in kernel:
        assert all(entry == 0 for entry in a.apply(v))
    if kernel:
        assert Matrix.from_columns(kernel, nrows=a.ncols).rank() == len(kernel)


@settings(deadline=None)
@given(matrices(), st.data())
def test_solve_recovers_consistent_systems(a, data):
    x = tuple(data.draw(rationals) for _ in range(a.ncols))
    b = a.apply(x)
    s = a.solve(b)
    assert s is not None
    assert a.apply(s) == b


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_det_multiplicative_and_inverse(n, data):
    a = data.draw(matrices(min_dim=n, max_dim=n, square=True))
    b = data.draw(matrices(min_dim=n, max_dim=n, square=True))
    assert oracle_det(a @ b) == oracle_det(a) * oracle_det(b)
    assert a.is_invertible() == (oracle_det(a) != 0)
    if a.is_invertible():
        assert a @ a.inverse() == Matrix.identity(n)
        assert a.inverse() @ a == Matrix.identity(n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_algebra_dict_roundtrip(dim, data):
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            column = [data.draw(rationals) for _ in range(dim)]
            if any(column):
                brackets["%d,%d" % (i, j)] = [str(c) for c in column]
    alpha = [[str(data.draw(rationals)) for _ in range(dim)] for _ in range(dim)]
    doc = {"dim": dim, "brackets": brackets, "alpha": alpha}
    g = algebra_from_dict(doc)
    doc2 = algebra_to_dict(g)
    g2 = algebra_from_dict(doc2)
    assert algebra_tables(g) == algebra_tables(g2)
    assert algebra_to_dict(g2) == doc2


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_cochain_flat_roundtrip(arity, source_dim, target_dim, data):
    length = math.comb(source_dim, arity) * target_dim
    flat = tuple(data.draw(rationals) for _ in range(length))
    c = Cochain.from_flat(arity, source_dim, target_dim, flat)
    assert c.to_flat() == flat
    back = Cochain.from_flat(arity, source_dim, target_dim, c.to_flat())
    assert back == c
    assert (c + back.scale(Q(-1))).is_zero()


@st.composite
def wedge_factors(draw):
    """(vectors, dim) with dim 1..6 and k = 0..dim+1 factors.  A factor is
    a fresh vector (often sparse, entries with denominators up to 6), the
    zero vector, or a rescaled copy of an earlier factor."""
    dim = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=dim + 1))
    entries = st.one_of(st.just(Q(0)), rationals.map(Q))
    vectors = []
    for _ in range(k):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat")))
        if kind == "zero":
            vectors.append((Q(0),) * dim)
        elif kind == "repeat" and vectors:
            c = draw(rationals.map(Q))
            vectors.append(tuple(c * x for x in draw(st.sampled_from(vectors))))
        else:
            vectors.append(tuple(draw(st.lists(
                entries, min_size=dim, max_size=dim))))
    return vectors, dim


@settings(max_examples=300, deadline=None)
@given(wedge_factors())
def test_wedge_coords_equals_determinant_oracle(case):
    vectors, dim = case
    coords = wedge_coords(vectors, dim)
    assert coords == oracle_wedge_coords(vectors, dim)
    assert exact_scalars(coords.values()) and all(coords.values())


def test_shuffle_signs_equal_sympy_signature():
    for total in range(7):
        for p in range(total + 1):
            found = list(shuffles(p, total - p))
            assert len(found) == math.comb(total, p)
            for perm, sign in found:
                assert sign == Permutation(list(perm)).signature(), perm
