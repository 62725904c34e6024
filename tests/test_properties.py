"""Property-based checks of the exact linear algebra core and JSON codecs.

These complement the example-driven unit tests: hypothesis generates random
rational inputs and the assertions state invariants that must hold for every
input (rank-nullity, determinant multiplicativity, codec roundtrips).
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation

import homlie.cochain as cochain_module
from homlie.alternating import wedge_coords
from homlie.cochain import Cochain
from homlie.io import algebra_from_dict, algebra_to_dict, format_scalar, parse_scalar
from homlie.linalg import Matrix, Q

from helpers import (
    algebra_tables,
    cochain_from_dense,
    cochain_from_values,
    dense_flat,
    exact_scalars,
    kernel_basis,
    oracle_det,
    oracle_evaluate_dense,
    oracle_vadd,
    oracle_vscale,
    oracle_vsub,
    oracle_wedge_coords,
    shuffles,
    solve,
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
    kernel = kernel_basis(a)
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
    s = solve(a, b)
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


# ------------------------------------------------ the Cochain container

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def cochain_data(draw, arity=None):
    """(arity, source_dim, target_dim, values): one coefficient vector per
    increasing tuple, in combinations order, a whole zero vector about
    half of the time."""
    if arity is None:
        arity = draw(st.integers(min_value=0, max_value=3))
    source_dim = draw(st.integers(min_value=1, max_value=4))
    target_dim = draw(st.integers(min_value=1, max_value=3))
    zero = (Q(0),) * target_dim
    vector = st.one_of(st.just(zero), st.tuples(*[small] * target_dim))
    count = math.comb(source_dim, arity)
    values = draw(st.lists(vector, min_size=count, max_size=count))
    return arity, source_dim, target_dim, values


@settings(deadline=None)
@given(cochain_data())
def test_cochain_keeps_only_its_nonzero_values(case):
    arity, sd, td, values = case
    every = dict(zip(combinations(range(sd), arity), values))
    nonzero = {t: v for t, v in every.items() if any(v)}
    c = cochain_from_values(arity, sd, td, every)
    assert c == cochain_from_values(arity, sd, td, nonzero)
    assert c.values == nonzero
    assert c.is_zero() == (not nonzero)
    assert all(c.coeff(t) == v for t, v in every.items())


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=4),
       st.sampled_from([Q(0), Q(1)]), st.data())
def test_cochain_refuses_keys_that_are_not_increasing_tuples(
        arity, source_dim, entry, data):
    """A key of the wrong length, not strictly increasing, or with an
    index outside range(source_dim) is refused, even with a zero value."""
    index = st.integers(min_value=-1, max_value=source_dim)
    key = tuple(data.draw(st.one_of(
        st.lists(index, min_size=arity, max_size=arity),
        st.lists(index, max_size=4))))
    build = functools.partial(cochain_from_values, arity, source_dim, 1,
                              {key: (entry,)})
    if key in set(combinations(range(source_dim), arity)):
        assert build().coeff(key) == (entry,)
    else:
        with pytest.raises(ValueError):
            build()


@settings(deadline=None)
@given(st.data())
def test_cochain_arithmetic_agrees_with_the_dense_oracle(data):
    arity, sd, td, values = data.draw(cochain_data())
    other = data.draw(st.lists(
        st.tuples(*[small] * td), min_size=len(values),
        max_size=len(values)))
    c = data.draw(small)
    a = cochain_from_dense(arity, sd, td, [x for v in values for x in v])
    b = cochain_from_dense(arity, sd, td, [x for v in other for x in v])
    fa, fb = dense_flat(a), dense_flat(b)
    assert dense_flat(a + b) == oracle_vadd(fa, fb)
    assert dense_flat(a - b) == oracle_vsub(fa, fb)
    assert dense_flat(a.scale(c)) == oracle_vscale(c, fa)
    assert (a - a).is_zero() and a.scale(0) == Cochain.zero(arity, sd, td)
    vectors = [data.draw(st.tuples(*[small] * sd)) for _ in range(arity)]
    assert a.evaluate(vectors) == oracle_evaluate_dense(fa, sd, td, vectors)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_cochain_flat_roundtrip(arity, source_dim, target_dim, data):
    """The cochain layer's private flat coordinates: entry t of the value
    on the tuple at position p holds coordinate p * target_dim + t, and
    a cochain survives the round trip through them."""
    length = math.comb(source_dim, arity) * target_dim
    flat = tuple(data.draw(rationals) for _ in range(length))
    c = cochain_from_dense(arity, source_dim, target_dim, flat)
    assert dense_flat(c) == flat
    sparse = cochain_module._flatten(c)
    assert sparse == {k: x for k, x in enumerate(flat) if x}
    assert cochain_module._unflatten(arity, source_dim, target_dim,
                                     sparse) == c


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
