"""Exact linear algebra kernel: unit values plus algebraic properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.linalg import (
    Matrix,
    Q,
    basis_vector,
    bilinear,
    block_diag,
    densify,
    format_scalar,
    matrix,
    parse_scalar,
    rref_kernel,
    scalar,
    sparse_echelon,
    sparse_rref,
    sparse_solve,
    sparse_table,
    vadd,
    vscale,
    vsub,
)
from homlie.ooperator import build_nt
from homlie.structures import sl2

from helpers import (
    exact_scalars,
    kernel_basis,
    oracle_apply,
    oracle_det,
    oracle_inverse,
    oracle_kernel_basis,
    oracle_matmul,
    oracle_rref,
    oracle_solve,
    oracle_sparse_rref,
    oracle_vadd,
    oracle_vscale,
    oracle_vsub,
    rref,
    solve,
)

scalars = st.fractions(
    min_value=-4, max_value=4, max_denominator=3).map(Q)


def square(n):
    return st.lists(st.lists(scalars, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(matrix)


def test_scalar_refuses_floats_and_bools():
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        scalar(True)
    assert scalar(3) == Q(3)


def test_parse_and_format_roundtrip():
    for text in ("0", "5", "-7", "2/3", "-11/4"):
        assert format_scalar(parse_scalar(text)) == text
    with pytest.raises(ValueError):
        parse_scalar("1.5")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_vector_arithmetic():
    u = (Q(1), Q(2))
    v = (Q(3), Q(-1))
    assert vadd(u, v) == (Q(4), Q(1))
    assert vsub(u, v) == (Q(-2), Q(3))
    assert vscale(Q(1, 2), v) == (Q(3, 2), Q(-1, 2))
    assert basis_vector(3, 1) == (Q(0), Q(1), Q(0))


def test_matrix_basics():
    m = matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.column(1) == (Q(2), Q(4))
    assert m.transpose().rows == ((Q(1), Q(3)), (Q(2), Q(4)))
    assert (m @ Matrix.identity(2)) == m
    assert m.apply((Q(1), Q(0))) == (Q(1), Q(3))
    assert oracle_det(m) == Q(-2)
    assert m.rank() == 2
    assert (m @ m.inverse()) == Matrix.identity(2)


def test_rref_and_kernel_known_values():
    m = matrix([[1, 2, 3], [2, 4, 6]])
    r, pivots = rref(m)
    assert pivots == (0,)
    assert r.row(0) == (Q(1), Q(2), Q(3))
    assert r.row(1) == (Q(0), Q(0), Q(0))
    kernel = kernel_basis(m)
    assert len(kernel) == 2
    for v in kernel:
        assert m.apply(v) == (Q(0), Q(0))
    # canonical shape: a 1 in each free position
    assert kernel[0][1] == Q(1) and kernel[1][2] == Q(1)


def test_solve():
    m = matrix([[1, 1], [0, 1]])
    assert solve(m, (Q(3), Q(1))) == (Q(2), Q(1))
    singular = matrix([[1, 1], [1, 1]])
    assert solve(singular, (Q(1), Q(2))) is None
    assert solve(singular, (Q(1), Q(1))) is not None
    found = solve(Matrix.identity(2), (2, -3))
    assert found == (2, -3) and exact_scalars(found)


def test_inverse_errors():
    with pytest.raises(ValueError):
        matrix([[1, 1], [1, 1]]).inverse()
    with pytest.raises(ValueError):
        matrix([[1, 2, 3]]).inverse()


@settings(max_examples=60, deadline=None)
@given(st.lists(scalars, min_size=1, max_size=5))
def test_diagonal_inverse_is_entrywise(entries):
    """A diagonal matrix is inverted entry by entry, with no elimination:
    the same value and scalar types as the eliminated inverse, and the
    same refusal when an entry is zero."""
    m = Matrix.diagonal(entries)
    assert m.diagonal_entries() == [scalar(e) for e in entries]
    if not all(entries):
        with pytest.raises(ValueError):
            m.inverse()
        return
    found = m.inverse()
    assert found == oracle_inverse(m)
    assert all(type(e) is int or e.denominator > 1
               for row in found.rows for e in row)
    assert Matrix.identity(len(entries)) @ found == found
    assert matrix([[1, 1], [0, 1]]).diagonal_entries() is None


def test_power_negative_needs_inverse():
    m = matrix([[2, 0], [0, 3]])
    assert m.power(-1) == matrix([["1/2", 0], [0, "1/3"]])
    assert m.power(0) == Matrix.identity(2)
    assert m.power(3) == matrix([[8, 0], [0, 27]])


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_power_by_squaring_equals_repeated_product(n, data):
    rows = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    m = Matrix(rows, ncols=n)
    ks = range(-4, 7) if m.is_invertible() else range(0, 7)
    for k in ks:
        base = m if k >= 0 else m.inverse()
        expected = Matrix.identity(n)
        for _ in range(abs(k)):
            expected = expected @ base
        assert m.power(k) == expected, k


def test_power_multiplication_count(monkeypatch):
    """power(k) squares floor(log2 k) times and multiplies the kept
    squares together popcount(k) - 1 times, with no identity factor."""
    calls = []
    matmul = Matrix.__matmul__

    def counting_matmul(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    m = matrix([[1, 1], [0, 1]])
    for k in range(0, 70):
        calls.clear()
        assert m.power(k) == matrix([[1, k], [0, 1]])
        expected = 0 if k < 2 else k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(calls) == expected, k
    calls.clear()
    assert m.power(-1) == matrix([[1, -1], [0, 1]])
    assert calls == []


def test_bilinear_keeps_fractions_and_skips_zero_coordinates():
    seen = []

    class Row(tuple):
        """A table row that records the entries bilinear reads."""

        def __getitem__(self, j):
            seen.append((self.index, j))
            return tuple.__getitem__(self, j)

    value = []
    for i, row in enumerate(sparse_table(
            [[(0, 0), (1, 2)], [(3, 0), (0, 0)]])):
        value.append(Row(row))
        value[i].index = i

    out = bilinear((1, 0), (0, Q(1, 2)), value, 2)
    assert out == (Q(1, 2), Q(1)) and seen == [(0, 1)]
    zero = bilinear((0, 0), (1, 1), value, 2)
    assert zero == (Q(0), Q(0))
    assert exact_scalars(out + zero)


def test_block_and_stack():
    top = matrix([[1]])
    bottom = matrix([[2, 3], [4, 5]])
    b = block_diag(top, bottom)
    assert b.shape == (3, 3)
    assert b.entry(0, 0) == Q(1)
    assert b.entry(1, 1) == Q(2)
    assert b.entry(0, 1) == Q(0)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_rank_nullity(m):
    assert m.rank() + len(kernel_basis(m)) == 3
    for v in kernel_basis(m):
        assert m.apply(v) == (Q(0), Q(0), Q(0))


@settings(max_examples=60, deadline=None)
@given(square(3), square(3))
def test_det_multiplicative(a, b):
    assert oracle_det(a @ b) == oracle_det(a) * oracle_det(b)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_inverse_property(m):
    if oracle_det(m) == 0:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert (m @ m.inverse()) == Matrix.identity(3)
        assert (m.inverse() @ m) == Matrix.identity(3)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_solve_consistency(m):
    rng = random.Random(7)
    x = tuple(Q(rng.randint(-3, 3)) for _ in range(3))
    b = m.apply(x)
    found = solve(m, b)
    assert found is not None
    assert m.apply(found) == b


def test_from_columns_and_is_zero():
    m = Matrix.from_columns([(Q(1), Q(2)), (Q(0), Q(1))])
    assert m.column(0) == (Q(1), Q(2))
    assert not m.is_zero()
    assert Matrix.zero(2, 3).is_zero()
    assert Matrix.diagonal([Q(1), Q(2)]).entry(1, 1) == Q(2)
    from_ints = Matrix.from_columns([(1, 2), (0, "1/3")])
    assert from_ints == Matrix.from_columns([(Q(1), Q(2)), (Q(0), Q(1, 3))])
    diagonal = Matrix.diagonal(iter([3, -1]))
    assert diagonal.rows == ((Q(3), Q(0)), (Q(0), Q(-1)))
    for m in (from_ints, diagonal):
        assert exact_scalars(e for row in m.rows for e in row)
    with pytest.raises(TypeError):
        Matrix.diagonal([1.5])


def test_matrix_refuses_ragged_rows():
    with pytest.raises(ValueError):
        matrix([[1, 2], [3]])


# The zero-skipping kernels against the dense oracles in helpers.py.

entries = st.one_of(scalars, st.integers(min_value=-3, max_value=3))


@st.composite
def mostly_zero(draw, n):
    """n entries, ints mixed with Fractions, at least half of them zero."""
    values = draw(st.lists(entries, min_size=n, max_size=n))
    for k in draw(st.permutations(range(n)))[: (n + 1) // 2]:
        values[k] = Q(0) if k % 2 else 0
    return tuple(values)


@st.composite
def mostly_zero_matrix(draw, nrows, ncols):
    flat = draw(mostly_zero(nrows * ncols))
    return Matrix(tuple(flat[i * ncols:(i + 1) * ncols]
                        for i in range(nrows)), ncols=ncols)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_kernels_equal_dense_oracles(data):
    r, k, c = (data.draw(st.integers(min_value=0, max_value=4))
               for _ in range(3))
    a = data.draw(mostly_zero_matrix(r, k))
    b = data.draw(mostly_zero_matrix(k, c))
    u = data.draw(mostly_zero(k))
    v = data.draw(mostly_zero(k))
    c_scale = data.draw(st.one_of(st.just(1), st.just(Q(1)), entries))
    product = a @ b
    assert product.shape == (r, c)
    assert product == oracle_matmul(a, b)
    results = [a.apply(u), vadd(u, v), vsub(u, v), vscale(c_scale, u)]
    assert results == [oracle_apply(a, u), oracle_vadd(u, v),
                       oracle_vsub(u, v), oracle_vscale(c_scale, u)]
    for out in (*product.rows, *results):
        assert exact_scalars(out)
    exact = tuple(Q(x) for x in u)
    assert vscale(1, exact) is exact


class CountingFraction(Fraction):
    """A Fraction that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return Fraction.__mul__(self, other)

    def __rmul__(self, other):
        CountingFraction.products += 1
        return Fraction.__rmul__(self, other)


class CountingInt(int):
    """An int that counts the products it takes part in.  scalar() keeps
    an int as it is, where it turns an integral Fraction into an int."""

    def __mul__(self, other):
        CountingFraction.products += 1
        return int.__mul__(self, other)

    def __rmul__(self, other):
        CountingFraction.products += 1
        return int.__rmul__(self, other)


def counting(x):
    """x as a counting scalar that Matrix and scalar() keep as it is."""
    x = Q(x)
    if x.denominator == 1:
        return CountingInt(x.numerator)
    return CountingFraction(x)


def _nonzero_pairs(m, v):
    return sum(1 for row in m.rows for a, x in zip(row, v) if a and x)


def test_kernels_multiply_no_zero_operand():
    """identity @ m and N_T v form one product per pair of nonzero
    operands; the dense kernels formed one per pair of positions."""
    rng = random.Random(11)
    values = (0, 0, 0, 1, -2, Q(1, 3))
    m = Matrix(tuple(tuple(counting(rng.choice(values))
                           for _ in range(6)) for _ in range(6)))
    assert all(type(e) in (CountingInt, CountingFraction)
               for row in m.rows for e in row)
    nonzero = sum(1 for row in m.rows for x in row if x)
    assert 0 < nonzero < 36
    CountingFraction.products = 0
    product = Matrix.identity(6) @ m
    assert CountingFraction.products == nonzero
    assert product == m

    t = matrix([[1, 0, 2], [0, 0, -1]])
    nt = build_nt(t)
    v = tuple(counting(x) for x in (1, 0, 0, 2, Q(-1, 2)))
    CountingFraction.products = 0
    image = nt.apply(v)
    assert CountingFraction.products == _nonzero_pairs(nt, v) == 2
    assert image == oracle_apply(nt, v)


class ClosedCountingFraction(CountingFraction):
    """A CountingFraction whose products count again when multiplied."""

    def __mul__(self, other):
        return ClosedCountingFraction(CountingFraction.__mul__(self, other))

    def __rmul__(self, other):
        return ClosedCountingFraction(CountingFraction.__rmul__(self, other))


def test_bracket_forms_one_product_per_pair_and_constant():
    """bracket(u, v) forms u_i v_j once per pair of nonzero coordinates
    with a nonzero bracket [e_i, e_j], and one product per nonzero
    constant of that bracket."""
    g = sl2()
    u = tuple(ClosedCountingFraction(x) for x in (1, 0, Q(-1, 2)))
    v = tuple(ClosedCountingFraction(x) for x in (2, 3, 0))
    expected = 0
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            constants = sum(1 for c in g.bracket_basis(i, j) if c)
            if a and b and constants:
                expected += 1 + constants
    assert expected == 6
    g.bracket(u, v)  # builds the table once
    CountingFraction.products = 0
    out = g.bracket(u, v)
    assert CountingFraction.products == expected
    assert out == (Q(3, 2), Q(6), Q(-2))  # 3/2 h + 6 e - 2 f


# The sparse eliminator against the dense elimination it replaced
# (helpers.oracle_rref) and against sympy.


def _to_sympy(m):
    return sympy.Matrix(m.nrows, m.ncols, [
        sympy.Rational(x.numerator, x.denominator)
        for row in m.rows for x in row])


def _from_sympy(rows):
    return tuple(tuple(Q(int(x.p), int(x.q)) for x in row) for row in rows)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sparse_elimination_equals_dense_oracle_and_sympy(data):
    nrows, ncols = (data.draw(st.integers(min_value=0, max_value=6))
                    for _ in range(2))
    m = data.draw(mostly_zero_matrix(nrows, ncols))
    reduced, pivots = rref(m)
    work, oracle_pivots = oracle_rref(m)
    assert (reduced.rows, pivots) == (tuple(map(tuple, work)), oracle_pivots)
    s = _to_sympy(m)
    s_reduced, s_pivots = s.rref()
    assert pivots == tuple(s_pivots)
    assert reduced.rows == _from_sympy(s_reduced.tolist())
    assert m.rank() == len(pivots) == s.rank()

    kernel = kernel_basis(m)
    assert kernel == oracle_kernel_basis(m)
    assert kernel == [_from_sympy(v.T.tolist())[0] for v in s.nullspace()]

    x = data.draw(mostly_zero(ncols))
    consistent = m.apply(x)
    found = solve(m, consistent)
    assert found == oracle_solve(m, consistent)
    assert m.apply(found) == consistent
    b = data.draw(mostly_zero(nrows))
    found = solve(m, b)
    assert found == oracle_solve(m, b)
    augmented = s.row_join(sympy.Matrix(nrows, 1, [sympy.Rational(
        Q(c).numerator, Q(c).denominator) for c in b]))
    assert (found is None) == (augmented.rank() > s.rank())

    for out in (*kernel, *filter(None, (found, solve(m, consistent)))):
        assert exact_scalars(out)

    if nrows == ncols:
        if s.det() == 0:
            with pytest.raises(ValueError):
                m.inverse()
            with pytest.raises(ValueError):
                oracle_inverse(m)
        else:
            assert m.inverse() == oracle_inverse(m)
            assert m.inverse().rows == _from_sympy(s.inv().tolist())

    # The reduced form is unique: any order of the rows gives it.
    rows = [{j: e for j, e in enumerate(row) if e} for row in m.rows]
    form = sparse_rref(rows)
    permuted = data.draw(st.permutations(rows))
    assert sparse_rref(permuted) == form
    assert sorted(form) == list(pivots)
    for p, row in form.items():
        assert row == {j: e for j, e in enumerate(reduced.rows[pivots.index(
            p)]) if e}
    sparse_kernel = rref_kernel(form, ncols)
    assert [densify(v, ncols) for v in sparse_kernel] == kernel
    assert all(all(v.values()) for v in sparse_kernel)
    assert sparse_solve(rows, ncols, b) == found


# The fraction-free eliminator against Gauss-Jordan on Fractions (the
# eliminator it replaced, kept as helpers.oracle_sparse_rref) and sympy,
# on rows as the cochain layer hands them over: sparse, with large
# denominators, rescaled copies of other rows, zero rows, and integral
# Fractions such as Fraction(-1, 1) that a product of Fractions leaves.

wide_scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.integers(1, 10 ** 9)))


@st.composite
def elimination_rows(draw, ncols):
    """Sparse rows on ncols columns; some rescale or combine earlier ones,
    and some are zero or hold explicit zeros."""
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("fresh", "fresh", "rescaled", "sum",
                                     "zero")))
        if kind == "zero" or not ncols:
            rows.append(dict.fromkeys(draw(st.sets(
                st.integers(0, ncols - 1), max_size=2)) if ncols else (), 0))
        elif kind == "fresh" or not rows:
            columns = draw(st.sets(st.integers(0, ncols - 1), min_size=1))
            rows.append({c: draw(wide_scalars) for c in columns})
        elif kind == "rescaled":
            c = draw(wide_scalars.filter(bool))
            rows.append({k: c * e for k, e in draw(st.sampled_from(
                rows)).items()})
        else:
            first, second = draw(st.sampled_from(rows)), draw(
                st.sampled_from(rows))
            rows.append({k: first.get(k, 0) + second.get(k, 0)
                         for k in {*first, *second}})
    return rows


def _sympy_rows(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [
        sympy.Rational(Q(x).numerator, Q(x).denominator)
        for row in rows for x in densify(row, ncols)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_order_changes_no_pivot_rank_or_reduced_form(data):
    """sparse_echelon takes its rows shortest first, and whatever order
    they arrive in, shuffled or reversed, the pivot columns, the rank,
    the reduced form and a solution read off it stay the same."""
    ncols = data.draw(st.integers(0, 6))
    rows = data.draw(elimination_rows(ncols))
    b = data.draw(st.lists(wide_scalars, min_size=len(rows),
                           max_size=len(rows)))
    pivots, reduced = sorted(sparse_echelon(rows)), sparse_rref(rows)
    solution = sparse_solve(rows, ncols, b)
    order = data.draw(st.permutations(range(len(rows))))
    for permutation in (order, order[::-1], range(len(rows))[::-1]):
        moved = [rows[k] for k in permutation]
        assert sorted(sparse_echelon(moved)) == pivots
        assert sparse_rref(moved) == reduced
        assert sparse_solve(moved, ncols, [b[k] for k in permutation]) \
            == solution


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fraction_free_elimination_equals_gauss_jordan_and_sympy(data):
    ncols = data.draw(st.integers(0, 6))
    rows = data.draw(elimination_rows(ncols))
    reduced = sparse_rref(rows)
    assert reduced == oracle_sparse_rref(rows)
    s = _sympy_rows(rows, ncols)
    s_reduced, s_pivots = s.rref()
    assert sorted(reduced) == list(s_pivots)
    for p, row in reduced.items():
        assert exact_scalars(row.values()) and row[p] == 1
        assert row == {j: e for j, e in enumerate(_from_sympy(
            s_reduced.tolist())[s_pivots.index(p)]) if e}

    echelon = sparse_echelon(rows)
    assert sorted(echelon) == sorted(reduced)
    assert len(echelon) == s.rank()
    for p, row in echelon.items():
        assert min(row) == p and all(type(e) is int and e for e in
                                     row.values())
        assert math.gcd(*row.values()) == 1
    m = Matrix(tuple(densify(row, ncols) for row in rows), ncols=ncols) \
        if rows else Matrix.zero(0, ncols)
    assert m.rank() == s.rank()
    assert m.is_invertible() == (s.rows == s.cols and s.rank() == s.rows)

    kernel = rref_kernel(reduced, ncols)
    assert kernel == rref_kernel(oracle_sparse_rref(rows), ncols)
    assert [densify(v, ncols) for v in kernel] == [
        _from_sympy(v.T.tolist())[0] for v in s.nullspace()]

    b = data.draw(st.lists(wide_scalars, min_size=len(rows),
                           max_size=len(rows)))
    found = sparse_solve(rows, ncols, b)
    augmented = oracle_sparse_rref(
        {**row, ncols: c} if c else row for row, c in zip(rows, b))
    s_augmented = s.row_join(_sympy_rows([{0: c} for c in b], 1))
    assert (found is None) == (ncols in augmented) == (
        s_augmented.rank() > s.rank())
    if found is not None:
        assert found == tuple(augmented[p].get(ncols, 0) if p in augmented
                              else 0 for p in range(ncols))
        assert all(sum(row.get(j, 0) * found[j] for j in range(ncols)) == c
                   for row, c in zip(rows, b))

    if m.is_square():
        if m.is_invertible():
            assert m.inverse() == oracle_inverse(m)
            assert m.inverse().rows == _from_sympy(s.inv().tolist())
        else:
            for inverse in (m.inverse, lambda: oracle_inverse(m)):
                with pytest.raises(ValueError):
                    inverse()
