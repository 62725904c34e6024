"""The assembly of the cochain layer against the one it replaced.

compatible_flats reads the basis of diagonal twists off their diagonals
and builds the system of any other pair in ints from shared wedge
prefixes (alternating.tuple_wedges); delta is built only on the columns
its caller reads, each column from the rows it meets.  helpers keeps
the previous assembly (oracle_compatible_flats, oracle_coboundary_columns:
Fractions, one wedge expansion per tuple or pair, delta row by row on
every column) and the diagonal read-off
(oracle_diagonal_compatible_basis), and the wedge steps are checked
against the Plucker coordinates of oracle_wedge_coords.

The complexes are the catalog algebras and a few Lie algebras of
dimension 4 and 5, each also twisted (Yau's construction,
from_lie_with_morphism) by exp(c ad x) for an ad-nilpotent basis vector
x and by projections: idempotent endomorphisms, diagonal or conjugated
by such an exp.  Their coefficients are the adjoint, the coadjoint
(regular only) and the trivial representation.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations

from hypothesis import given, settings, strategies as st

from homlie import cochain as cochain_module
from homlie.alternating import increasing_tuples, tuple_wedges, wedge_extend
from homlie.cochain import (
    Cochain,
    _coboundary_columns,
    coboundary,
    cohomology_table,
    compatible_flats,
    compatible_maps_basis,
)
from homlie.linalg import Matrix, densify, sparse_rref
from homlie.structures import (
    adjoint_rep,
    catalog,
    coadjoint_rep,
    from_lie_with_morphism,
    semidirect_product,
    trivial_rep,
)

from helpers import (
    cochain_from_dense,
    cochain_from_values,
    count_calls,
    direct_sum,
    oracle_coboundary,
    oracle_coboundary_columns,
    oracle_compatible_flats,
    oracle_diagonal_compatible_basis,
    oracle_wedge_coords,
)

LIE = {name: g for name, g in catalog().items()
       if g.alpha == Matrix.identity(g.dim)}
LIE["aff1xaff1"] = semidirect_product(adjoint_rep(LIE["aff1"], 0))
LIE["aff1+heisenberg3"] = direct_sum(LIE["aff1"], LIE["heisenberg3"])
TWISTED = {name: g for name, g in catalog().items() if name not in LIE}
COEFFICIENTS = (Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 3), Q(3, 2))
scalars = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.sampled_from(COEFFICIENTS))


def exp_nilpotent(n: Matrix) -> Matrix:
    """exp(N) = sum_k N^k / k! for a nilpotent N."""
    total = term = Matrix.identity(n.nrows)
    k = 1
    while not (term := (term @ n).scale(Q(1, k))).is_zero():
        total, k = total + term, k + 1
    return total


def ad(g, i: int) -> Matrix:
    return Matrix.from_columns([g.bracket_basis(i, j) for j in range(g.dim)])


def nilpotent_ads(g) -> list:
    return [i for i in range(g.dim) if not ad(g, i).is_zero()
            and ad(g, i).power(g.dim).is_zero()]


def is_endomorphism(g, phi: Matrix) -> bool:
    try:
        from_lie_with_morphism(g, phi)
    except ValueError:
        return False
    return True


def diagonal_projections(g) -> list:
    """The diagonal 0/1 matrices, neither 0 nor 1, that are endomorphisms."""
    found = []
    for k in range(1, g.dim):
        for kept in combinations(range(g.dim), k):
            p = Matrix.diagonal([int(i in kept) for i in range(g.dim)])
            if is_endomorphism(g, p):
                found.append(p)
    return found


TWISTS = {name: (nilpotent_ads(g), diagonal_projections(g))
          for name, g in LIE.items()}


@st.composite
def twisted_algebras(draw, max_dim=5):
    """A catalog or small Lie algebra of dim <= max_dim, Lie algebras
    possibly twisted by exp(c ad x) or by a projection."""
    name = draw(st.sampled_from([n for n in sorted(LIE) + sorted(TWISTED)
                                 if {**LIE, **TWISTED}[n].dim <= max_dim]))
    if name in TWISTED:
        g = TWISTED[name]
    else:
        g = LIE[name]
        nilpotent, projections = TWISTS[name]
        kinds = ["none"] + ["exp"] * bool(nilpotent) \
            + ["projection"] * bool(projections)
        kind = draw(st.sampled_from(kinds))
        if kind != "none":
            twist = draw(st.sampled_from(projections)) \
                if kind == "projection" else Matrix.identity(g.dim)
            if nilpotent:
                e = exp_nilpotent(ad(g, draw(st.sampled_from(nilpotent)))
                                  .scale(draw(st.sampled_from(COEFFICIENTS))))
                twist = e @ twist @ e.inverse() if kind == "projection" \
                    else e
            g = from_lie_with_morphism(g, twist)
    return g


@st.composite
def complexes(draw, max_dim=5):
    """A coefficient representation on an algebra of twisted_algebras."""
    g = draw(twisted_algebras(max_dim))
    makers = [lambda h: adjoint_rep(h, 0), trivial_rep]
    if g.is_regular:
        makers.append(coadjoint_rep)
    return draw(st.sampled_from(makers))(g)


def _types(flats):
    return [{k: type(v) for k, v in f.items()} for f in flats]


@settings(max_examples=150, deadline=None)
@given(complexes(), st.data())
def test_integer_compatible_flats_equal_the_fraction_system(rep, data):
    """The same flats in value, type and order."""
    g = rep.algebra
    arity = data.draw(st.integers(0, g.dim + 1))
    found = compatible_flats(g.alpha, rep.beta, arity)
    expected = oracle_compatible_flats(g.alpha, rep.beta, arity)
    assert found == expected
    assert _types(found) == _types(expected)


@settings(max_examples=150, deadline=None)
@given(complexes(), st.data())
def test_bracket_walk_gives_the_pairwise_coboundary_columns(rep, data):
    """Every column built for a wanted set, the full one included, is
    the column of the row-by-row assembly."""
    g = rep.algebra
    arity = data.draw(st.integers(0 if g.is_regular else 1, g.dim))
    expected = oracle_coboundary_columns(rep, arity)
    wanted = data.draw(st.one_of(
        st.just(set(range(len(expected)))),
        st.sets(st.integers(0, len(expected) - 1)))) if expected else set()
    assert _coboundary_columns(rep, arity, wanted) == {
        k: expected[k] for k in wanted}


@settings(max_examples=100, deadline=None)
@given(complexes(max_dim=4), st.data())
def test_coboundary_of_a_sparse_cochain_is_the_pointwise_one(rep, data):
    """coboundary builds only the columns of its cochain's entries; at
    arity 0 the cochain is a fixed point of the coefficient twist."""
    g = rep.algebra
    arity = data.draw(st.integers(0 if rep.is_regular else 1, min(g.dim, 3)))
    if arity == 0:
        w = [0] * rep.dim
        for flat in compatible_flats(g.alpha, rep.beta, 0):
            c = data.draw(scalars)
            for t, x in flat.items():
                w[t] += c * x
        image, columns = {}, oracle_coboundary_columns(rep, 0)
        for t, x in enumerate(w):
            for row, c in columns[t].items():
                image[row] = image.get(row, 0) + c * x
        expected = cochain_from_dense(1, g.dim, rep.dim, densify(
            image, g.dim * rep.dim))
        assert coboundary(rep, Cochain(0, g.dim, rep.dim,
                                       {(): tuple(w)})) == expected
        return
    tuples = increasing_tuples(g.dim, arity)
    keys = data.draw(st.sets(st.sampled_from(tuples), max_size=3))
    f = cochain_from_values(arity, g.dim, rep.dim, {
        key: tuple(data.draw(scalars) for _ in range(rep.dim))
        for key in keys})
    assert coboundary(rep, f) == oracle_coboundary(rep, f)


def test_cohomology_assembles_only_the_compatible_columns(monkeypatch):
    """The semidirect sum of heisenberg3 twisted by diag(2, 1/2, 1) with
    its adjoint representation: 112 of the 384 flat coordinates of its
    arities 0..6 are compatible, and delta is built on those alone."""
    g = semidirect_product(adjoint_rep(TWISTED["heisenberg3_twisted"]))
    rep = adjoint_rep(g)
    calls = count_calls(monkeypatch, cochain_module._coboundary_columns)
    table = cohomology_table(rep, g.dim)
    assert sum(row.dim_cochains for row in table) == 112
    assert sum(len(args[2]) for args in calls) == 112


D = [1, 2, Q(1, 2)]
DIAGONALS = [[1, 1, 1], D, D * 2, [2, Q(1, 2), 1], [2, Q(1, 2), 1] * 2,
             [1, 0], [1, 0, 1, 0]]
diagonal_entries = st.sampled_from([0, 1, -1, 2, -2, Q(1, 2), Q(-1, 2), 4])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(DIAGONALS),
                 st.lists(diagonal_entries, min_size=1, max_size=5)),
       st.one_of(st.sampled_from(DIAGONALS),
                 st.lists(diagonal_entries, min_size=1, max_size=4)),
       st.data())
def test_diagonal_twists_are_read_by_weight(sigma, tau, data):
    """The identity, D = diag(1, 2, 1/2) per block, heisenberg3's
    diag(2, 1/2, 1), aff1's diag(1, 0) and random diagonals: the read
    gives the flats of the integer system in value, type and order, and
    the units of the diagonal oracle."""
    arity = data.draw(st.integers(0, len(sigma) + 1))
    s, t = Matrix.diagonal(sigma), Matrix.diagonal(tau)
    found = compatible_flats(s, t, arity)
    expected = oracle_compatible_flats(s, t, arity)
    assert found == expected
    assert _types(found) == _types(expected)
    assert compatible_maps_basis(s, t, arity) == \
        oracle_diagonal_compatible_basis(s, t, arity)


def test_only_a_twist_off_the_diagonal_is_eliminated(monkeypatch):
    """Diagonal twists make no sparse_rref call in compatible_flats;
    sl2 twisted by exp(ad e) makes one per arity."""
    e = exp_nilpotent(ad(LIE["sl2"], 1))
    calls = count_calls(monkeypatch, sparse_rref)
    for sigma in DIAGONALS:
        for tau in ([1], D, sigma):
            for arity in range(len(sigma) + 2):
                compatible_flats(Matrix.diagonal(sigma),
                                 Matrix.diagonal(tau), arity)
    assert calls == []
    compatible_flats(e, e, 2)
    assert len(calls) == 1


def test_a_yau_twist_keeps_its_integral_entries_as_ints():
    """exp(ad e) summed with Matrix.scale holds Fractions such as -1/1;
    the twisted algebra reads them as ints, in its twist and brackets."""
    e = exp_nilpotent(ad(LIE["sl2"], 1))
    assert any(type(x) is Q for row in e.rows for x in row)
    g = from_lie_with_morphism(LIE["sl2"], e)
    assert g.alpha == e
    assert all(type(x) is int for row in g.alpha.rows + g.table for x in row)


def test_the_twists_include_nondiagonal_and_singular_ones():
    """exp(ad x) is an automorphism, and its conjugates of the diagonal
    projections are idempotent singular endomorphisms, some of them not
    diagonal: the strategy reaches compatible systems that are not a
    set of units, with and without an invertible twist."""
    conjugated = []
    for name, (nilpotent, projections) in TWISTS.items():
        g = LIE[name]
        for i in nilpotent:
            e = exp_nilpotent(ad(g, i))
            assert e.is_invertible() and is_endomorphism(g, e)
            for p in projections:
                twist = e @ p @ e.inverse()
                assert is_endomorphism(g, twist) and twist @ twist == twist
                assert not twist.is_invertible()
                conjugated.append(twist)
    assert sum(any(m.entry(i, j) for i in range(m.nrows)
                   for j in range(m.ncols) if i != j)
               for m in conjugated) >= 5




@st.composite
def vector_lists(draw):
    dim = draw(st.integers(0, 5))
    count = draw(st.integers(0, 5))
    return dim, [tuple(draw(st.lists(scalars, min_size=dim, max_size=dim)))
                 for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(vector_lists(), st.data())
def test_tuple_wedges_are_the_minors_of_every_tuple(vectors_of_dim, data):
    dim, vectors = vectors_of_dim
    k = data.draw(st.integers(0, len(vectors) + 1))
    found = tuple_wedges(vectors, k)
    assert [tup for tup, _ in found] == list(
        combinations(range(len(vectors)), k))
    for tup, wedge in found:
        assert wedge == oracle_wedge_coords([vectors[i] for i in tup], dim)
        assert all(wedge.values())


@settings(max_examples=150, deadline=None)
@given(vector_lists())
def test_wedge_extend_is_one_more_factor(vectors_of_dim):
    dim, vectors = vectors_of_dim
    terms = {(): 1}
    for k, v in enumerate(vectors):
        terms = wedge_extend(terms, v)
        assert terms == oracle_wedge_coords(vectors[:k + 1], dim)
