"""The integer assembly of the cochain layer against the one it replaced.

compatible_flats builds its system in ints from shared wedge prefixes
(alternating.tuple_wedges), and delta's bracket term walks the nonzero
brackets instead of every pair of every tuple.  helpers keeps the
previous assembly (oracle_compatible_flats, oracle_coboundary_columns:
Fractions, one wedge expansion per tuple or pair), and the wedge steps
are checked against the Plucker coordinates of oracle_wedge_coords.

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

from homlie.alternating import tuple_wedges, wedge_extend
from homlie.cochain import _coboundary_columns, compatible_flats
from homlie.linalg import Matrix
from homlie.structures import (
    adjoint_rep,
    catalog,
    coadjoint_rep,
    from_lie_with_morphism,
    semidirect_product,
    trivial_rep,
)

from helpers import (
    direct_sum,
    oracle_coboundary_columns,
    oracle_compatible_flats,
    oracle_wedge_coords,
)

LIE = {name: g for name, g in catalog().items()
       if g.alpha == Matrix.identity(g.dim)}
LIE["aff1xaff1"] = semidirect_product(adjoint_rep(LIE["aff1"], 0))
LIE["aff1+heisenberg3"] = direct_sum(LIE["aff1"], LIE["heisenberg3"])
TWISTED = {name: g for name, g in catalog().items() if name not in LIE}
COEFFICIENTS = (Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 3), Q(3, 2))


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
    g = rep.algebra
    arity = data.draw(st.integers(0 if g.is_regular else 1, g.dim))
    assert _coboundary_columns(rep, arity) == oracle_coboundary_columns(
        rep, arity)


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


scalars = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.sampled_from(COEFFICIENTS))


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
