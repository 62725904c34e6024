"""Linear and formal deformations of O-operators, obstructions,
extensions, Nijenhuis elements, and equivalences.

Closed-form expectations are worked out by hand for the line-algebra
bases; the hand derivations are quoted in the docstrings.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from homlie.cli import main as cli_main
from homlie.cochain import (
    Cochain,
    coboundary,
    compatible_maps_basis,
    zero_coboundary,
)
from homlie.deformation import (
    TruncatedDeformation,
    equivalence_check,
    extend_order,
    extension_steps,
    formal_deformation_check,
    infinitesimal_check,
    linear_deformation_check,
    nijenhuis_element_check,
    obstruction,
    trivial_deformation_from_nijenhuis,
)
from homlie.graded import build_theta, derived_bracket
from homlie.io import load_deformation, load_rep
from homlie.linalg import Matrix, basis_vector, matrix, vsub
from homlie.ooperator import coefficient_terms, is_o_operator, rho_t
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    trivial_rep,
)

from helpers import (
    cochain_from_dense,
    count_calls,
    dense_flat,
    kernel_basis,
    oracle_deformed_identity,
    oracle_extend_order,
    oracle_hom_conditions,
    oracle_obstruction,
    rand_matrix,
    rand_scalar,
)

FIXTURES = catalog()

GRID = [Q(v) for v in (-1, 0, 1, 2)]


def aff1_data():
    g = FIXTURES["aff1"]
    return g, adjoint_rep(g, 0), matrix([[0, 1], [0, 0]])


def twisted_data():
    g = FIXTURES["aff1_twisted"]
    return g, adjoint_rep(g, 0), matrix([[1, 0], [0, 0]])


def test_truncated_deformation_container():
    base = matrix([[0, 1], [0, 0]])
    k = matrix([[1, 0], [0, -1]])
    d = TruncatedDeformation.of(base, [k])
    assert d.order == 1
    assert d.coefficient(0) == base
    assert d.coefficient(1) == k
    assert d.coefficient(5) == Matrix.zero(2, 2)
    assert d.coefficients() == [base, k]
    assert TruncatedDeformation.of(base).order == 0
    with pytest.raises(ValueError):
        TruncatedDeformation.of(base, [matrix([[1, 0, 0], [0, 1, 0]])])


def test_linear_deformation_variety():
    """For the base [[0,1],[0,0]] on ([e1,e2] = e2, adjoint) the cocycle
    condition on K = [[p,q],[r,s]] is p + s = 0 and r = 0, and the
    quadratic condition then forces K to be a multiple of the base."""
    g, rep, t = aff1_data()
    for entries in itertools.product(GRID, repeat=4):
        p, q, r, s = entries
        k = matrix([[p, q], [r, s]])
        report = linear_deformation_check(g, rep, t, k)
        assert report.generator_twist_compatible
        assert report.cocycle == (p + s == 0 and r == 0), entries
        assert report.valid == (p == s == r == 0), entries


def test_linear_deformation_failure_strings():
    """The cocycle failure reports both sides of
    [T u, K v] + [K u, T v] = T({K u, v} - {K v, u}) + K({T u, v} - {T v, u})
    at the failing pair; the generator failure reports the O-operator
    identity defect of K against zero."""
    g, rep, t = aff1_data()
    lower = linear_deformation_check(g, rep, t, matrix([[0, 0], [1, 0]]))
    assert [str(f) for f in lower.failures] == [
        "deformation_cocycle fails at (0,1): "
        "lhs=(Fraction(0, 1), Fraction(-1, 1)) "
        "rhs=(Fraction(0, 1), Fraction(0, 1))",
    ]
    both = linear_deformation_check(g, rep, t, matrix([[1, 1], [0, 1]]))
    assert [str(f) for f in both.failures] == [
        "deformation_cocycle fails at (0,1): "
        "lhs=(Fraction(0, 1), Fraction(0, 1)) "
        "rhs=(Fraction(2, 1), Fraction(0, 1))",
        "generator_o_operator fails at (0,1): "
        "lhs=(Fraction(-2, 1), Fraction(-1, 1)) "
        "rhs=(Fraction(0, 1), Fraction(0, 1))",
    ]


def test_linear_matches_formal_to_its_order():
    """A one-term family is a linear deformation exactly when the
    truncated family passes the order-by-order check extended through
    the quadratic equation of the generator."""
    g, rep, t = aff1_data()
    for entries in itertools.product(GRID, repeat=4):
        k = matrix([list(entries[:2]), list(entries[2:])])
        linear = linear_deformation_check(g, rep, t, k)
        d = TruncatedDeformation.of(t, [k])
        formal = formal_deformation_check(g, rep, d)
        # orders 0 and 1 of the formal check are base validity and the
        # cocycle condition; the quadratic condition is the order-2
        # equation, which the order-1 truncation does not see.
        assert formal.per_order[0][1]
        assert formal.per_order[1][1] == linear.cocycle
        two = TruncatedDeformation.of(t, [k, Matrix.zero(2, 2)])
        assert formal_deformation_check(g, rep, two).ok == linear.valid


def test_formal_check_flags_invalid_base():
    g, rep, _ = aff1_data()
    report = formal_deformation_check(
        g, rep, TruncatedDeformation.of(Matrix.identity(2)))
    assert not report.ok
    assert report.first_failing_order == 0


def test_formal_check_flags_incompatible_coefficient():
    g, rep, t = twisted_data()
    d = TruncatedDeformation.of(t, [matrix([[0, 1], [0, 0]])])
    report = formal_deformation_check(g, rep, d)
    assert not report.twist_compatible


def test_nijenhuis_element_frozen():
    """x = e1 is a Nijenhuis element for the base [[0,1],[0,0]]: every
    condition is a short bracket computation; x = e2 fails only the
    generator-bracket condition via [e2, T rho(e2) e1] = e2."""
    g, rep, t = aff1_data()
    good = nijenhuis_element_check(g, rep, t, basis_vector(2, 0))
    assert good.ok
    bad = nijenhuis_element_check(g, rep, t, basis_vector(2, 1))
    assert bad.fixed_by_twist and bad.bracket_square and bad.action_square
    assert not bad.generator_bracket
    assert not bad.ok


def test_trivial_deformation_certificate():
    """delta_T(e1) recovers the base operator itself, so the trivial
    deformation generated by e1 is T + t T with a full certificate."""
    g, rep, t = aff1_data()
    x = basis_vector(2, 0)
    result = trivial_deformation_from_nijenhuis(g, rep, t, x)
    assert result.generator == t
    assert nijenhuis_element_check(g, rep, t, x).ok
    assert result.linear_report.valid
    assert result.certificate.ok
    assert result.ok and result.failures == ()
    rows = result.certificate.conditions()
    assert [(c, k) for c, k, _ in rows] == [
        (c, k) for c in ("operator_intertwine", "bracket_homomorphism",
                         "action_equivariance", "twist_commute")
        for k in (0, 1, 2)]
    assert all(holds for _, _, holds in rows)


def test_trivial_deformation_failing_element():
    """e2 is not a Nijenhuis element; its coboundary [[-1,0],[0,1]] is a
    cocycle but not quadratic, so the result reports failure."""
    g, rep, t = aff1_data()
    x = basis_vector(2, 1)
    result = trivial_deformation_from_nijenhuis(g, rep, t, x)
    element = nijenhuis_element_check(g, rep, t, x)
    assert result.generator == matrix([[-1, 0], [0, 1]])
    assert not element.ok
    assert result.linear_report.cocycle
    assert not result.linear_report.generator_quadratic
    assert not result.ok
    assert result.failures == (element.failures
                               + result.linear_report.failures
                               + result.certificate.failures)


def test_infinitesimal_check():
    g, rep, t = aff1_data()
    zero = Matrix.zero(2, 2)
    trivial = infinitesimal_check(g, rep, TruncatedDeformation.of(t))
    assert trivial.index is None and not trivial.ok
    first = infinitesimal_check(g, rep, TruncatedDeformation.of(t, [t]))
    assert first.index == 1 and first.ok
    shifted = infinitesimal_check(
        g, rep,
        TruncatedDeformation.of(t, [zero, matrix([[1, 0], [0, -1]])]))
    assert shifted.index == 2 and shifted.ok
    broken = infinitesimal_check(
        g, rep, TruncatedDeformation.of(t, [matrix([[0, 0], [1, 0]])]))
    assert broken.index == 1 and not broken.ok


def test_obstruction_requires_valid_deformation():
    g, rep, t = aff1_data()
    bad = TruncatedDeformation.of(t, [matrix([[0, 0], [1, 0]])])
    with pytest.raises(ValueError):
        obstruction(g, rep, bad)


def test_obstruction_frozen_zero_base():
    """Base 0 with first-order term the identity: Theta is minus the
    bracket, the image of {{0, -}} is zero, and H^2 of the complex of
    the zero operator is the full 2-dimensional space."""
    g, rep, _ = aff1_data()
    d = TruncatedDeformation.of(Matrix.zero(2, 2), [Matrix.identity(2)])
    theta = obstruction(g, rep, d)
    assert theta.coeff((0, 1)) == (Q(0), Q(-1))
    result = extend_order(g, rep, d)
    assert result.obstructed
    assert result.solution is None and result.extended is None
    assert result.dim_image == 0
    assert result.dim_h2 == 2


def test_extension_with_vanishing_h2():
    """The base [[0,1],[0,0]] has dim H^2 = 0, so extension always
    succeeds; from the bare base the canonical solution is zero."""
    g, rep, t = aff1_data()
    result = extend_order(g, rep, TruncatedDeformation.of(t))
    assert result.ok
    assert result.dim_h2 == 0
    assert result.dim_image == 2
    assert result.solution == Matrix.zero(2, 2)
    assert result.extended.order == 1
    again = extend_order(g, rep, result.extended)
    assert again.ok and again.extended.order == 2
    assert formal_deformation_check(g, rep, again.extended).ok
    linear = extend_order(g, rep, TruncatedDeformation.of(t, [t]))
    assert linear.ok
    assert formal_deformation_check(g, rep, linear.extended).ok


def test_extension_obstruction_split_twisted_base():
    """On the twisted line with base diag(1,0) the compatible first-order
    terms are diag(p,s); delta_T vanishes on all of them, Theta comes out
    as -2 s^2 on (e1, e2), and H^2 is one-dimensional.  So the family is
    obstructed exactly when s is nonzero."""
    g, rep, t = twisted_data()
    for p, s in itertools.product(GRID, repeat=2):
        d = TruncatedDeformation.of(t, [matrix([[p, 0], [0, s]])])
        assert formal_deformation_check(g, rep, d).ok
        result = extend_order(g, rep, d)
        assert result.theta.coeff((0, 1)) == (Q(0), -2 * s * s)
        assert result.dim_image == 0
        assert result.dim_h2 == 1
        assert result.obstructed == (s != 0), (p, s)
        if result.ok:
            assert formal_deformation_check(g, rep, result.extended).ok


def test_obstruction_is_cocycle_dim3():
    """On the Heisenberg algebra with base E_33, obstructions of valid
    order-1 deformations are cocycles of the operator complex; arity 3
    is nonvacuous here so the assertion has content."""
    g = FIXTURES["heisenberg3"]
    rep = adjoint_rep(g, 0)
    t = matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert is_o_operator(g, rep, t).ok
    rep_t = rho_t(g, rep, t)
    t_cochain = Cochain.from_linear_map(t)
    candidates = compatible_maps_basis(rep.beta, g.alpha, 1)
    flats = [dense_flat(derived_bracket(rep, t_cochain, b))
             for b in candidates]
    system = Matrix.from_columns(flats, nrows=len(flats[0]))
    kernel = kernel_basis(system)
    assert kernel
    rng = random.Random(71)
    checked = 0
    for _ in range(10):
        coords = [rand_scalar(rng) for _ in kernel]
        flat = [sum(c * v[i] for c, v in zip(coords, kernel))
                for i in range(len(kernel[0]))]
        k = cochain_from_dense(1, rep.dim, g.dim, flat).as_matrix()
        d = TruncatedDeformation.of(t, [k])
        assert formal_deformation_check(g, rep, d).ok
        theta = obstruction(g, rep, d)
        assert coboundary(rep_t, theta).is_zero()
        checked += 1
    assert checked == 10


def test_equivalence_frozen():
    """The pair generated by e1 carries T + t delta_T(e1) = T + t T to
    the constant family T, and the infinitesimals differ by exactly
    delta_T(e1)."""
    g, rep, t = aff1_data()
    d1 = TruncatedDeformation.of(t, [t])
    d2 = TruncatedDeformation.of(t)
    report = equivalence_check(g, rep, d1, d2, basis_vector(2, 0))
    assert report.ok
    assert report.infinitesimal_relation
    swapped = equivalence_check(g, rep, d2, d1, basis_vector(2, 0))
    assert not swapped.infinitesimal_relation


def test_infinitesimal_relation_is_degree_one_intertwining():
    """Once the degree-1 twist conditions hold, d1_1 - d2_1 = delta_T(x)
    exactly when the degree-1 operator_intertwine condition holds.  So
    the relation's failures never change ok: it is still the verdict of
    the homomorphism conditions alone, whose failures come first."""
    rng = random.Random(29)
    heis = FIXTURES["heisenberg3"]
    cases = [aff1_data(), twisted_data(),
             (heis, adjoint_rep(heis, 0), matrix([[0, 0, 0], [0, 0, 0],
                                                  [0, 0, 1]]))]
    cases += [(g, rep, Matrix.zero(g.dim, rep.dim))
              for g in (FIXTURES["sl2"], FIXTURES["heisenberg3_twisted"])
              for rep in (adjoint_rep(g, 0), coadjoint_rep(g))]
    relations = set()
    for g, rep, t in cases:
        fixed = [x for x in itertools.product((-1, 0, 1), repeat=g.dim)
                 if g.alpha.apply(x) == x]
        for _ in range(6):
            x = rng.choice(fixed)
            delta_x = zero_coboundary(rho_t(g, rep, t), x).as_matrix()
            k2 = rand_matrix(rng, g.dim, rep.dim)
            noise = rng.choice((Matrix.zero(g.dim, rep.dim),
                                rand_matrix(rng, g.dim, rep.dim)))
            d1 = TruncatedDeformation.of(t, [k2 + delta_x + noise])
            d2 = TruncatedDeformation.of(t, [k2])
            report = equivalence_check(g, rep, d1, d2, x)
            rows = {(c, k): holds for c, k, holds in report.conditions()}
            assert rows[("twist_commute", 1)]
            assert report.infinitesimal_relation == \
                rows[("operator_intertwine", 1)] == noise.is_zero()
            ad_x = Matrix.from_columns([g.bracket(x, basis_vector(g.dim, j))
                                        for j in range(g.dim)], nrows=g.dim)
            oracle = oracle_hom_conditions(
                g, rep, d1.coefficients(), d2.coefficients(),
                [Matrix.identity(g.dim), g.alpha.inverse() @ ad_x],
                [Matrix.identity(rep.dim),
                 rep.beta.inverse() @ rep.rho_of(x)], report.up_to)
            hom = tuple(f for c in oracle for f in c.failures)
            assert report.failures[:len(hom)] == hom
            assert report.ok == all(c.ok for c in oracle)
            relations.add(report.infinitesimal_relation)
    assert relations == {True, False}


def test_equivalence_errors():
    g, rep, t = aff1_data()
    other = TruncatedDeformation.of(Matrix.zero(2, 2))
    with pytest.raises(ValueError):
        equivalence_check(g, rep, TruncatedDeformation.of(t), other,
                          basis_vector(2, 0))
    tg, trep, tt = twisted_data()
    with pytest.raises(ValueError):
        equivalence_check(tg, trep, TruncatedDeformation.of(tt),
                          TruncatedDeformation.of(tt), basis_vector(2, 1))


def test_regularity_and_base_guards():
    g, rep, t = aff1_data()
    with pytest.raises(ValueError):
        linear_deformation_check(g, rep, Matrix.identity(2), t)
    from homlie.structures import HomLieAlgebra, Representation
    singular = HomLieAlgebra.build(dim=2, brackets={},
                                   alpha=Matrix.zero(2, 2))
    rep_singular = Representation.build(
        algebra=singular, beta=Matrix.identity(2),
        rho=(Matrix.zero(2, 2), Matrix.zero(2, 2)))
    with pytest.raises(ValueError):
        formal_deformation_check(
            singular, rep_singular,
            TruncatedDeformation.of(Matrix.zero(2, 2)))


# -------------------------------------------- extension system vs oracle

EXTENSION_CASES = {
    "aff1": ("aff1", matrix([[0, 1], [0, 0]])),
    "aff1_twisted": ("aff1_twisted", matrix([[1, 0], [0, 0]])),
    "heisenberg3": ("heisenberg3",
                    matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])),
}
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@functools.cache
def _extension_case(name):
    """(g, rep, T, basis of the 1-cocycles) for a criterion-09 fixture."""
    algebra, t = EXTENSION_CASES[name]
    g = FIXTURES[algebra]
    rep = adjoint_rep(g, 0)
    return g, rep, t, _cocycles(g, rep, t)


def _cocycles(g, rep, t):
    """A basis of the twist-compatible 1-cocycles of the complex of T."""
    rep_t = rho_t(g, rep, t)
    basis = compatible_maps_basis(rep_t.algebra.alpha, rep_t.beta, 1)
    flats = [dense_flat(coboundary(rep_t, b)) for b in basis]
    cocycles = []
    for kvec in kernel_basis(Matrix.from_columns(flats)):
        z = Cochain.zero(1, rep.dim, g.dim)
        for c, b in zip(kvec, basis):
            z = z + b.scale(c)
        cocycles.append(z.as_matrix())
    return cocycles


def _random_cocycle(data, shape, cocycles):
    coeffs = data.draw(st.lists(coefficients, min_size=len(cocycles),
                                max_size=len(cocycles)))
    total = Matrix.zero(*shape)
    for c, z in zip(coeffs, cocycles):
        total = total + z.scale(c)
    return total


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(EXTENSION_CASES)), data=st.data())
def test_extend_order_matches_derived_bracket_oracle(name, data):
    """The system -delta_1 on the compatible basis gives the solution,
    image dimension and obstruction verdict of the derived-bracket
    system, at order 1 and, after adding a random cocycle to the found
    term, at order 2."""
    g, rep, t, cocycles = _extension_case(name)
    d = TruncatedDeformation.of(t, [_random_cocycle(data, t.shape, cocycles)])
    for _ in range(2):
        res = extend_order(g, rep, d)
        assert (res.solution, res.dim_image, res.obstructed) == \
            oracle_extend_order(g, rep, d)
        assert res.theta == oracle_obstruction(g, rep, d)
        if res.obstructed:
            break
        d = TruncatedDeformation.of(t, [
            *d.terms,
            res.solution + _random_cocycle(data, t.shape, cocycles)])


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(EXTENSION_CASES)), data=st.data())
def test_extension_steps_equal_single_steps_and_oracle(name, data):
    """The loop that keeps its complex and system across orders gives,
    step by step, what extend_order gives from scratch and what the
    derived-bracket oracle gives, up to order 4 or the obstruction."""
    g, rep, t, cocycles = _extension_case(name)
    d = TruncatedDeformation.of(t, [_random_cocycle(data, t.shape, cocycles)])
    steps = list(extension_steps(g, rep, d, 4))
    assert len(steps) == 3 or steps[-1].obstructed
    for step in steps:
        assert step == extend_order(g, rep, d)
        assert step.theta == oracle_obstruction(g, rep, d)
        assert (step.solution, step.dim_image, step.obstructed) == \
            oracle_extend_order(g, rep, d)
        d = step.extended


THETA_REPS = {
    "adjoint-1": functools.partial(adjoint_rep, s=-1),
    "adjoint0": functools.partial(adjoint_rep, s=0),
    "adjoint1": functools.partial(adjoint_rep, s=1),
    "coadjoint": coadjoint_rep,
}


@functools.cache
def _theta_case(algebra, kind):
    """(g, rep, [(T, 1-cocycles of T)]) for the O-operators T among the
    twist-compatible basis maps V -> g and their pairwise sums."""
    g = FIXTURES[algebra]
    rep = THETA_REPS[kind](g)
    basis = [b.as_matrix() for b in compatible_maps_basis(rep.beta, g.alpha, 1)]
    candidates = basis + [x + y for x, y in itertools.combinations(basis, 2)]
    operators = [t for t in candidates if is_o_operator(g, rep, t).ok]
    return g, rep, [(t, _cocycles(g, rep, t)) for t in operators[:4]]


@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", sorted(THETA_REPS))
@pytest.mark.parametrize("algebra", sorted(FIXTURES))
def test_obstruction_is_the_derived_bracket_sum(algebra, kind, data):
    """Theta = -1/2 sum over all i + j = order + 1, i, j >= 1 of the
    derived brackets {{T_i, T_j}}, on deformations of orders 1 to 3 that
    start from an O-operator and add a random 1-cocycle at every order."""
    g, rep, operators = _theta_case(algebra, kind)
    assert operators
    t, cocycles = data.draw(st.sampled_from(operators))
    d = TruncatedDeformation.of(t, [_random_cocycle(data, t.shape, cocycles)])
    while True:
        k = d.order + 1
        total = Cochain.zero(2, rep.dim, g.dim)
        for i in range(1, k):
            total = total + derived_bracket(
                rep, Cochain.from_linear_map(d.coefficient(i)),
                Cochain.from_linear_map(d.coefficient(k - i)))
        assert obstruction(g, rep, d) == total.scale(Q(-1, 2))
        if d.order == 3:
            break
        step = extend_order(g, rep, d)
        if step.obstructed:
            break
        d = TruncatedDeformation.of(t, [
            *d.terms, step.solution + _random_cocycle(data, t.shape, cocycles)])


def test_only_check_o_operator_calls_the_derived_bracket(monkeypatch,
                                                         capsys):
    """deform-extend and obstruction read Theta off the deformed
    identity, so they build no theta and take no derived bracket;
    check-o-operator still does, for its Maurer-Cartan route."""
    brackets = count_calls(monkeypatch, derived_bracket)
    thetas = count_calls(monkeypatch, build_theta)
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    for argv in (["deform-extend", "sl2.adjoint.rep.json", "sl2.start.json",
                  "--max-order", "4"],
                 ["deform-extend", "heisenberg3.adjoint.rep.json",
                  "heisenberg3.start.json", "--max-order", "5"],
                 ["obstruction", "sl2.adjoint.rep.json", "sl2.start.json"],
                 ["obstruction", "aff1.adjoint.rep.json",
                  "aff1-obstructed.start.json"]):
        code = cli_main([argv[0], *(os.path.join(inputs, a) if a.endswith(
            ".json") else a for a in argv[1:]), "--json"])
        assert code == 0, argv
        capsys.readouterr()
        assert (brackets, thetas) == ([], []), argv
    assert cli_main(["check-o-operator",
                     os.path.join(inputs, "aff1.adjoint.rep.json"),
                     os.path.join(inputs, "aff1.T.json"), "--json"]) == 0
    assert brackets and thetas


def test_base_ok_is_the_o_operator_check_of_the_base():
    """base_ok reads order 0 off the formal check, and it equals
    is_o_operator on the base: for every deformation of a regular
    structure in the golden corpus (aff1.bad included), and for seeded bases that break only the
    twist (the zero action on a twisted abelian plane makes the identity
    vacuous) or only the identity (aff1 has identity twists), each with
    a random higher term that need not deform it."""
    golden = os.path.join(os.path.dirname(__file__), "golden")
    with open(os.path.join(golden, "cases.json"), encoding="utf-8") as handle:
        cases = json.load(handle).values()
    pairs = []
    for rep_path, d_path in sorted({tuple(argv[1:3]) for argv in cases if argv[0]
                                    in ("deform-check", "deform-extend",
                                        "obstruction")}):
        rep = load_rep(os.path.join(golden, rep_path))
        if rep.is_regular:
            pairs.append((rep, load_deformation(os.path.join(golden, d_path))))
    rng = random.Random(15)
    plane = HomLieAlgebra.build(dim=2, brackets={},
                                alpha=Matrix.diagonal([1, 2]))
    aff1 = FIXTURES["aff1"]
    broken = set()
    for rep, law in ((trivial_rep(plane, 2), "twist_intertwine"),
                     (adjoint_rep(aff1, 0), "o_operator_identity")):
        for _ in range(6):
            base = rand_matrix(rng, 2, 2)
            laws = {f.law for f in is_o_operator(rep.algebra, rep,
                                                 base).failures}
            assert laws <= {law}
            broken |= laws
            pairs.append((rep, TruncatedDeformation.of(
                base, [rand_matrix(rng, 2, 2)])))
    assert broken == {"twist_intertwine", "o_operator_identity"}
    verdicts = set()
    for rep, d in pairs:
        g = rep.algebra
        expected = is_o_operator(g, rep, d.base).ok
        assert formal_deformation_check(g, rep, d).base_ok == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_formal_check_computes_each_inner_action_once(monkeypatch):
    """Order o needs {T_j e_a, e_b} - {T_j e_b, e_a} for j = 0..o only:
    one coefficient_terms call per coefficient, which computes the inner
    actions of every basis pair, where recomputing them for every (i, j)
    with i + j <= o took (o + 1)(o + 2) per pair.  The walk makes no act
    call.  The failures and their order equal the order-by-order
    deformed identity."""
    g = FIXTURES["sl2"]
    rep = adjoint_rep(g, 0)
    rng = random.Random(5)
    terms = [Matrix(tuple(tuple(rand_scalar(rng) for _ in range(3))
                          for _ in range(3))) for _ in range(3)]
    d = TruncatedDeformation.of(Matrix.zero(3, 3), terms)
    expected = []
    coeffs = d.coefficients()
    for k in range(d.order + 1):
        for (a, b) in itertools.combinations(range(3), 2):
            lhs, rhs = oracle_deformed_identity(g, rep, coeffs, k, a, b)
            if lhs != rhs:
                expected.append(((k, a, b), vsub(lhs, rhs)))
    calls = count_calls(monkeypatch, coefficient_terms)
    acts = []
    act = Representation.act

    def counting(self, x, v):
        acts.append(1)
        return act(self, x, v)

    monkeypatch.setattr(Representation, "act", counting)
    report = formal_deformation_check(g, rep, d)
    assert [id(args[1]) for args in calls] == [id(t) for t in coeffs]
    assert acts == []
    assert expected
    assert [(f.indices, f.lhs) for f in report.failures
            if f.law == "deformation_equation"] == expected
