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

import homlie.deformation as deformation_module
from homlie.cli import main as cli_main
from homlie.cochain import (
    Cochain,
    coboundary,
    compatible_maps_basis,
    compatible_subspace_basis,
)
from homlie.deformation import (
    TruncatedDeformation,
    equivalence_check,
    extend_order,
    formal_deformation_check,
    infinitesimal_check,
    linear_deformation_check,
    nijenhuis_element_check,
    obstruction,
    trivial_deformation_from_nijenhuis,
)
from homlie.graded import derived_bracket
from homlie.linalg import Matrix, basis_vector, matrix
from homlie.ooperator import is_o_operator, operator_complex
from homlie.structures import adjoint_rep, catalog

from helpers import oracle_extend_order, rand_scalar

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
    result = trivial_deformation_from_nijenhuis(g, rep, t, basis_vector(2, 0))
    assert result.generator == t
    assert result.element_report.ok
    assert result.linear_report.valid
    assert result.certificate_holds
    assert result.ok
    conditions = {c.condition for c in result.certificate}
    assert conditions == {"operator_intertwine", "bracket_homomorphism",
                          "action_equivariance", "twist_commute"}
    degrees = [c.degree for c in result.certificate]
    assert set(degrees) == {0, 1, 2}


def test_trivial_deformation_failing_element():
    """e2 is not a Nijenhuis element; its coboundary [[-1,0],[0,1]] is a
    cocycle but not quadratic, so the result reports failure."""
    g, rep, t = aff1_data()
    result = trivial_deformation_from_nijenhuis(g, rep, t, basis_vector(2, 1))
    assert result.generator == matrix([[-1, 0], [0, 1]])
    assert not result.element_report.ok
    assert result.linear_report.cocycle
    assert not result.linear_report.generator_quadratic
    assert not result.ok


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
    desc = operator_complex(g, rep, t)
    t_cochain = Cochain.from_linear_map(t)
    candidates = compatible_maps_basis(rep.beta, g.alpha, 1)
    flats = [derived_bracket(rep, t_cochain, b).to_flat() for b in candidates]
    system = Matrix.from_columns(flats, nrows=len(flats[0]))
    kernel = system.kernel_basis()
    assert kernel
    rng = random.Random(71)
    checked = 0
    for _ in range(10):
        coords = [rand_scalar(rng) for _ in kernel]
        flat = [sum(c * v[i] for c, v in zip(coords, kernel))
                for i in range(len(kernel[0]))]
        k = Cochain.from_flat(1, rep.dim, g.dim, flat).as_matrix()
        d = TruncatedDeformation.of(t, [k])
        assert formal_deformation_check(g, rep, d).ok
        theta = obstruction(g, rep, d)
        assert coboundary(desc, theta).is_zero()
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
    desc = operator_complex(g, rep, t)
    basis = compatible_subspace_basis(desc, 1)
    flats = [coboundary(desc, b).to_flat() for b in basis]
    cocycles = []
    for kvec in Matrix.from_columns(flats).kernel_basis():
        z = Cochain.zero(1, rep.dim, g.dim)
        for c, b in zip(kvec, basis):
            z = z + b.scale(c)
        cocycles.append(z.as_matrix())
    return g, rep, t, cocycles


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
        if res.obstructed:
            break
        d = TruncatedDeformation.of(t, [
            *d.terms,
            res.solution + _random_cocycle(data, t.shape, cocycles)])


def test_deform_extend_calls_derived_bracket_only_for_theta(monkeypatch,
                                                            capsys):
    """Going from order m to M costs sum_{o=m}^{M-1} o derived brackets,
    the terms of each Theta, and none for building the systems."""
    calls = []

    def counting(*args):
        calls.append(1)
        return derived_bracket(*args)

    monkeypatch.setattr(deformation_module, "derived_bracket", counting)
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    for rep_file, start, top in (
            ("sl2.adjoint.rep.json", "sl2.start.json", 4),
            ("heisenberg3.adjoint.rep.json", "heisenberg3.start.json", 5)):
        calls.clear()
        code = cli_main(["deform-extend", os.path.join(inputs, rep_file),
                         os.path.join(inputs, start),
                         "--max-order", str(top), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["data"][
            "reached_order"] == top
        assert len(calls) == sum(range(1, top))
