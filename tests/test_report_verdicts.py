"""Every report verdict is read off the report's failure list.

VERDICT_LAWS maps each report class and verdict property to the laws
whose failures make the property false; an empty tuple means any
failure at all.  The corpus runs every verifier on seeded random data
over the catalog fixtures and on the failing golden inputs.  Each
property must equal "no failure with one of its laws", ok must equal
"no failure at all", and every named law must fail somewhere in the
corpus as the only named law of its report that fails, so a misspelt or
swapped law name cannot pass unnoticed.

Every class of the package with a failures field is a
reporting.Report, and the Maurer-Cartan route's failures are the
nonzero values of {{T, T}} itself.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import os
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import homlie
from homlie.cochain import Cochain
from homlie.deformation import (
    EquivalenceReport,
    FormalDeformationReport,
    LinearDeformationReport,
    NijenhuisElementReport,
    TrivialDeformationResult,
    TruncatedDeformation,
    equivalence_check,
    formal_deformation_check,
    linear_deformation_check,
    nijenhuis_element_check,
    trivial_deformation_from_nijenhuis,
)
from homlie.graded import (
    MaurerCartanReport,
    check_maurer_cartan,
    derived_bracket,
)
from homlie.io import (
    load_algebra,
    load_deformation,
    load_operator,
    load_rep,
    load_rmatrix,
    load_vector,
)
from homlie.linalg import Matrix, basis_vector, matrix
from homlie.ooperator import (
    GraphReport,
    HomPreLie,
    HomPreLieReport,
    MaurerCartanOperatorReport,
    NijenhuisReport,
    OOperatorReport,
    OperatorHomReport,
    RotaBaxterReport,
    build_nt,
    graph_check,
    induced_hom_pre_lie,
    is_o_operator,
    is_rota_baxter,
    nijenhuis_operator_check,
    o_operator_hom_check,
    o_operator_maurer_cartan_check,
    verify_hom_pre_lie,
)
from homlie.reporting import Failure, Report
from homlie.rmatrix import (
    RMatrixReport,
    TransferReport,
    WeakHomReport,
    invariant_two_tensor_basis,
    is_r_matrix,
    rmatrix_deformation_transfer,
    skew_matrix,
    weak_homomorphism_check,
    wedge_coeffs,
)
from homlie.structures import (
    HomLieAlgebra,
    HomLieReport,
    Representation,
    RepresentationReport,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    pair_list,
    semidirect_product,
    verify_hom_lie,
    verify_representation,
)

from helpers import (
    oracle_deformed_identity,
    oracle_graded_bracket_wedge,
    rand_matrix,
    rand_scalar,
    rand_vector,
)
from test_assembly import scalars, twisted_algebras

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "inputs")

VERDICT_LAWS = {
    HomLieReport: {
        "multiplicative": ("multiplicativity",),
        "hom_jacobi": ("hom_jacobi",),
    },
    RepresentationReport: {
        "twist_intertwine": ("twist_intertwine",),
        "module_equation": ("module_equation",),
    },
    OOperatorReport: {
        "intertwines": ("twist_intertwine",),
        "quadratic": ("o_operator_identity",),
    },
    RotaBaxterReport: {
        "commutes_with_twist": ("twist_commute",),
        "identity": ("rota_baxter_identity",),
    },
    GraphReport: {
        "bracket_closed": ("graph_bracket_closed",),
        "twist_closed": ("graph_twist_closed",),
    },
    NijenhuisReport: {
        "commutes_with_twist": ("twist_commute",),
        "identity": ("nijenhuis_identity",),
    },
    MaurerCartanOperatorReport: {
        "twist_compatible": ("twist_intertwine",),
        "derived_square_zero": ("derived_square",),
    },
    MaurerCartanReport: {
        "twist_compatible": ("theta_twist",),
        "square_zero": ("theta_square",),
    },
    HomPreLieReport: {
        "twist_multiplicative": ("twist_multiplicative",),
        "left_symmetry": ("left_symmetry",),
    },
    OperatorHomReport: {
        "algebra_morphism": ("twist_commute_algebra",
                             "bracket_homomorphism"),
        "operator_intertwine": ("operator_intertwine",),
        "module_twist": ("twist_commute_module",),
        "action_equivariant": ("action_equivariance",),
    },
    LinearDeformationReport: {
        "cocycle": ("deformation_cocycle",),
        "generator_twist_compatible": ("generator_twist",),
        "generator_quadratic": ("generator_o_operator",),
        "generator_is_o_operator": ("generator_twist",
                                    "generator_o_operator"),
        "valid": (),
    },
    NijenhuisElementReport: {
        "fixed_by_twist": ("fixed_point",),
        "bracket_square": ("bracket_square",),
        "action_square": ("action_square",),
        "generator_bracket": ("generator_bracket",),
    },
    FormalDeformationReport: {"twist_compatible": ("twist_intertwine",)},
    TrivialDeformationResult: {},
    # The relation fails only alongside a homomorphism condition, so the
    # inherited verdicts are pinned on OperatorHomReport alone.
    EquivalenceReport: {"infinitesimal_relation": ("infinitesimal_relation",)},
    RMatrixReport: {
        "wedge_square_zero": ("wedge_square",),
        "verdict": ("wedge_square",),
    },
    WeakHomReport: {
        "phi_bracket_homomorphism": ("phi_bracket",),
        "phi_twist_commute": ("phi_twist_commute",),
        "psi_twist_commute": ("psi_twist_commute",),
        "tensor_condition": ("tensor_condition",),
        "bracket_condition": ("intertwine_bracket",),
    },
    # The routes agree, so a wedge_order failure never comes alone and
    # operator_valid is pinned against the oracle in test_rmatrix.
    TransferReport: {"wedge_valid": ("wedge_order",)},
}


def _golden(name: str) -> str:
    return os.path.join(GOLDEN, name)


def _operator_reports(g, rep, t) -> list:
    semi = semidirect_product(rep)
    return [is_o_operator(g, rep, t), graph_check(g, rep, t),
            nijenhuis_operator_check(semi, build_nt(t)),
            o_operator_maurer_cartan_check(g, rep, t)]


def _algebras() -> list:
    """The catalog plus an abelian algebra with a non-identity twist, on
    which every bracket and action vanishes, so twist laws fail alone."""
    return [*catalog().values(),
            HomLieAlgebra.build(dim=2, brackets={},
                                alpha=Matrix.diagonal([1, 2]))]


def _pick(rng, kind: str, nrows: int, ncols: int) -> Matrix:
    if kind == "zero":
        return Matrix.zero(nrows, ncols)
    if kind == "identity":
        return Matrix.identity(nrows)
    return rand_matrix(rng, nrows, ncols)


KINDS = ("zero", "identity", "random")


def _random_algebra(rng, dim, alpha) -> HomLieAlgebra:
    return HomLieAlgebra.build(
        dim=dim, brackets={p: rand_vector(rng, dim) for p in pair_list(dim)},
        alpha=alpha)


def _random_rep(rng, g, beta, acting) -> Representation:
    """beta on V = Q^2; the first `acting` basis vectors act by random
    matrices, the others by zero."""
    return Representation.build(g, beta, [
        rand_matrix(rng, 2, 2) if i < acting else Matrix.zero(2, 2)
        for i in range(g.dim)])


def _random_pre_lie(rng, dim, twist) -> HomPreLie:
    table = tuple(tuple(rand_vector(rng, dim) for _ in range(dim))
                  for _ in range(dim))
    return HomPreLie(dim=dim, basis=tuple(f"v{i}" for i in range(dim)),
                     twist=twist, table=table)


def _random_invariant(rng, g):
    total = Matrix.zero(g.dim, g.dim)
    for r in invariant_two_tensor_basis(g):
        total = total + r.scale(rand_scalar(rng))
    return total


def _structure_reports(rng) -> list:
    reports = []
    for twist in (Matrix.diagonal([2]), Matrix.identity(2),
                  rand_matrix(rng, 2, 2)):
        reports.append(verify_hom_pre_lie(
            _random_pre_lie(rng, twist.nrows, twist)))
    for g in _algebras():
        n = g.dim
        reports.append(verify_hom_lie(g))
        for kind in ("identity", "random"):
            reports.append(verify_hom_lie(
                _random_algebra(rng, n, _pick(rng, kind, n, n))))
            beta = _pick(rng, kind, 2, 2)
            for acting in (1, n):
                rep = _random_rep(rng, g, beta, acting)
                reports += [verify_representation(rep),
                            check_maurer_cartan(rep)]
        for kind in ("zero", "random"):
            reports.append(is_rota_baxter(g, _pick(rng, kind, n, n),
                                          s=rng.choice((0, 1)),
                                          weight=rand_scalar(rng)))
            reports.append(nijenhuis_operator_check(g, _pick(rng, kind, n, n)))
    return reports


def _operator_route_reports(rng) -> list:
    reports = []
    for g in _algebras():
        n = g.dim
        for rep in (adjoint_rep(g), coadjoint_rep(g)):
            m = rep.dim
            reports.append(verify_representation(rep))
            zero = Matrix.zero(n, m)
            reports += _operator_reports(g, rep, zero)
            reports += _operator_reports(g, rep, rand_matrix(rng, n, m))
            reports.append(verify_hom_pre_lie(
                induced_hom_pre_lie(g, rep, zero)))
            for phi_g, phi_v in itertools.product(KINDS, repeat=2):
                for target in ("zero", "random"):
                    reports.append(o_operator_hom_check(
                        g, rep, _pick(rng, phi_g, n, n),
                        _pick(rng, phi_v, m, m), zero,
                        _pick(rng, target, n, m)))
    return reports


def _rmatrix_reports(rng) -> list:
    algebras = _algebras()
    reports = [is_r_matrix(g, _random_invariant(rng, g)) for g in algebras]
    for g in (algebras[3], algebras[-1]):
        r = _random_invariant(rng, g)
        zero = Matrix.zero(g.dim, g.dim)
        pairs = ((zero, zero), (r, r), (r, _random_invariant(rng, g)),
                 (r, zero), (zero, r))
        for phi, psi in itertools.product(KINDS, repeat=2):
            for r1, r2 in pairs:
                reports.append(weak_homomorphism_check(
                    g, _pick(rng, phi, g.dim, g.dim),
                    _pick(rng, psi, g.dim, g.dim), r1, r2))
    return reports


def _deformation_reports(rng) -> list:
    algebras = _algebras()
    bases = [
        (algebras[1], matrix([[0, 1], [0, 0]])),
        (algebras[2], matrix([[1, 0], [0, 0]])),
        (algebras[3], load_operator(_golden("sl2.T.json"))),
        (algebras[4], load_operator(_golden("heisenberg3.T.json"))),
        (algebras[-1], Matrix.zero(2, 2)),
    ]
    reports = []
    for g, t in bases:
        rep = adjoint_rep(g)
        n = g.dim
        if n == 2:
            generators = [matrix([entries[:2], entries[2:]]) for entries
                          in itertools.product((-1, 0, 1), repeat=4)]
        else:
            generators = [t, rand_matrix(rng, n, n)]
        for k in generators:
            reports.append(linear_deformation_check(g, rep, t, k))
        for terms in ((), (rand_matrix(rng, n, n), rand_matrix(rng, n, n))):
            reports.append(formal_deformation_check(
                g, rep, TruncatedDeformation.of(t, terms)))
        identity = Matrix.identity(2)
        for module, base in ((rep, t),
                             (_random_rep(rng, g, identity, 0), Matrix.zero(n, 2)),
                             (_random_rep(rng, g, identity, n), Matrix.zero(n, 2))):
            for x in ((0,) * n, rand_vector(rng, n)):
                reports.append(nijenhuis_element_check(g, module, base, x))
        for x in ((0,) * n, rand_vector(rng, n)):
            if g.alpha.apply(x) != x:
                continue
            element = nijenhuis_element_check(g, rep, t, x)
            trivial = trivial_deformation_from_nijenhuis(g, rep, t, x,
                                                         element)
            reports += [element, trivial, trivial.linear_report,
                        trivial.certificate]
    return reports


def _golden_reports() -> list:
    """The verifiers behind the golden cases that fail."""
    sl2 = load_algebra(_golden("sl2.algebra.json"))
    sl2_adjoint = load_rep(_golden("sl2.adjoint.rep.json"))
    sl2_random = load_operator(_golden("sl2.random.json"))
    aff1 = load_rep(_golden("aff1.adjoint.rep.json"))
    aff1_t = load_operator(_golden("aff1.T.json"))
    abelian2 = load_algebra(_golden("abelian2.algebra.json"))
    heis = load_algebra(_golden("heisenberg3_twisted.algebra.json"))
    reports = [
        verify_hom_lie(load_algebra(_golden("sl2-broken.algebra.json"))),
        verify_representation(load_rep(_golden("sl2-transposed.rep.json"))),
        *_operator_reports(sl2, sl2_adjoint, sl2_random),
        is_rota_baxter(sl2, sl2_random, s=2, weight="1/2"),
        nijenhuis_operator_check(sl2, sl2_random),
        nijenhuis_element_check(aff1.algebra, aff1, aff1_t,
                                load_vector(_golden("vector.e2.json"))),
        formal_deformation_check(aff1.algebra, aff1,
                                 load_deformation(_golden("aff1.bad.json"))),
        is_r_matrix(sl2, load_rmatrix(_golden("sl2.rfull.json"), dim=3)),
        is_r_matrix(heis, load_rmatrix(_golden("heisenberg3_twisted.r.json"))),
        weak_homomorphism_check(
            abelian2, load_operator(_golden("abelian2.2id.json")),
            load_operator(_golden("abelian2.id.json")),
            load_rmatrix(_golden("abelian2.rhalf.json")),
            load_rmatrix(_golden("abelian2.r1.json"))),
        weak_homomorphism_check(
            load_algebra(_golden("aff1.algebra.json")),
            load_operator(_golden("aff1.swap.json")),
            load_operator(_golden("abelian2.id.json")),
            load_rmatrix(_golden("abelian2.r1.json")),
            load_rmatrix(_golden("abelian2.r1.json"))),
    ]
    for name in ("aff1.K.json", "aff1.notquad.json"):
        reports.append(linear_deformation_check(
            aff1.algebra, aff1, aff1_t, load_operator(_golden(name))))
    return reports


def _transfer_reports() -> list:
    """The equivalence of T + t T with T on aff1 by e1, both ways, and
    r-matrix transfers that pass (aff1) and fail at order one (sl2)."""
    g, t = catalog()["aff1"], matrix([[0, 1], [0, 0]])
    rep, e1 = adjoint_rep(g, 0), basis_vector(2, 0)
    d1, d2 = TruncatedDeformation.of(t, [t]), TruncatedDeformation.of(t)
    r, sl2 = skew_matrix(2, {(0, 1): 1}), catalog()["sl2"]
    he, hf = (skew_matrix(3, {pair: 1}) for pair in ((0, 1), (0, 2)))
    return [equivalence_check(g, rep, d1, d2, e1),
            equivalence_check(g, rep, d2, d1, e1),
            rmatrix_deformation_transfer(g, r, [r]),
            rmatrix_deformation_transfer(g, r, [r, r]),
            rmatrix_deformation_transfer(sl2, he, [hf]),
            rmatrix_deformation_transfer(sl2, he, [hf, hf])]


@lru_cache(maxsize=None)
def corpus() -> tuple:
    rng = random.Random(8)
    return tuple(_structure_reports(rng) + _operator_route_reports(rng)
                 + _rmatrix_reports(rng) + _deformation_reports(rng)
                 + _golden_reports() + _transfer_reports())


def _no_failure_of(report, laws) -> bool:
    return not any(not laws or f.law in laws for f in report.failures)


@pytest.mark.parametrize("cls", list(VERDICT_LAWS), ids=lambda c: c.__name__)
def test_every_verdict_is_read_off_the_failures(cls):
    reports = [r for r in corpus() if type(r) is cls]
    assert any(r.failures for r in reports), cls.__name__
    assert any(not r.failures for r in reports), cls.__name__
    named = {law for laws in VERDICT_LAWS[cls].values() for law in laws}
    alone = set()
    for report in reports:
        failing = {f.law for f in report.failures} & named
        if len(failing) == 1:
            alone |= failing
        for name, laws in VERDICT_LAWS[cls].items():
            assert getattr(report, name) == _no_failure_of(report, laws), (
                cls.__name__, name, report.failures)
        assert report.ok == (not report.failures)
    assert named <= alone, (cls.__name__, sorted(named - alone))


def _package_classes() -> list:
    """The classes defined in the homlie modules imported so far."""
    modules = [m for m in vars(homlie).values() if inspect.ismodule(m)]
    return [cls for module in modules for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]


def _has_failures_field(cls) -> bool:
    if dataclasses.is_dataclass(cls):
        return any(f.name == "failures" for f in dataclasses.fields(cls))
    return "failures" in inspect.get_annotations(cls)


UNDECORATED = [c for c in _package_classes()
               if issubclass(c, Report) and "__dataclass_fields__" not in vars(c)]


def test_every_class_with_failures_is_a_report():
    """Twelve of them are plain subclasses, with no decorator of their
    own."""
    with_failures = [c for c in _package_classes() if _has_failures_field(c)]
    assert set(VERDICT_LAWS) <= set(with_failures)
    for cls in with_failures:
        assert issubclass(cls, Report), cls.__name__
    assert len(UNDECORATED) == 12


@pytest.mark.parametrize("cls", UNDECORATED, ids=lambda c: c.__name__)
def test_an_undecorated_report_is_frozen(cls):
    report = cls(())
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.failures = (Failure("law", ()),)
    assert report.failures == () and report.ok


@settings(max_examples=60, deadline=None)
@given(twisted_algebras(max_dim=4), st.data())
def test_derived_square_failures_are_the_values_of_the_derived_bracket(
        g, data):
    """The derived_square failures of the Maurer-Cartan route are
    {{T, T}} at each pair where it is nonzero, and the route's verdict
    is is_o_operator's, on the adjoint and (when g is regular) the
    coadjoint representation."""
    reps = [adjoint_rep(g, 0)]
    if g.is_regular:
        reps.append(coadjoint_rep(g))
    rep = data.draw(st.sampled_from(reps))
    t = Matrix(tuple(tuple(data.draw(scalars) for _ in range(rep.dim))
                     for _ in range(g.dim)), ncols=rep.dim)
    report = o_operator_maurer_cartan_check(g, rep, t)
    one = Cochain.from_linear_map(t)
    assert {f.indices: f.lhs for f in report.failures
            if f.law == "derived_square"} == \
        derived_bracket(rep, one, one).values
    assert report.ok == is_o_operator(g, rep, t).ok


def _stored_per_order(g, rep, d) -> tuple:
    """What FormalDeformationReport stored as per_order: whether the
    deformed identity holds on every pair at each order 0..d.order."""
    coeffs = d.coefficients()
    return tuple((k, all(lhs == rhs for lhs, rhs in (
        oracle_deformed_identity(g, rep, coeffs, k, a, b)
        for a, b in pair_list(rep.dim))))
        for k in range(d.order + 1))


def test_derived_data_is_what_the_reports_stored():
    """per_order and first_failing_order, read off the failures, are the
    orders at which the dense identity holds; wedge_square, read off the
    failures, is the sorted nonzero [r, r]_g of the dense bracket."""
    rng = random.Random(29)
    algebras = _algebras()
    for g, t in [(algebras[1], matrix([[0, 1], [0, 0]])),
                 (algebras[3], load_operator(_golden("sl2.T.json"))),
                 (algebras[-1], Matrix.zero(2, 2))]:
        rep, n = adjoint_rep(g), g.dim
        for order in range(1, 4):
            scaled = [t.scale(rand_scalar(rng)) for _ in range(order - 1)]
            for last in (t.scale(rand_scalar(rng)), rand_matrix(rng, n, n)):
                d = TruncatedDeformation.of(t, [*scaled, last])
                report = formal_deformation_check(g, rep, d)
                stored = _stored_per_order(g, rep, d)
                assert report.per_order == stored
                assert report.first_failing_order == next(
                    (k for k, held in stored if not held), None)
    bad = load_deformation(_golden("aff1.bad.json"))
    aff1 = load_rep(_golden("aff1.adjoint.rep.json"))
    assert formal_deformation_check(aff1.algebra, aff1, bad).per_order == \
        _stored_per_order(aff1.algebra, aff1, bad)
    for g in algebras:
        if not g.is_regular:
            continue
        for _ in range(4):
            r = _random_invariant(rng, g)
            d = wedge_coeffs(r)
            assert is_r_matrix(g, r).wedge_square == tuple(sorted(
                oracle_graded_bracket_wedge(g, d, 2, d, 2).items()))
