"""Acceptance gate: eleven end-to-end properties of the kernel.

Each numbered test covers one headline guarantee, so `pytest -v` prints
one pass/fail line per criterion.  Everything is exact rational
arithmetic with zero tolerance; randomized parts use fixed seeds and
state their minimum sample counts.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from homlie.cochain import (
    compatible_maps_basis,
    Cochain,
    coboundary,
    coboundary_matrix,
    cohomology_dims,
    compatible_flats,
    zero_coboundary,
)
from homlie.deformation import (
    TruncatedDeformation,
    equivalence_check,
    extend_order,
    formal_deformation_check,
    nijenhuis_element_check,
    obstruction,
    trivial_deformation_from_nijenhuis,
)
from homlie.graded import (
    check_maurer_cartan,
    derived_bracket,
    nr_bracket,
)
from homlie.linalg import Matrix, Q, basis_vector, densify, matrix
from homlie.ooperator import (
    build_nt,
    graph_check,
    induced_hom_pre_lie,
    is_o_operator,
    is_rota_baxter,
    nijenhuis_operator_check,
    o_operator_maurer_cartan_check,
    rho_t,
    subadjacent,
    verify_hom_pre_lie,
)
from homlie.rmatrix import (
    induced_dual_bracket,
    invariant_wedge_basis,
    is_r_matrix,
    skew_matrix,
)
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    dual_rep,
    semidirect_product,
    verify_hom_lie,
    verify_representation,
)

from helpers import (
    algebra_tables,
    dense_flat,
    derived_bracket_zero,
    kernel_basis,
    oracle_dual_bracket,
    oracle_hom_lie,
    oracle_rota_baxter,
    rand_matrix,
    rand_scalar,
)
from test_assembly import complexes
from test_graded import expanded_derived, rand_compatible

FIXTURES = catalog()


def test_criterion_01_axiom_verifiers_and_pinpointed_mutations():
    """Fixtures verify; every single structure-constant perturbation is
    classified exactly like the independent oracle, with failures
    pinpointing the offending basis tuples.  Exhaustive over all slots
    of every fixture (all of dimension <= 4)."""
    failable = {"aff1_twisted", "sl2", "heisenberg3", "heisenberg3_twisted"}
    for name, g in FIXTURES.items():
        assert g.dim <= 4
        assert verify_hom_lie(g).ok, name
    for name, g in FIXTURES.items():
        table, alpha_rows = algebra_tables(g)
        saw_failure = False
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                for coord in range(g.dim):
                    for delta in (1, -1):
                        mutated = {k: list(v) for k, v in table.items()}
                        row = mutated.setdefault((i, j), [Q(0)] * g.dim)
                        row[coord] += delta
                        mutant = HomLieAlgebra.build(
                            dim=g.dim,
                            brackets={k: tuple(v)
                                      for k, v in mutated.items()},
                            alpha=g.alpha)
                        report = verify_hom_lie(mutant)
                        mult, jac, bad_pairs, bad_triples = oracle_hom_lie(
                            mutated, alpha_rows, g.dim)
                        where = (name, i, j, coord, delta)
                        assert report.ok == (mult and jac), where
                        if report.ok:
                            continue
                        saw_failure = True
                        got_triples = sorted({f.indices
                                              for f in report.failures
                                              if f.law == "hom_jacobi"})
                        got_pairs = sorted({f.indices
                                            for f in report.failures
                                            if f.law == "multiplicativity"})
                        assert got_triples == sorted(bad_triples), where
                        assert got_pairs == sorted(bad_pairs), where
                        assert all(len(t) == 3 for t in got_triples)
        # dimension-2 brackets with an identity twist satisfy every axiom,
        # so those two fixtures cannot be broken by any perturbation
        assert saw_failure == (name in failable), name


def test_criterion_02_semidirect_equivalence():
    """For random (g, beta, rho) with valid g and dims <= 3, the
    representation verdict matches the semidirect-sum verdict on at
    least 100 candidates with zero disagreements."""
    rng = random.Random(20260202)
    agreements = valid_seen = invalid_seen = 0
    names = list(FIXTURES)
    for _ in range(400):
        if agreements >= 130:
            break
        gdim = rng.choice((1, 2, 3))
        vdim = rng.choice((1, 2, 3))
        g = FIXTURES[rng.choice(names)]
        if g.dim != gdim:
            brackets = {}
            for i in range(gdim):
                for j in range(i + 1, gdim):
                    if rng.random() < 0.5:
                        brackets[(i, j)] = tuple(
                            Q(rng.randint(-1, 1)) for _ in range(gdim))
            g = HomLieAlgebra.build(dim=gdim, brackets=brackets)
            if not verify_hom_lie(g).ok:
                continue
        if rng.random() < 0.35:
            rep = adjoint_rep(g, rng.choice((0, 1)))
        else:
            beta = rand_matrix(rng, vdim, vdim, -1, 1)
            rho = tuple(rand_matrix(rng, vdim, vdim, -1, 1)
                        for _ in range(g.dim))
            rep = Representation.build(algebra=g, beta=beta, rho=rho)
        rep_ok = verify_representation(rep).ok
        semi_ok = verify_hom_lie(semidirect_product(rep)).ok
        assert rep_ok == semi_ok
        agreements += 1
        valid_seen += rep_ok
        invalid_seen += not rep_ok
    assert agreements >= 100
    assert valid_seen >= 10 and invalid_seen >= 10


def test_criterion_03_coboundary_squares_to_zero():
    """delta o delta = 0 as an exact matrix identity for every fixture,
    every pinned coefficient family, and every arity n <= dim."""
    for name, g in FIXTURES.items():
        reps = {
            "adjoint0": adjoint_rep(g, 0),
            "adjoint1": adjoint_rep(g, 1),
            "coadjoint": coadjoint_rep(g),
            "dual_adjoint1": dual_rep(adjoint_rep(g, 1)),
            "dual_coadjoint": dual_rep(coadjoint_rep(g)),
        }
        for rep_name, rep in reps.items():
            for w in compatible_flats(g.alpha, rep.beta, 0):
                w = densify(w, rep.dim)
                assert coboundary(rep, zero_coboundary(rep, w)).is_zero(), (
                    name, rep_name)
            for arity in range(1, g.dim + 1):
                m_next = coboundary_matrix(rep, arity + 1)
                m_this = coboundary_matrix(rep, arity)
                assert (m_next @ m_this).is_zero(), (name, rep_name, arity)


def test_criterion_04_whitehead_sl2():
    """The adjoint complex of the simple dimension-3 fixture has exact
    H^1 = H^2 = 0."""
    rep = adjoint_rep(FIXTURES["sl2"], 0)
    assert cohomology_dims(rep, 1).dim_h == 0
    assert cohomology_dims(rep, 2).dim_h == 0


@lru_cache(maxsize=1)
def _o_operator_route_search():
    """Shared search for criterion 5(b) and criterion 7: every candidate
    operator is judged along all four routes."""
    rng = random.Random(20260555)
    small = [Q(v) for v in (-1, 0, 1)]
    results = []
    for name in ("aff1", "aff1_twisted"):
        g = FIXTURES[name]
        rep = adjoint_rep(g, 0)
        semi = semidirect_product(rep)
        candidates = [matrix([[a, b], [c, d]])
                      for a, b, c, d in itertools.product(small, repeat=4)]
        candidates.extend(rand_matrix(rng, 2, 2, -2, 2) for _ in range(260))
        for t in candidates:
            routes = (
                o_operator_maurer_cartan_check(g, rep, t).ok,
                is_o_operator(g, rep, t).ok,
                graph_check(g, rep, t).ok,
                nijenhuis_operator_check(semi, build_nt(t)).ok,
            )
            results.append((name, t, routes))
    return tuple(results)


def test_criterion_05_maurer_cartan_equivalences():
    """(a) the structural Maurer-Cartan check agrees with the axiom
    verifiers on fixtures and on random data; (b) the four operator
    routes (square-zero, direct identity, graph subalgebra, block
    Nijenhuis) agree on >= 500 random rational candidates with zero
    disagreements."""
    for name, g in FIXTURES.items():
        for rep in (adjoint_rep(g, 0), adjoint_rep(g, 1), coadjoint_rep(g)):
            assert check_maurer_cartan(rep).ok, name
    rng = random.Random(20260505)
    for _ in range(80):
        dim = rng.choice((2, 3))
        vdim = rng.choice((1, 2))
        brackets = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.7:
                    brackets[(i, j)] = tuple(
                        Q(rng.randint(-1, 1)) for _ in range(dim))
        g = HomLieAlgebra.build(dim=dim, brackets=brackets,
                                alpha=rand_matrix(rng, dim, dim, -1, 1))
        rep = Representation.build(
            algebra=g,
            beta=rand_matrix(rng, vdim, vdim, -1, 1),
            rho=tuple(rand_matrix(rng, vdim, vdim, -1, 1)
                      for _ in range(dim)))
        expected = verify_hom_lie(g).ok and verify_representation(rep).ok
        assert check_maurer_cartan(rep).ok == expected

    results = _o_operator_route_search()
    assert len(results) >= 500
    for name, t, routes in results:
        assert len(set(routes)) == 1, (name, t.rows, routes)
    certified = {"aff1": 0, "aff1_twisted": 0}
    rejected = 0
    for name, t, routes in results:
        if routes[1]:
            certified[name] += 1
        else:
            rejected += 1
    assert certified["aff1"] >= 5
    assert certified["aff1_twisted"] >= 2
    assert rejected >= 100


SCALARS = st.sampled_from((0, 0, 1, -1, Q(1, 2), Q(-1, 3), Q(2, 5)))


@settings(max_examples=60, deadline=None)
@given(complexes(max_dim=3), st.data())
def test_criterion_05_routes_agree_on_generated_twists(rep, data):
    """The operator routes agree on twisted structures that are not
    diagonal (exp(ad x)) or not regular (projections): candidates are
    combinations of twist-compatible maps V -> g, which include r# of
    every invariant two-tensor on a coadjoint representation, or
    arbitrary matrices.  The Maurer-Cartan route runs when the twists
    are invertible, as in check-o-operator."""
    g = rep.algebra
    if data.draw(st.booleans()):
        t = Matrix.zero(g.dim, rep.dim)
        for b in compatible_maps_basis(rep.beta, g.alpha, 1):
            t = t + b.as_matrix().scale(data.draw(SCALARS))
    else:
        t = Matrix([[data.draw(SCALARS) for _ in range(rep.dim)]
                    for _ in range(g.dim)], ncols=rep.dim)
    routes = [is_o_operator(g, rep, t).ok, graph_check(g, rep, t).ok,
              nijenhuis_operator_check(rep.semidirect, build_nt(t)).ok]
    if rep.is_regular:
        routes.append(o_operator_maurer_cartan_check(g, rep, t).ok)
    assert len(set(routes)) == 1, (t.rows, routes)


def test_criterion_06_derived_bracket_expansion_and_graded_laws():
    """The double-graded-bracket implementation of {{P, Q}} equals the
    independent shuffle expansion at arity pairs (1,1), (1,2), (2,1) on
    fixtures, and both graded brackets satisfy antisymmetry and the
    graded Jacobi/Leibniz law on random compatible cochains."""
    rng = random.Random(20260606)
    nontrivial = 0
    for name, g in FIXTURES.items():
        for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
            for n, m in ((1, 1), (1, 2), (2, 1)):
                p = rand_compatible(rng, rep.beta, g.alpha, n)
                q = rand_compatible(rng, rep.beta, g.alpha, m)
                if p is None or q is None:
                    continue
                br = derived_bracket(rep, p, q)
                for args in itertools.combinations(range(rep.dim), n + m):
                    vecs = [basis_vector(rep.dim, a) for a in args]
                    got = br.evaluate(vecs)
                    assert got == expanded_derived(g, rep, p, q, vecs), (
                        name, n, m, args)
                    if any(c != 0 for c in got):
                        nontrivial += 1
    assert nontrivial >= 5

    for name in ("sl2", "aff1_twisted", "heisenberg3_twisted"):
        g = FIXTURES[name]
        twist = g.alpha
        for a, b, c in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1),
                        (3, 1, 1)):
            phi = rand_compatible(rng, twist, twist, a)
            psi = rand_compatible(rng, twist, twist, b)
            chi = rand_compatible(rng, twist, twist, c)
            if phi is None or psi is None or chi is None:
                continue
            p, q, r = a - 1, b - 1, c - 1
            anti = (nr_bracket(phi, psi, twist)
                    + nr_bracket(psi, phi, twist).scale(Q((-1) ** (p * q))))
            assert anti.is_zero(), (name, a, b)
            lhs = nr_bracket(phi, nr_bracket(psi, chi, twist), twist)
            rhs = (nr_bracket(nr_bracket(phi, psi, twist), chi, twist)
                   + nr_bracket(psi, nr_bracket(phi, chi, twist),
                                twist).scale(Q((-1) ** (p * q))))
            assert (lhs + rhs.scale(Q(-1))).is_zero(), (name, a, b, c)

    for name in ("aff1_twisted", "heisenberg3"):
        g = FIXTURES[name]
        rep = adjoint_rep(g, 0)
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
            p = rand_compatible(rng, rep.beta, g.alpha, a)
            q = rand_compatible(rng, rep.beta, g.alpha, b)
            if p is None or q is None:
                continue
            anti = (derived_bracket(rep, p, q)
                    + derived_bracket(rep, q, p).scale(Q((-1) ** (a * b))))
            assert anti.is_zero(), (name, a, b)
        p = rand_compatible(rng, rep.beta, g.alpha, 1)
        q = rand_compatible(rng, rep.beta, g.alpha, 1)
        r = rand_compatible(rng, rep.beta, g.alpha, 1)
        lhs = derived_bracket(rep, p, derived_bracket(rep, q, r))
        rhs = (derived_bracket(rep, derived_bracket(rep, p, q), r)
               + derived_bracket(rep, q,
                                 derived_bracket(rep, p, r)).scale(Q(-1)))
        assert (lhs + rhs.scale(Q(-1))).is_zero(), name


def test_criterion_07_certified_operators_induce_valid_structures():
    """Every operator certified by the criterion-5 search induces a
    product passing both twisted left-symmetry axioms, a commutator
    algebra passing the algebra verifier, and an action passing the
    representation verifier."""
    results = _o_operator_route_search()
    seen = set()
    count = 0
    for name, t, routes in results:
        if not routes[1]:
            continue
        key = (name, t.rows)
        if key in seen:
            continue
        seen.add(key)
        g = FIXTURES[name]
        rep = adjoint_rep(g, 0)
        pre = induced_hom_pre_lie(g, rep, t)
        assert verify_hom_pre_lie(pre).ok, key
        assert verify_hom_lie(subadjacent(pre)).ok, key
        assert verify_representation(rho_t(g, rep, t)).ok, key
        count += 1
    assert count >= 5


def test_criterion_08_operator_coboundary_is_derived_bracket():
    """The structural differential of the operator complex agrees with
    the derived bracket against the base operator: delta_T(P) =
    -{{T, P}} for every compatible P of arity <= 3, and delta_0(x) =
    {{T, x}} for every fixed point x, checked with one certified
    operator on each (regular) fixture.  On sl2 x| sl2 with T = E_12,
    whose module has dimension 6, random compatible P of arity 1..3
    give nonzero content at every arity.

    With the Leibniz-consistent sign placement of the derived bracket
    the arity-dependent factor relating the two routes is the constant
    -1; the traditional (-1)^n appears only against the other sign
    placement, and the two statements coincide at odd arity.  The sl2
    case has nonzero arity-2 content, which pins the even-arity
    factor."""
    rng = random.Random(20260808)
    cases = {
        "abelian2": ("adjoint", matrix([[1, 2], [3, 4]])),
        "aff1": ("adjoint", matrix([[0, 1], [0, 0]])),
        "aff1_twisted": ("adjoint", matrix([[1, 0], [0, 0]])),
        "sl2": ("coadjoint", skew_matrix(3, {(0, 1): Q(1)})),
        "heisenberg3": ("adjoint",
                        matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])),
        "heisenberg3_twisted": ("adjoint",
                                matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])),
    }
    semi = semidirect_product(adjoint_rep(FIXTURES["sl2"], 0))
    e12 = Matrix(tuple(tuple(int((i, j) == (1, 2)) for j in range(6))
                       for i in range(6)), ncols=6)
    fixtures = dict(FIXTURES, sl2xsl2=semi)
    cases["sl2xsl2"] = ("adjoint", e12)
    nontrivial = 0
    content = set()
    for name, (kind, t) in cases.items():
        g = fixtures[name]
        rep = adjoint_rep(g, 0) if kind == "adjoint" else coadjoint_rep(g)
        assert is_o_operator(g, rep, t).ok, name
        rep_t = rho_t(g, rep, t)
        tc = Cochain.from_linear_map(t)
        for x in compatible_flats(rep_t.algebra.alpha, rep_t.beta, 0):
            x = densify(x, rep_t.dim)
            assert zero_coboundary(rep_t, x) == derived_bracket_zero(
                rep, tc, x), name
        for arity in (1, 2, 3):
            basis = compatible_maps_basis(rep_t.algebra.alpha, rep_t.beta,
                                          arity)
            samples = list(basis) if name in FIXTURES else []
            for _ in range(1 if name in FIXTURES else 2):
                if basis:
                    combo = basis[0].scale(Q(0))
                    for b in basis:
                        combo = combo + b.scale(rand_scalar(rng))
                    samples.append(combo)
            for p in samples:
                lhs = coboundary(rep_t, p)
                rhs = derived_bracket(rep, tc, p).scale(Q(-1))
                assert lhs == rhs, (name, arity)
                if not lhs.is_zero():
                    nontrivial += 1
                    content.add((name, arity))
    assert nontrivial >= 3
    assert {("sl2xsl2", n) for n in (1, 2, 3)} <= content


def test_criterion_09_deformation_suite():
    """(a) obstructions of random valid order <= 2 deformations are
    cocycles; (b) extension succeeds exactly when the obstruction lies
    in the image of delta_T, by rank agreement; (c) vanishing H^2 makes
    every tested deformation extend; (d) the trivial deformations built
    from Nijenhuis elements always pass the linear check and the
    equivalence certificate."""
    rng = random.Random(20260909)
    e33 = matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    cases = [
        ("aff1", adjoint_rep(FIXTURES["aff1"], 0),
         matrix([[0, 1], [0, 0]])),
        ("aff1_twisted", adjoint_rep(FIXTURES["aff1_twisted"], 0),
         matrix([[1, 0], [0, 0]])),
        ("heisenberg3", adjoint_rep(FIXTURES["heisenberg3"], 0), e33),
    ]
    cocycle_checks = 0
    rank_checks = 0
    for name, rep, t in cases:
        g = rep.algebra
        rep_t = rho_t(g, rep, t)
        basis = compatible_maps_basis(rep_t.algebra.alpha, rep_t.beta, 1)
        flats = [dense_flat(coboundary(rep_t, b)) for b in basis]
        flat_len = len(flats[0])
        image = Matrix.from_columns(flats, nrows=flat_len)
        image_rank = image.rank()
        dim_h2 = cohomology_dims(rep_t, 2).dim_h
        kernel = kernel_basis(image) if basis else []

        def check_extension(d):
            nonlocal cocycle_checks, rank_checks
            assert formal_deformation_check(g, rep, d).ok
            theta = obstruction(g, rep, d)
            assert coboundary(rep_t, theta).is_zero(), (name, d.order)
            cocycle_checks += 1
            res = extend_order(g, rep, d)
            member = Matrix.from_columns(
                flats + [dense_flat(theta)], nrows=flat_len).rank() == image_rank
            assert member == res.ok, (name, d.order)
            assert res.dim_image == image_rank
            assert res.dim_h2 == dim_h2
            if dim_h2 == 0:
                assert res.ok, (name, d.order)
            rank_checks += 1
            return res

        for _ in range(10):
            coords = [Q(0)] * len(basis)
            for kvec in kernel:
                c = rand_scalar(rng)
                coords = [x + c * k for x, k in zip(coords, kvec)]
            term = Cochain.zero(1, rep.dim, g.dim)
            for c, b in zip(coords, basis):
                if c != 0:
                    term = term + b.scale(c)
            d1 = TruncatedDeformation.of(t, [term.as_matrix()])
            res = check_extension(d1)
            if res.ok:
                check_extension(res.extended)
        # scaled-copy families stay valid at order two
        d2 = TruncatedDeformation.of(
            t, [t.scale(rand_scalar(rng)), t.scale(rand_scalar(rng))])
        check_extension(d2)
    assert cocycle_checks >= 30 and rank_checks >= 30

    # an obstructed family: zero base with an invertible first term
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    zero = Matrix.zero(2, 2)
    d = TruncatedDeformation.of(zero, [Matrix.identity(2)])
    assert formal_deformation_check(g, rep, d).ok
    res = extend_order(g, rep, d)
    assert res.obstructed
    assert coboundary(rho_t(g, rep, zero), res.theta).is_zero()

    # (d) every Nijenhuis element found on a small grid certifies
    found = nonzero_generators = 0
    small = (Q(-1), Q(0), Q(1))
    for name, rep, t in cases:
        g = rep.algebra
        for entries in itertools.product(small, repeat=g.dim):
            x = tuple(entries)
            if g.alpha.apply(x) != x:
                continue
            element = nijenhuis_element_check(g, rep, t, x)
            if not element.ok:
                continue
            result = trivial_deformation_from_nijenhuis(g, rep, t, x)
            assert result.linear_report.valid, (name, x)
            assert result.certificate_holds, (name, x)
            pair = equivalence_check(
                g, rep, TruncatedDeformation.of(t, [result.generator]),
                TruncatedDeformation.of(t), x)
            assert pair.ok, (name, x)
            found += 1
            if not result.generator.is_zero():
                nonzero_generators += 1
    assert found >= 3
    assert nonzero_generators >= 1


def test_criterion_10_rmatrix_routes_and_dual_bracket():
    """The three skew-solution routes (wedge square, component triple
    sum, operator identity against the coadjoint action) agree on every
    invariant tensor over the grid {-1, 0, 1/2, 1}, and the induced
    dual-space bracket, the commutator of the induced product, equals
    the direct formula by dense coadjoint act, table for table."""
    grid = [Q(-1), Q(0), Q(1, 2), Q(1)]
    total = certified = rejected = 0
    for name in ("aff1", "sl2", "heisenberg3", "heisenberg3_twisted"):
        g = FIXTURES[name]
        basis = invariant_wedge_basis(g, 2)
        assert basis, name
        for coeffs in itertools.product(grid, repeat=len(basis)):
            data = {}
            for c, b in zip(coeffs, basis):
                for key, val in b.items():
                    data[key] = data.get(key, Q(0)) + c * val
            r = skew_matrix(g.dim, data)
            report = is_r_matrix(g, r)
            assert report.routes_agree, (name, coeffs)
            total += 1
            if not report.verdict:
                rejected += 1
                continue
            certified += 1
            via = induced_dual_bracket(g, r)
            direct = oracle_dual_bracket(g, r)
            assert via.brackets_dict() == direct.brackets_dict(), (name, coeffs)
            assert via.alpha == direct.alpha, (name, coeffs)
    assert total >= 136
    assert certified >= 10 and rejected >= 10


def test_criterion_11_rota_baxter_specialization():
    """The degree-s weight-0 operator identity on g, evaluated by dense
    brackets, agrees with the operator check against the degree-s
    twisted self-action, for s in {0, 1, 2} and random operators on
    every fixture, condition by condition; is_rota_baxter, which goes
    through the operator identity, gives the dense formula's failures."""
    rng = random.Random(20261111)
    checked = hits = 0
    for name, g in FIXTURES.items():
        for s in (0, 1, 2):
            rep = adjoint_rep(g, s)
            candidates = [Matrix.zero(g.dim, g.dim)]
            candidates.extend(rand_matrix(rng, g.dim, g.dim, -2, 2)
                              for _ in range(10))
            for r in candidates:
                rb = oracle_rota_baxter(g, r, s, Q(0))
                oo = is_o_operator(g, rep, r)
                assert rb.ok == oo.ok, (name, s, r.rows)
                assert rb.commutes_with_twist == oo.intertwines, (name, s)
                assert rb.identity == oo.quadratic, (name, s)
                assert is_rota_baxter(g, r, s, Q(0)).failures == \
                    rb.failures, (name, s, r.rows)
                checked += 1
                hits += rb.ok
    assert checked >= 150
    assert hits >= len(FIXTURES) * 3
