"""Circle products, NR brackets, Maurer-Cartan, and derived brackets.

The expanded-formula oracle here re-enumerates shuffles with itertools
and evaluates the explicit derived-bracket expansion, independently of
the lift-and-restrict implementation it is compared against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest

from homlie.alternating import increasing_tuples
from homlie.cochain import Cochain, compatible_maps_basis, zero_coboundary
from homlie.graded import (
    build_theta,
    check_maurer_cartan,
    circle_product,
    derived_bracket,
    nr_bracket,
)
from homlie.linalg import Matrix, basis_vector, matrix, vadd, vscale, vzero
from homlie.ooperator import rho_t
from homlie.structures import (
    HomLieAlgebra,
    Representation,
    adjoint_rep,
    catalog,
    coadjoint_rep,
    verify_hom_lie,
    verify_representation,
)

from helpers import (
    cochain_from_dense,
    cochain_from_values,
    derived_bracket_zero,
    oracle_derived_bracket,
    rand_matrix,
    rand_scalar,
    rand_vector,
)

FIXTURES = catalog()


def perm_sign(perm) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def block_shuffles(sizes):
    """All permutations increasing within each consecutive block."""
    total = sum(sizes)
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    for perm in itertools.permutations(range(total)):
        ok = True
        for (a, b) in bounds:
            if any(perm[k] > perm[k + 1] for k in range(a, b - 1)):
                ok = False
                break
        if ok:
            yield perm, perm_sign(perm)


def expanded_derived(g, rep, p, q, vs):
    """The explicit shuffle expansion of {{P, Q}} on module vectors.

    For P of arity n and Q of arity m the expansion is

        (-1)^{nm+1} sum_{Sh(m,1,n-1)} sgn *
            P({Q(..), beta^{m-1} v}, beta^m v, ..)
        - sum_{Sh(n,m)} sgn * [alpha^{m-1} P(..), alpha^{n-1} Q(..)]
        + sum_{Sh(n,1,m-1)} sgn *
            Q({P(..), beta^{n-1} v}, beta^n v, ..)

    The prefactor placement is forced by the graded Leibniz rule: the
    variant that scales the bracket-and-Q group by (-1)^{nm} instead
    agrees at n = m = 1 but breaks the Leibniz identity at (1, 1, 1).
    """
    n, m = p.arity, q.arity
    beta_m1 = rep.beta.power(m - 1)
    beta_m = rep.beta.power(m)
    beta_n1 = rep.beta.power(n - 1)
    beta_n = rep.beta.power(n)
    alpha_m1 = g.alpha.power(m - 1)
    alpha_n1 = g.alpha.power(n - 1)
    total = vzero(g.dim)
    for perm, sign in block_shuffles((m, 1, n - 1)):
        qv = q.evaluate([vs[perm[i]] for i in range(m)])
        first = rep.act(qv, beta_m1.apply(vs[perm[m]]))
        args = [first] + [beta_m.apply(vs[perm[m + 1 + k]])
                          for k in range(n - 1)]
        total = vadd(total, vscale(Q(sign), p.evaluate(args)))
    inner = vzero(g.dim)
    for perm, sign in block_shuffles((n, m)):
        pv = p.evaluate([vs[perm[i]] for i in range(n)])
        qv = q.evaluate([vs[perm[n + i]] for i in range(m)])
        inner = vadd(inner, vscale(Q(sign), g.bracket(
            alpha_m1.apply(pv), alpha_n1.apply(qv))))
    for perm, sign in block_shuffles((n, 1, m - 1)):
        pv = p.evaluate([vs[perm[i]] for i in range(n)])
        first = rep.act(pv, beta_n1.apply(vs[perm[n]]))
        args = [first] + [beta_n.apply(vs[perm[n + 1 + k]])
                          for k in range(m - 1)]
        inner = vadd(inner, vscale(Q(-sign), q.evaluate(args)))
    return vadd(vscale(Q((-1) ** (m * n + 1)), total),
                vscale(Q(-1), inner))


def rand_compatible(rng, sigma, tau, arity):
    basis = compatible_maps_basis(sigma, tau, arity)
    if not basis:
        return None
    out = basis[0].scale(Q(0))
    for b in basis:
        out = out + b.scale(rand_scalar(rng))
    return out


def bracket_cochain(g) -> Cochain:
    entries = {}
    for (i, j), value in g.brackets_dict().items():
        entries[(i, j)] = value
    return cochain_from_values(arity=2, source_dim=g.dim,
                               target_dim=g.dim, entries=entries)


def test_circle_product_mu_mu():
    for name, g in FIXTURES.items():
        mu = bracket_cochain(g)
        square = circle_product(mu, mu, g.alpha)
        assert nr_bracket(mu, mu, g.alpha) == square.scale(Q(-2)), name
        assert square.is_zero() == verify_hom_lie(g).hom_jacobi, name


def test_mu_mu_detects_jacobi_failure():
    bad = HomLieAlgebra.build(
        dim=3,
        brackets={(0, 1): (Q(0), Q(2), Q(0)),
                  (0, 2): (Q(0), Q(0), Q(-2)),
                  (1, 2): (Q(1), Q(1), Q(0))})
    assert not verify_hom_lie(bad).hom_jacobi
    mu = bracket_cochain(bad)
    assert not circle_product(mu, mu, bad.alpha).is_zero()


def test_circle_product_errors():
    g = FIXTURES["aff1"]
    not_endo = Cochain.zero(1, 2, 3)
    with pytest.raises(ValueError):
        circle_product(not_endo, not_endo, g.alpha)
    endo = Cochain.zero(0, 2, 2)
    with pytest.raises(ValueError):
        circle_product(endo, endo, g.alpha)


def test_build_theta_values():
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    theta = build_theta(rep)
    n = g.dim
    assert theta.arity == 2 and theta.source_dim == 2 * n
    # pure algebra pair = bracket, padded
    assert theta.coeff((0, 1)) == tuple(g.bracket_basis(0, 1)) + (Q(0),) * n
    # mixed pair = action value in the module slots
    mixed = theta.coeff((0, n + 1))
    assert mixed[:n] == (Q(0),) * n
    assert mixed[n:] == tuple(rep.act(basis_vector(n, 0),
                                      basis_vector(n, 1)))
    # pure module pairs vanish
    assert theta.coeff((n, n + 1)) == (Q(0),) * (2 * n)


def test_maurer_cartan_iff_axioms_fixtures():
    for name, g in FIXTURES.items():
        rep = adjoint_rep(g, 0)
        report = check_maurer_cartan(rep)
        assert report.ok, name
        assert report.twist_compatible and report.square_zero


def test_maurer_cartan_iff_axioms_random():
    rng = random.Random(404)
    agree = 0
    for _ in range(60):
        dim = rng.choice((2, 3))
        vdim = rng.choice((1, 2))
        brackets = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.7:
                    brackets[(i, j)] = tuple(
                        Q(rng.randint(-1, 1)) for _ in range(dim))
        alpha = rand_matrix(rng, dim, dim, -1, 1)
        g = HomLieAlgebra.build(dim=dim, brackets=brackets, alpha=alpha)
        rep = Representation.build(
            algebra=g,
            beta=rand_matrix(rng, vdim, vdim, -1, 1),
            rho=tuple(rand_matrix(rng, vdim, vdim, -1, 1)
                      for _ in range(dim)))
        expected = (verify_hom_lie(g).ok
                    and verify_representation(rep).ok)
        assert check_maurer_cartan(rep).ok == expected
        agree += 1
    assert agree == 60


def test_nr_bracket_graded_laws():
    """Antisymmetry and the Leibniz rule with degree = arity - 1 on
    twist-compatible endomorphism-valued cochains."""
    rng = random.Random(77)
    for name in ("sl2", "aff1_twisted", "heisenberg3_twisted"):
        g = FIXTURES[name]
        alpha = g.alpha
        for (a, b, c) in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 1),
                          (1, 1, 2), (2, 2, 2), (3, 1, 1)]:
            phi = rand_compatible(rng, alpha, alpha, a)
            psi = rand_compatible(rng, alpha, alpha, b)
            chi = rand_compatible(rng, alpha, alpha, c)
            if phi is None or psi is None or chi is None:
                continue
            p, q = a - 1, b - 1
            anti = nr_bracket(phi, psi, alpha) + nr_bracket(
                psi, phi, alpha).scale(Q((-1) ** (p * q)))
            assert anti.is_zero(), (name, a, b)
            lhs = nr_bracket(phi, nr_bracket(psi, chi, alpha), alpha)
            rhs = nr_bracket(nr_bracket(phi, psi, alpha), chi, alpha) + \
                nr_bracket(psi, nr_bracket(phi, chi, alpha),
                           alpha).scale(Q((-1) ** (p * q)))
            assert (lhs - rhs).is_zero(), (name, a, b, c)


def test_derived_bracket_matches_expansion():
    """The lift-and-restrict {{P, Q}} equals the explicit shuffle
    expansion at arity pairs (1,1), (1,2), (2,1)."""
    rng = random.Random(99)
    for name in ("aff1", "aff1_twisted", "sl2", "heisenberg3",
                 "heisenberg3_twisted"):
        g = FIXTURES[name]
        for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
            for (a, b) in [(1, 1), (1, 2), (2, 1)]:
                p = rand_compatible(rng, rep.beta, g.alpha, a)
                q = rand_compatible(rng, rep.beta, g.alpha, b)
                if p is None or q is None:
                    continue
                result = derived_bracket(rep, p, q)
                assert result.arity == a + b
                for indices in increasing_tuples(rep.dim, a + b):
                    vs = [basis_vector(rep.dim, i) for i in indices]
                    assert result.coeff(indices) == expanded_derived(
                        g, rep, p, q, vs), (name, a, b, indices)


def _rand_cochain(rng, arity, source_dim, target_dim):
    count = len(increasing_tuples(source_dim, arity))
    return cochain_from_dense(arity, source_dim, target_dim,
                              rand_vector(rng, count * target_dim))


def test_derived_bracket_equals_full_oracle_on_catalog():
    """Computing only the kept tuples changes nothing: {{P, Q}} equals
    the two complete NR brackets read back on module tuples, for every
    catalog algebra with its adjoint and coadjoint representations, on
    compatible and on arbitrary cochains."""
    rng = random.Random(2024)
    nonzero = 0
    for name, g in FIXTURES.items():
        for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
            for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
                pairs = [(_rand_cochain(rng, a, rep.dim, g.dim),
                          _rand_cochain(rng, b, rep.dim, g.dim))]
                p = rand_compatible(rng, rep.beta, g.alpha, a)
                q = rand_compatible(rng, rep.beta, g.alpha, b)
                if p is not None and q is not None:
                    pairs.append((p, q))
                for p, q in pairs:
                    result = derived_bracket(rep, p, q)
                    assert result == oracle_derived_bracket(rep, p, q), (
                        name, a, b)
                    nonzero += not result.is_zero()
    assert nonzero >= 40


def test_derived_bracket_is_symmetric_on_maps():
    """{{P, Q}} = {{Q, P}} for maps V -> g, compatible or not, which
    lets the obstruction sum each pair i < j once."""
    rng = random.Random(31)
    nonzero = 0
    for name, g in FIXTURES.items():
        for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
            pairs = [(_rand_cochain(rng, 1, rep.dim, g.dim),
                      _rand_cochain(rng, 1, rep.dim, g.dim))
                     for _ in range(2)]
            p = rand_compatible(rng, rep.beta, g.alpha, 1)
            q = rand_compatible(rng, rep.beta, g.alpha, 1)
            if p is not None and q is not None:
                pairs.append((p, q))
            for p, q in pairs:
                pq = derived_bracket(rep, p, q)
                assert pq == derived_bracket(rep, q, p), name
                nonzero += not pq.is_zero()
    assert nonzero >= 20


def test_derived_bracket_graded_laws():
    """{{P, Q}} = -(-1)^{ab} {{Q, P}} with degree = arity, and the
    graded Leibniz rule at arities (1, 1, 1)."""
    rng = random.Random(123)
    for name in ("sl2", "heisenberg3", "heisenberg3_twisted"):
        g = FIXTURES[name]
        for rep in (adjoint_rep(g, 0), coadjoint_rep(g)):
            for (a, b) in [(1, 1), (1, 2), (2, 1)]:
                p = rand_compatible(rng, rep.beta, g.alpha, a)
                q = rand_compatible(rng, rep.beta, g.alpha, b)
                if p is None or q is None:
                    continue
                anti = derived_bracket(rep, p, q) + derived_bracket(
                    rep, q, p).scale(Q((-1) ** (a * b)))
                assert anti.is_zero(), (name, a, b)
            p, q, r = (rand_compatible(rng, rep.beta, g.alpha, 1)
                       for _ in range(3))
            lhs = derived_bracket(rep, p, derived_bracket(rep, q, r))
            rhs = derived_bracket(rep, derived_bracket(rep, p, q), r) + \
                derived_bracket(rep, q, derived_bracket(rep, p, r)).scale(
                    Q(-1))
            assert (lhs - rhs).is_zero(), name


def test_derived_square_is_quadratic_defect():
    """{{T, T}}(v1, v2) = -2([Tv1, Tv2] - T({Tv1,v2} - {Tv2,v1})) for
    arbitrary linear maps T, twist-compatible or not."""
    rng = random.Random(55)
    for name in ("aff1", "aff1_twisted"):
        g = FIXTURES[name]
        rep = adjoint_rep(g, 0)
        for _ in range(25):
            t = rand_matrix(rng, 2, 2)
            tc = Cochain.from_linear_map(t)
            square = derived_bracket(rep, tc, tc)
            for (i, j) in [(0, 1)]:
                ta = t.column(i)
                tb = t.column(j)
                defect = tuple(
                    x - y for x, y in zip(
                        g.bracket(ta, tb),
                        t.apply(tuple(
                            u - v for u, v in zip(
                                rep.act(ta, basis_vector(2, j)),
                                rep.act(tb, basis_vector(2, i)))))))
                assert square.coeff((i, j)) == vscale(Q(-2), defect)


def test_degree_zero_brackets():
    g = FIXTURES["aff1_twisted"]
    rep = adjoint_rep(g, 0)
    # {{x, y}} = [x, y] for fixed points of alpha
    x = basis_vector(2, 0)
    result = derived_bracket_zero(rep, x, x)
    assert result.arity == 0
    assert result.coeff(()) == g.bracket(x, x)
    # {{T, x}} equals the degree-zero coboundary in the operator complex
    t = matrix([[1, 0], [0, 0]])
    tc = Cochain.from_linear_map(t)
    assert derived_bracket_zero(rep, tc, x) == zero_coboundary(
        rho_t(g, rep, t), x)


def test_degree_zero_requires_fixed_point():
    g = FIXTURES["aff1_twisted"]
    rep = adjoint_rep(g, 0)
    tc = Cochain.from_linear_map(Matrix.identity(2))
    with pytest.raises(ValueError):
        derived_bracket_zero(rep, tc, basis_vector(2, 1))


def test_derived_bracket_rejects_degree_zero_route():
    g = FIXTURES["aff1"]
    rep = adjoint_rep(g, 0)
    zero_arity = Cochain.zero(0, 2, 2)
    one = Cochain.from_linear_map(Matrix.identity(2))
    with pytest.raises(ValueError):
        derived_bracket(rep, one, zero_arity)
