"""O-operators, Rota-Baxter operators, and the structures they induce.

A linear map T: V -> g on a representation (V, beta, rho) of (g, alpha)
is an O-operator when it intertwines the twists, T . beta = alpha . T,
and satisfies

    [T(u), T(v)] = T({T(u), v} - {T(v), u}),    {x, v} = rho(x)(v).

Equivalent characterizations implemented here: the graph of T is a
subalgebra of the semidirect product closed under the twist; the block
map N_T = [[0, T], [0, 0]] is a Nijenhuis operator on the semidirect
product; T is a Maurer-Cartan element of the derived bracket, meaning
it is twist-compatible and {{T, T}} = 0.

Every O-operator induces a hom-pre-Lie product u . v = {T(u), v} on V,
whose commutator is the sub-adjacent hom-Lie algebra V^c, and a
representation rho_T of V^c back on g:

    rho_T(v)(x) = [T(v), x] + T({x, v}).

That representation fixes the cochain complex of T, so homlie.cochain
computes the cohomology of T on rho_t(g, rep, T) directly.

A Rota-Baxter operator of weight lambda and degree s on g itself is an
alpha-commuting R with

    [R(x), R(y)] = R([alpha^s R(x), y] + [x, alpha^s R(y)] + lambda [x, y]);

at weight zero these are exactly the O-operators on the alpha^s-twisted
adjoint representation.  So is_rota_baxter checks the O-operator
identity on that representation, plus the weight term, and
rb_induced_bracket is the sub-adjacent algebra of the induced product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cochain import Cochain
from .graded import derived_bracket
from .linalg import (
    UNIT,
    Matrix,
    Vector,
    add_bilinear,
    basis_vector,
    bilinear,
    bilinear_sum,
    column_table,
    is_zero_vector,
    nonzeros,
    scalar,
    sparse_table,
    vadd,
    vsub,
    vzero,
)
from .reporting import Failure, Report, holds, matrix_failures
from .structures import HomLieAlgebra, Representation, adjoint_rep, pair_list


class OOperatorReport(Report):
    intertwines = holds("twist_intertwine")
    quadratic = holds("o_operator_identity")


def coefficient_terms(rep: Representation, t: Matrix) -> tuple:
    """What the deformed identity reads of one coefficient T: its
    column_table, whose [a][0] is the sparse T e_a, and the sparse inner
    action {T e_a, e_b} - {T e_b, e_a} of every pair a < b, in an
    {(a, b): sparse vector} dict in pair_list order."""
    table, rho = column_table(t), rep.structure_constants
    return table, {(a, b): nonzeros(bilinear_sum(
        rep.dim, (table[a][0], ((b, 1),), rho),
        (table[b][0], ((a, -1),), rho))) for (a, b) in pair_list(rep.dim)}


def identity_sides(g: HomLieAlgebra, terms: list, k: int,
                   indices=None) -> list:
    """(lhs, rhs) of the order-k deformed O-operator identity at each
    pair (e_a, e_b), in pair_list order:

        lhs = sum_{i+j=k} [T_i e_a, T_j e_b],
        rhs = sum_{i+j=k} T_i({T_j e_a, e_b} - {T_j e_b, e_a}),

    where terms[i] is coefficient_terms(rep, T_i) and coefficients past
    the end of terms are zero.  Both sides are add_bilinear walks: lhs
    over the nonzero structure constants, rhs over the nonzero
    coordinates z of each inner action, adding z T_i e_r.  indices, when
    given, restricts the sum to those i.  Order 0 on [T] is the
    O-operator identity of T.
    """
    low = max(0, k + 1 - len(terms))
    if indices is None:
        indices = range(low, k + 1 - low)
    bracket, sides = g.structure_constants, []
    for (a, b) in terms[0][1]:
        lhs, rhs = [0] * g.dim, [0] * g.dim
        for i in indices:
            ti, tj = terms[i][0], terms[k - i]
            add_bilinear(lhs, ti[a][0], tj[0][b][0], bracket)
            add_bilinear(rhs, tj[1][(a, b)], UNIT, ti)
        sides.append((tuple(lhs), tuple(rhs)))
    return sides


def is_o_operator(g: HomLieAlgebra, rep: Representation, t: Matrix) -> OOperatorReport:
    """Check both O-operator conditions on all basis vectors and pairs."""
    if t.shape != (g.dim, rep.dim):
        raise ValueError("operator must map the module into the algebra")
    failures = matrix_failures("twist_intertwine", (), t @ rep.beta,
                               g.alpha @ t)
    for pair, (lhs, rhs) in zip(pair_list(rep.dim), identity_sides(
            g, [coefficient_terms(rep, t)], 0)):
        if lhs != rhs:
            failures.append(Failure("o_operator_identity", pair,
                                    vsub(lhs, rhs), vzero(g.dim)))
    return OOperatorReport(tuple(failures))


class RotaBaxterReport(Report):
    commutes_with_twist = holds("twist_commute")
    identity = holds("rota_baxter_identity")


def is_rota_baxter(g: HomLieAlgebra, r: Matrix, s: int = 0,
                   weight=0) -> RotaBaxterReport:
    """Check the degree-s, weight-lambda Rota-Baxter conditions.

    The identity is the O-operator identity of R on the alpha^s-twisted
    adjoint representation, whose right side is
    R([alpha^s R e_i, e_j] + [e_i, alpha^s R e_j]); at a nonzero weight,
    one add_bilinear of lambda [e_i, e_j] through R's column table adds
    the weight term.
    """
    weight = scalar(weight)
    failures = matrix_failures("twist_commute", (),
                               r @ g.alpha, g.alpha @ r)
    terms = coefficient_terms(adjoint_rep(g, s), r)
    for (i, j), (lhs, rhs) in zip(pair_list(g.dim),
                                  identity_sides(g, [terms], 0)):
        if weight:
            rhs = list(rhs)
            add_bilinear(rhs, g.structure_constants[i][j], ((0, weight),),
                         terms[0])
            rhs = tuple(rhs)
        if lhs != rhs:
            failures.append(Failure("rota_baxter_identity", (i, j), lhs, rhs))
    return RotaBaxterReport(tuple(failures))


class GraphReport(Report):
    bracket_closed = holds("graph_bracket_closed")
    twist_closed = holds("graph_twist_closed")


def graph_check(g: HomLieAlgebra, rep: Representation, t: Matrix
                ) -> GraphReport:
    """Whether Gr(T) = {T(v) + v} is a subalgebra of g + V closed under
    the twist alpha + beta."""
    if t.shape != (g.dim, rep.dim):
        raise ValueError("operator must map the module into the algebra")
    semi = rep.semidirect
    n = g.dim
    failures = []
    for (a, b) in pair_list(rep.dim):
        u = t.column(a) + basis_vector(rep.dim, a)
        w = t.column(b) + basis_vector(rep.dim, b)
        value = semi.bracket(u, w)
        g_part, v_part = value[:n], value[n:]
        if g_part != t.apply(v_part):
            failures.append(Failure("graph_bracket_closed", (a, b),
                                    g_part, t.apply(v_part)))
    for a in range(rep.dim):
        lhs = g.alpha.apply(t.column(a))
        rhs = t.apply(rep.beta.column(a))
        if lhs != rhs:
            failures.append(Failure("graph_twist_closed", (a,), lhs, rhs))
    return GraphReport(tuple(failures))


def build_nt(t: Matrix) -> Matrix:
    """The block operator N_T = [[0, T], [0, 0]] on g + V."""
    n, m = t.shape
    rows = [vzero(n) + t.row(i) for i in range(n)]
    rows += [vzero(n + m) for _ in range(m)]
    return Matrix(tuple(rows), ncols=n + m)


class NijenhuisReport(Report):
    commutes_with_twist = holds("twist_commute")
    identity = holds("nijenhuis_identity")


def nijenhuis_operator_check(h: HomLieAlgebra, n: Matrix) -> NijenhuisReport:
    """Whether N commutes with the twist and satisfies

        [N(x), N(y)] = N([N(x), y] - [N(y), x] - N([x, y])).
    """
    failures = matrix_failures("twist_commute", (),
                               n @ h.alpha, h.alpha @ n)
    for (i, j) in pair_list(h.dim):
        ni = n.column(i)
        nj = n.column(j)
        lhs = h.bracket(ni, nj)
        inside = vsub(
            vsub(h.bracket(ni, basis_vector(h.dim, j)),
                 h.bracket(nj, basis_vector(h.dim, i))),
            n.apply(h.bracket_basis(i, j)),
        )
        rhs = n.apply(inside)
        if lhs != rhs:
            failures.append(Failure("nijenhuis_identity", (i, j), lhs, rhs))
    return NijenhuisReport(tuple(failures))


class MaurerCartanOperatorReport(Report):
    twist_compatible = holds("twist_intertwine")
    derived_square_zero = holds("derived_square")


def o_operator_maurer_cartan_check(g: HomLieAlgebra, rep: Representation,
                                   t: Matrix) -> MaurerCartanOperatorReport:
    """T as a Maurer-Cartan element: twist-compatible and {{T, T}} = 0.

    The failures are the columns on which T beta and alpha T differ,
    then the value of {{T, T}} at each pair where it is nonzero."""
    lhs, rhs = t @ rep.beta, g.alpha @ t
    failures = [] if lhs == rhs else matrix_failures(
        "twist_intertwine", (), lhs, rhs)
    one = Cochain.from_linear_map(t)
    square = derived_bracket(rep, one, one)
    failures += [Failure("derived_square", pair, value, vzero(g.dim))
                 for pair, value in sorted(square.values.items())]
    return MaurerCartanOperatorReport(tuple(failures))


def _require_o_operator(g, rep, t, unchecked: bool) -> None:
    if unchecked:
        return
    report = is_o_operator(g, rep, t)
    if not report.ok:
        first = report.failures[0]
        raise ValueError(f"not an O-operator: {first}")


@dataclass(frozen=True)
class HomPreLie:
    """A bilinear product with twist; verify_hom_pre_lie checks the axioms.

    table[i][j] holds e_i . e_j as a coordinate vector (all ordered
    pairs, the product is not antisymmetric).
    """

    dim: int
    basis: tuple
    twist: Matrix
    table: tuple

    @cached_property
    def structure_constants(self) -> tuple:
        """table as a sparse table, built once per object."""
        return sparse_table(self.table)

    def product(self, u: Vector, v: Vector) -> Vector:
        return bilinear(u, v, self.structure_constants, self.dim)


class HomPreLieReport(Report):
    twist_multiplicative = holds("twist_multiplicative")
    left_symmetry = holds("left_symmetry")


def verify_hom_pre_lie(p: HomPreLie) -> HomPreLieReport:
    """Check beta(u . v) = beta(u) . beta(v) and the twisted
    left-symmetry

        (u . v) . beta(w) - beta(u) . (v . w)
            = (v . u) . beta(w) - beta(v) . (u . w).
    """
    failures = []
    for i in range(p.dim):
        for j in range(p.dim):
            lhs = p.twist.apply(p.table[i][j])
            rhs = p.product(p.twist.column(i), p.twist.column(j))
            if lhs != rhs:
                failures.append(Failure("twist_multiplicative", (i, j), lhs, rhs))
    for i in range(p.dim):
        for j in range(i + 1, p.dim):
            for k in range(p.dim):
                bw = p.twist.column(k)
                lhs = vsub(p.product(p.table[i][j], bw),
                           p.product(p.twist.column(i), p.table[j][k]))
                rhs = vsub(p.product(p.table[j][i], bw),
                           p.product(p.twist.column(j), p.table[i][k]))
                if lhs != rhs:
                    failures.append(Failure("left_symmetry", (i, j, k),
                                            lhs, rhs))
    return HomPreLieReport(tuple(failures))


def induced_hom_pre_lie(g: HomLieAlgebra, rep: Representation, t: Matrix,
                        unchecked: bool = False) -> HomPreLie:
    """The product u . v = {T(u), v} on V induced by an O-operator, read
    off the action table and T's column_table by add_bilinear."""
    _require_o_operator(g, rep, t, unchecked)
    columns, rho = column_table(t), rep.structure_constants
    table = tuple(tuple(bilinear_sum(rep.dim, (columns[a][0], ((b, 1),), rho))
                        for b in range(rep.dim)) for a in range(rep.dim))
    return HomPreLie(dim=rep.dim, basis=rep.basis, twist=rep.beta, table=table)


def subadjacent(p: HomPreLie) -> HomLieAlgebra:
    """The commutator algebra [u, v] = u . v - v . u of a hom-pre-Lie."""
    brackets = {}
    for (i, j) in pair_list(p.dim):
        value = vsub(p.table[i][j], p.table[j][i])
        if not is_zero_vector(value):
            brackets[(i, j)] = value
    return HomLieAlgebra.build(dim=p.dim, brackets=brackets,
                               alpha=p.twist, basis=p.basis)


def rho_t(g: HomLieAlgebra, rep: Representation, t: Matrix,
          unchecked: bool = False) -> Representation:
    """The action rho_T(v)(x) = [T(v), x] + T({x, v}) of the sub-adjacent
    algebra of T back on (g, alpha), column x = e_j of rho_T(v_a) read
    off the structure constants and T's column_table by add_bilinear.

    This representation is the cochain complex of T: the cochain
    functions take it as they take any representation, so their
    cochains live on V^c with values in (g, alpha).  unchecked skips the
    O-operator check of T, for a caller that has made it.
    """
    _require_o_operator(g, rep, t, unchecked)
    vc = subadjacent(induced_hom_pre_lie(g, rep, t, unchecked=True))
    table, rho, bracket = column_table(t), rep.structure_constants, \
        g.structure_constants
    columns = [[bilinear_sum(g.dim, (table[a][0], ((j, 1),), bracket),
                             (rho[j][a], UNIT, table))
                for j in range(g.dim)] for a in range(rep.dim)]
    return Representation(algebra=vc, dim=g.dim, basis=g.basis, beta=g.alpha,
                          rho=tuple(Matrix.from_columns(c, nrows=g.dim)
                                    for c in columns))


def _coeff(terms: list, k: int) -> Matrix:
    """terms[k], or zero of the shape of terms[0] past the end."""
    return terms[k] if k < len(terms) else Matrix.zero(*terms[0].shape)


# The homomorphism conditions in certificate order, each with its laws.
HOM_CONDITIONS = (
    ("operator_intertwine", ("operator_intertwine",)),
    ("bracket_homomorphism", ("bracket_homomorphism",)),
    ("action_equivariance", ("action_equivariance",)),
    ("twist_commute", ("twist_commute_algebra", "twist_commute_module")),
)


@dataclass(frozen=True)
class OperatorHomReport(Report):
    """The failures of the homomorphism conditions at degrees 0..up_to,
    condition after condition, each failure's degree first."""

    up_to: int = 0
    algebra_morphism = holds("twist_commute_algebra", "bracket_homomorphism")
    operator_intertwine = holds("operator_intertwine")
    module_twist = holds("twist_commute_module")
    action_equivariant = holds("action_equivariance")

    def conditions(self) -> list:
        """The (condition, degree, holds) rows of the certificate: each
        condition of HOM_CONDITIONS at each degree, in that order."""
        return [(name, k, not any(f.law in laws and f.indices[0] == k
                                  for f in self.failures))
                for name, laws in HOM_CONDITIONS
                for k in range(self.up_to + 1)]


def o_operator_hom_conditions(g: HomLieAlgebra, rep: Representation,
                              from_terms: list, to_terms: list,
                              phi_g_terms: list, phi_v_terms: list,
                              up_to: int) -> OperatorHomReport:
    """Degree-wise conditions for (phi_g_t, phi_v_t) to be an O-operator
    homomorphism from the first polynomial family to the second:

        sum_{i+j=k} phi_g_i . from_j = sum_{i+j=k} to_i . phi_v_j,
        phi_g_k([x, y]) = sum_{i+j=k} [phi_g_i(x), phi_g_j(y)],
        sum_{i+j=k} rho(phi_g_i(x)) . phi_v_j = phi_v_k . rho(x),
        phi_g_k . alpha = alpha . phi_g_k,  phi_v_k . beta = beta . phi_v_k,

    for each degree k = 0, ..., up_to; a failure's indices start with k.
    Coefficients past the end of a list are zero.
    """
    failures = []
    for k in range(up_to + 1):
        lhs = rhs = Matrix.zero(*from_terms[0].shape)
        for i in range(k + 1):
            lhs = lhs + _coeff(phi_g_terms, i) @ _coeff(from_terms, k - i)
            rhs = rhs + _coeff(to_terms, i) @ _coeff(phi_v_terms, k - i)
        failures += matrix_failures("operator_intertwine", (k,), lhs, rhs)
    for k in range(up_to + 1):
        phi_k = _coeff(phi_g_terms, k)
        for (i, j) in pair_list(g.dim):
            lhs = phi_k.apply(g.bracket_basis(i, j))
            rhs = vzero(g.dim)
            for a in range(k + 1):
                rhs = vadd(rhs, g.bracket(
                    _coeff(phi_g_terms, a).column(i),
                    _coeff(phi_g_terms, k - a).column(j)))
            if lhs != rhs:
                failures.append(Failure("bracket_homomorphism", (k, i, j),
                                        lhs, rhs))
    for k in range(up_to + 1):
        phi_v_k = _coeff(phi_v_terms, k)
        for j in range(g.dim):
            lhs = Matrix.zero(rep.dim, rep.dim)
            for a in range(k + 1):
                lhs = lhs + rep.rho_of(_coeff(phi_g_terms, a).column(j)
                                       ) @ _coeff(phi_v_terms, k - a)
            failures += matrix_failures("action_equivariance", (k, j), lhs,
                                        phi_v_k @ rep.rho[j])
    for k in range(up_to + 1):
        phi_k, phi_v_k = _coeff(phi_g_terms, k), _coeff(phi_v_terms, k)
        failures += matrix_failures("twist_commute_algebra", (k,),
                                    phi_k @ g.alpha, g.alpha @ phi_k)
        failures += matrix_failures("twist_commute_module", (k,),
                                    phi_v_k @ rep.beta, rep.beta @ phi_v_k)
    return OperatorHomReport(tuple(failures), up_to)


def o_operator_hom_check(g: HomLieAlgebra, rep: Representation,
                         phi_g: Matrix, phi_v: Matrix,
                         t_from: Matrix, t_to: Matrix) -> OperatorHomReport:
    """Whether (phi_g, phi_v) is a homomorphism of O-operators from
    t_from to t_to on the same representation:

        phi_g . t_from = t_to . phi_v,
        phi_v . beta = beta . phi_v,
        phi_v({x, v}) = {phi_g(x), phi_v(v)},

    with phi_g a hom-Lie endomorphism of g: the degree-0 case of
    o_operator_hom_conditions.
    """
    return o_operator_hom_conditions(g, rep, [t_from], [t_to], [phi_g],
                                     [phi_v], 0)


def rb_induced_bracket(g: HomLieAlgebra, r: Matrix, s: int = 0) -> HomLieAlgebra:
    """The descendent bracket of a degree-s weight-zero Rota-Baxter
    operator,

        [x, y]_R = [alpha^s R(x), y] + [x, alpha^s R(y)],

    on the same space with the same twist: the sub-adjacent algebra of
    the product R(x) . y on the alpha^s-twisted adjoint representation."""
    return subadjacent(induced_hom_pre_lie(g, adjoint_rep(g, s), r,
                                           unchecked=True))
