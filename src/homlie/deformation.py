"""Linear and formal deformations of O-operators with obstruction theory.

A deformation of an O-operator T is a polynomial T_t = T + sum t^k T_k
whose coefficients are twist-compatible maps V -> g such that T_t
satisfies the O-operator identity order by order:

    sum over i+j=k of
        [T_i(u), T_j(v)] - T_i({T_j(u), v} - {T_j(v), u}) = 0.

For a linear deformation T + t K this reduces to three conditions: K is
twist-compatible, K is a 1-cocycle of the complex attached to T, and K
is itself an O-operator.  The order-(k+1) equation of a formal
deformation reads {{T, T_{k+1}}} = Theta where

    Theta = -1/2 sum over i+j=k+1, i,j >= 1 of {{T_i, T_j}}

is the obstruction; extending a deformation by one order is solving
that linear equation over the twist-compatible maps.  Theta is the
part of the deformed identity at order k+1 that does not involve
T_{k+1}, so it is computed as that identity's defect with T_{k+1} = 0,
from the same sparse columns and inner actions
{T_j e_a, e_b} - {T_j e_b, e_a} of each coefficient as the order
checks (ooperator.coefficient_terms, walked by ooperator.identity_sides
over the nonzero structure constants).  By the identity
{{T, X}} = -delta_T(X), the equation is delta_1 X = -Theta in the
complex attached to T, that is of its representation rho_T, over its
compatible basis.  Theta and X are Cochains: how the cochain layer
lays out and solves that system is its own affair.  The derived
bracket of homlie.graded is not used here: it stays the independent
Maurer-Cartan route and the tests' oracle for Theta.  extension_steps
is the one extension loop: it checks the input deformation once,
builds rho_T, the solver of delta_1 and dim H^2 once, and then per
order computes Theta, solves, and checks the deformed identity at the
order it has just solved as Theta plus the terms that hold the new
coefficient.

A Nijenhuis element x (fixed by alpha, with vanishing squares
[[x, y], [x, z]], rho([x, y]) rho(x) and [x, T rho(x)(v) + [T(v), x]])
generates the trivial linear deformation with generator

    K = delta_T(x),    K(v) = rho_T(beta^{-1}(v))(x),

certified by the degree-wise O-operator homomorphism conditions of
ooperator.o_operator_hom_conditions for
(id + t ad_x^dag, id + t rho(x)^dag) from T_t to T, where
ad_x^dag(y) = alpha^{-1}([x, y]) and rho(x)^dag(v) = beta^{-1}(rho(x)(v)).

Everything here requires a regular algebra and an invertible module
twist; non-regular input raises ValueError up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .cochain import (
    Cochain,
    coboundary,
    coboundary_solver,
    restricted_rank,
    zero_coboundary,
)
from .linalg import (
    Matrix,
    Vector,
    basis_vector,
    is_zero_vector,
    vadd,
    vsub,
    vzero,
)
from .ooperator import (
    coefficient_terms,
    identity_sides,
    is_o_operator,
    o_operator_hom_conditions,
    rho_t,
)
from .reporting import Failure, Report, holds, matrix_failures
from .structures import HomLieAlgebra, Representation, pair_list


def _require_regular(g: HomLieAlgebra, rep: Representation) -> None:
    if not g.is_regular:
        raise ValueError("deformation theory needs an invertible alpha")
    if not rep.is_regular:
        raise ValueError("deformation theory needs an invertible beta")


def _require_base(g: HomLieAlgebra, rep: Representation, t: Matrix) -> None:
    report = is_o_operator(g, rep, t)
    if not report.ok:
        raise ValueError(f"the base map is not an O-operator: {report.failures[0]}")


@dataclass(frozen=True)
class TruncatedDeformation:
    """A polynomial family T_t = base + sum_{k=1}^{order} t^k terms[k-1]."""

    base: Matrix
    terms: tuple

    def __post_init__(self):
        for m in self.terms:
            if m.shape != self.base.shape:
                raise ValueError("all coefficients must have the base's shape")

    @classmethod
    def of(cls, base: Matrix, terms=()) -> "TruncatedDeformation":
        return cls(base=base, terms=tuple(terms))

    @property
    def order(self) -> int:
        return len(self.terms)

    def coefficient(self, k: int) -> Matrix:
        if k == 0:
            return self.base
        if 1 <= k <= len(self.terms):
            return self.terms[k - 1]
        return Matrix.zero(*self.base.shape)

    def coefficients(self) -> list:
        return [self.base, *self.terms]


class LinearDeformationReport(Report):
    cocycle = holds("deformation_cocycle")
    generator_twist_compatible = holds("generator_twist")
    generator_quadratic = holds("generator_o_operator")
    generator_is_o_operator = holds("generator_twist", "generator_o_operator")
    valid = Report.ok


def linear_deformation_check(g: HomLieAlgebra, rep: Representation,
                             t: Matrix, k: Matrix, unchecked: bool = False
                             ) -> LinearDeformationReport:
    """Whether T + t K is a linear deformation of the O-operator T.

    The three conditions are exactly the order-1 and order-2 equations of
    the deformed identity plus twist compatibility of the generator.
    unchecked skips the check of T, for a caller that has made it.
    """
    _require_regular(g, rep)
    if not unchecked:
        _require_base(g, rep, t)
    if k.shape != t.shape:
        raise ValueError("the generator must have the operator's shape")
    failures = matrix_failures("generator_twist", (), k @ rep.beta,
                               g.alpha @ k)
    for pair, (lhs, rhs) in zip(pair_list(rep.dim), identity_sides(
            g, [coefficient_terms(rep, t), coefficient_terms(rep, k)], 1)):
        if lhs != rhs:
            failures.append(Failure("deformation_cocycle", pair, lhs, rhs))
    for f in is_o_operator(g, rep, k).failures:
        if f.law == "o_operator_identity":
            failures.append(Failure("generator_o_operator", f.indices,
                                    f.lhs, f.rhs))
    return LinearDeformationReport(tuple(failures))


class NijenhuisElementReport(Report):
    fixed_by_twist = holds("fixed_point")
    bracket_square = holds("bracket_square")
    action_square = holds("action_square")
    generator_bracket = holds("generator_bracket")


def nijenhuis_element_check(g: HomLieAlgebra, rep: Representation,
                            t: Matrix, x: Vector) -> NijenhuisElementReport:
    """The four conditions making x generate a trivial deformation of T:

        alpha(x) = x,
        [[x, y], [x, z]] = 0,
        rho([x, y]) rho(x) = 0,
        [x, T rho(x)(v) + [T(v), x]] = 0.
    """
    _require_regular(g, rep)
    _require_base(g, rep, t)
    x = tuple(x)
    failures = []
    if g.alpha.apply(x) != x:
        failures.append(Failure("fixed_point", (), g.alpha.apply(x), x))
    for (j, kk) in pair_list(g.dim):
        value = g.bracket(g.bracket(x, basis_vector(g.dim, j)),
                          g.bracket(x, basis_vector(g.dim, kk)))
        if not is_zero_vector(value):
            failures.append(Failure("bracket_square", (j, kk),
                                    value, vzero(g.dim)))
    rho_x = rep.rho_of(x)
    for j in range(g.dim):
        xy = g.bracket(x, basis_vector(g.dim, j))
        composed = rep.rho_of(xy) @ rho_x
        for a in range(rep.dim):
            column = composed.column(a)
            if not is_zero_vector(column):
                failures.append(Failure("action_square", (j, a),
                                        column, vzero(rep.dim)))
    for a in range(rep.dim):
        ea = basis_vector(rep.dim, a)
        inner = vadd(t.apply(rep.act(x, ea)),
                     g.bracket(t.column(a), x))
        value = g.bracket(x, inner)
        if not is_zero_vector(value):
            failures.append(Failure("generator_bracket", (a,),
                                    value, vzero(g.dim)))
    return NijenhuisElementReport(tuple(failures))


def _dagger_pair(g: HomLieAlgebra, rep: Representation, x: Vector) -> tuple:
    """(ad_x^dag, rho(x)^dag) = (alpha^{-1} ad_x, beta^{-1} rho(x))."""
    ad_x = Matrix.from_columns(
        [g.bracket(x, basis_vector(g.dim, j)) for j in range(g.dim)],
        nrows=g.dim)
    return g.alpha.inverse() @ ad_x, rep.beta.inverse() @ rep.rho_of(x)


@dataclass(frozen=True)
class TrivialDeformationResult:
    generator: Matrix
    element_report: NijenhuisElementReport
    linear_report: LinearDeformationReport
    certificate: tuple

    @property
    def certificate_holds(self) -> bool:
        return all(c.ok for c in self.certificate)

    @property
    def ok(self) -> bool:
        return (self.element_report.ok and self.linear_report.valid
                and self.certificate_holds)


def trivial_deformation_from_nijenhuis(g: HomLieAlgebra, rep: Representation,
                                       t: Matrix, x: Vector,
                                       element: NijenhuisElementReport
                                       | None = None
                                       ) -> TrivialDeformationResult:
    """The linear deformation generated by a Nijenhuis element, together
    with the degree-wise certificate that it is trivial.

    The certificate checks, for degrees 0..2 of the affine pair
    (id + t ad_x^dag, id + t rho(x)^dag), all four homomorphism
    conditions from T + t delta_T(x) to T; every product of two affine
    factors has degree at most 2, so order 2 is exhaustive.  element is
    nijenhuis_element_check(g, rep, t, x), from a caller that has run it;
    that check certifies T, which is then not checked again.
    """
    if element is None:
        element = nijenhuis_element_check(g, rep, t, x)
    x = tuple(x)
    generator = zero_coboundary(rho_t(g, rep, t, unchecked=True),
                                x).as_matrix()
    linear = linear_deformation_check(g, rep, t, generator, unchecked=True)
    ad_dag, rho_dag = _dagger_pair(g, rep, x)
    certificate = o_operator_hom_conditions(
        g, rep,
        from_terms=[t, generator],
        to_terms=[t],
        phi_g_terms=[Matrix.identity(g.dim), ad_dag],
        phi_v_terms=[Matrix.identity(rep.dim), rho_dag],
        up_to=2,
    )
    return TrivialDeformationResult(
        generator=generator,
        element_report=element,
        linear_report=linear,
        certificate=certificate,
    )


@dataclass(frozen=True)
class FormalDeformationReport(Report):
    per_order: tuple
    twist_compatible = holds("twist_intertwine")

    @property
    def first_failing_order(self):
        for k, held in self.per_order:
            if not held:
                return k
        return None

    @property
    def base_ok(self) -> bool:
        """Whether the base is an O-operator: every failure names its
        order first, and order 0 is the base's own twist and identity."""
        return all(f.indices[0] != 0 for f in self.failures)


def _defects(g: HomLieAlgebra, terms: list, k: int, indices=None) -> list:
    """lhs - rhs of the deformed identity at order k on each pair (a, b),
    in pair_list order, from identity_sides over the coefficient indices
    given (all by default); terms[i] is coefficient_terms(rep, T_i)."""
    return [vsub(lhs, rhs)
            for lhs, rhs in identity_sides(g, terms, k, indices)]


def _order_failures(pairs: list, k: int, defects: list) -> list:
    """The failures of the deformed identity at order k, from the defect
    of each pair in pairs."""
    return [Failure("deformation_equation", (k, *pair), defect,
                    vzero(len(defect)))
            for pair, defect in zip(pairs, defects) if any(defect)]


def _next_defect(g: HomLieAlgebra, rep: Representation,
                 terms: list) -> Cochain:
    """Theta of the deformation whose coefficients have the terms given:
    the defect of the deformed identity at order len(terms), whose
    coefficient is zero."""
    return Cochain(2, rep.dim, g.dim, dict(zip(
        pair_list(rep.dim), _defects(g, terms, len(terms)))))


def formal_deformation_check(g: HomLieAlgebra, rep: Representation,
                             d: TruncatedDeformation, _terms: list | None = None
                             ) -> FormalDeformationReport:
    """Check the deformed identity order by order up to d.order and the
    twist compatibility of every coefficient.

    The order-0 equation is the O-operator identity of the base, so a
    passing report certifies the base as well.  The sparse columns and
    inner actions {T_j e_a, e_b} - {T_j e_b, e_a} of each coefficient
    (coefficient_terms) are computed once and serve every order; _terms
    is that list for d.coefficients(), from a caller that keeps it.
    """
    _require_regular(g, rep)
    coeffs = d.coefficients()
    failures = []
    for k, ti in enumerate(coeffs):
        failures += matrix_failures("twist_intertwine", (k,),
                                    ti @ rep.beta, g.alpha @ ti)
    if _terms is None:
        _terms = [coefficient_terms(rep, t) for t in coeffs]
    per_order, pairs = [], pair_list(rep.dim)
    for k in range(d.order + 1):
        found = _order_failures(pairs, k, _defects(g, _terms, k))
        failures.extend(found)
        per_order.append((k, not found))
    return FormalDeformationReport(per_order=tuple(per_order),
                                   failures=tuple(failures))


@dataclass(frozen=True)
class InfinitesimalReport:
    index: int | None
    twist_compatible: bool | None
    is_cocycle: bool | None
    note: str = ""

    @property
    def ok(self) -> bool:
        return bool(self.is_cocycle)


def infinitesimal_check(g: HomLieAlgebra, rep: Representation,
                        d: TruncatedDeformation,
                        _formal: FormalDeformationReport | None = None
                        ) -> InfinitesimalReport:
    """Locate the first nonzero coefficient and test the cocycle condition
    it must satisfy in the complex attached to the base.

    _formal is formal_deformation_check(g, rep, d), from a caller that
    has it: when its base_ok holds, it has already certified regularity
    and the base, so neither is checked again.
    """
    if _formal is None or not _formal.base_ok:
        _require_regular(g, rep)
        _require_base(g, rep, d.base)
    index = None
    for k in range(1, d.order + 1):
        if not d.coefficient(k).is_zero():
            index = k
            break
    if index is None:
        return InfinitesimalReport(index=None, twist_compatible=None,
                                   is_cocycle=None,
                                   note="trivial deformation, no infinitesimal")
    tk = d.coefficient(index)
    compatible = (tk @ rep.beta) == (g.alpha @ tk)
    image = coboundary(rho_t(g, rep, d.base, unchecked=True),
                       Cochain.from_linear_map(tk))
    return InfinitesimalReport(index=index, twist_compatible=compatible,
                               is_cocycle=image.is_zero())


def _require_valid(found: list) -> None:
    if found:
        raise ValueError(f"obstruction needs a valid deformation: {found[0]}")


def _checked_terms(g: HomLieAlgebra, rep: Representation,
                   d: TruncatedDeformation) -> list:
    """The coefficient_terms of each coefficient of d, once d has passed
    the formal check on them."""
    _require_regular(g, rep)
    terms = [coefficient_terms(rep, t) for t in d.coefficients()]
    _require_valid(formal_deformation_check(g, rep, d, _terms=terms).failures)
    return terms


def obstruction(g: HomLieAlgebra, rep: Representation,
                d: TruncatedDeformation) -> Cochain:
    """Theta = -1/2 sum over i+j=order+1, i,j >= 1 of {{T_i, T_j}}.

    The deformation must be valid up to its stated order.  Theta is the
    defect of the deformed identity at order+1 with T_{order+1} = 0,
    read off the coefficient terms of the validity check.
    """
    return _next_defect(g, rep, _checked_terms(g, rep, d))


@dataclass(frozen=True)
class ExtensionResult:
    theta: Cochain
    obstructed: bool
    solution: Matrix | None
    extended: TruncatedDeformation | None
    dim_image: int
    dim_h2: int

    @property
    def ok(self) -> bool:
        return not self.obstructed


def extension_steps(g: HomLieAlgebra, rep: Representation,
                    d: TruncatedDeformation, order: int):
    """Extend d one order at a time up to order, yielding the
    ExtensionResult of each step; an obstructed step is the last.

    d is checked once, and that check certifies its base; rho_T of the
    base (its complex), dim H^2 and the solver of delta_1 on the
    compatible basis, with its rank dim_image, are built once.  Each
    step reads Theta_k off the kept coefficient terms, as obstruction
    does, and solves {{T, X}} = Theta, that is delta_T X = -Theta, with
    cochain.coboundary_solver, whose solution is canonical.  The solved
    order k is then checked against the deformed identity, raising the
    ValueError of obstruction on a failure.  Its defect is Theta_k plus
    the four terms that hold the new T_k, [T_0 e_a, T_k e_b],
    [T_k e_a, T_0 e_b], T_0 of T_k's inner action and T_k of T_0's
    (identity_sides on the indices 0 and k): the same exact sum as the
    full identity, so the check is still a full proof of order k, and
    only the new term's coefficient_terms are computed.  When the system
    is inconsistent the deformation is obstructed and the class of Theta
    in H^2 is the witness.
    """
    terms = _checked_terms(g, rep, d)
    pairs = pair_list(rep.dim)
    complex_t = rho_t(g, rep, d.base, unchecked=True)
    dim_image, solve = coboundary_solver(complex_t, 1)
    count, rank = restricted_rank(complex_t, 2)
    step = partial(ExtensionResult, dim_image=dim_image,
                   dim_h2=count - rank - dim_image)
    while d.order < order:
        target = _next_defect(g, rep, terms)
        solution = solve(-target)
        if solution is None:
            yield step(theta=target, obstructed=True, solution=None,
                       extended=None)
            return
        term = solution.as_matrix()
        d = TruncatedDeformation(base=d.base, terms=d.terms + (term,))
        terms.append(coefficient_terms(rep, term))
        _require_valid(_order_failures(pairs, d.order, [
            vadd(target.coeff(pair), new) for pair, new in
            zip(pairs, _defects(g, terms, d.order, (0, d.order)))]))
        yield step(theta=target, obstructed=False, solution=term,
                   extended=d)


def extend_order(g: HomLieAlgebra, rep: Representation,
                 d: TruncatedDeformation) -> ExtensionResult:
    """Solve {{T, X}} = Theta for the next coefficient, if possible: the
    one step of extension_steps.

    X ranges over the twist-compatible maps V -> g.  Since
    {{T, X}} = -delta_T(X), the system is -delta_1 of the operator
    complex on its compatible basis.
    """
    return next(extension_steps(g, rep, d, d.order + 1))


@dataclass(frozen=True)
class EquivalenceReport:
    conditions: tuple
    infinitesimal_relation: bool

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)


def equivalence_check(g: HomLieAlgebra, rep: Representation,
                      d1: TruncatedDeformation, d2: TruncatedDeformation,
                      x: Vector, phi_g_terms=(), phi_v_terms=(),
                      up_to: int | None = None) -> EquivalenceReport:
    """Whether the formal isomorphism pair built from x (plus optional
    higher-degree witnesses) carries d1 to d2 coefficient-wise.

    The pair starts with id + t ad_x^dag on g and id + t rho(x)^dag on V;
    entries of phi_g_terms and phi_v_terms continue the series from
    degree 2.  Also reports whether the infinitesimals differ by the
    coboundary of x, which equivalent deformations must satisfy.
    """
    _require_regular(g, rep)
    _require_base(g, rep, d1.base)
    if d1.base != d2.base:
        raise ValueError("equivalent deformations must share the base operator")
    x = tuple(x)
    if g.alpha.apply(x) != x:
        raise ValueError("the generating element must be fixed by alpha")
    if up_to is None:
        up_to = max(d1.order, d2.order, 1 + len(phi_g_terms),
                    1 + len(phi_v_terms)) + 1
    ad_dag, rho_dag = _dagger_pair(g, rep, x)
    conditions = o_operator_hom_conditions(
        g, rep,
        from_terms=d1.coefficients(),
        to_terms=d2.coefficients(),
        phi_g_terms=[Matrix.identity(g.dim), ad_dag, *phi_g_terms],
        phi_v_terms=[Matrix.identity(rep.dim), rho_dag, *phi_v_terms],
        up_to=up_to,
    )
    delta_x = zero_coboundary(rho_t(g, rep, d1.base, unchecked=True),
                              x).as_matrix()
    relation = (d1.coefficient(1) - d2.coefficient(1)) == delta_x
    return EquivalenceReport(conditions=conditions,
                             infinitesimal_relation=relation)
