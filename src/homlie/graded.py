"""The graded bracket on alternating maps and its derived bracket.

For alternating maps on a space W with twist sigma, the twisted circle
product of phi (arity a) and psi (arity b) is

    (phi . psi)(x_1, ..., x_{a+b-1})
        = sum over (b, a-1)-shuffles tau of sign(tau) *
          phi(psi(x_{tau(1)}, ..., x_{tau(b)}),
              sigma^{b-1} x_{tau(b+1)}, ..., sigma^{b-1} x_{tau(a+b-1)})

and the graded bracket is [phi, psi] = (-1)^{pq} phi . psi - psi . phi
with p = a - 1, q = b - 1.  An antisymmetric bracket mu makes W a
hom-Lie algebra for the twist sigma exactly when mu is compatible with
sigma and [mu, mu] = 0; a pair (bracket, action) on g + V is encoded by
the arity-2 element theta = mu + rho, and theta is a Maurer-Cartan
element exactly when the bracket satisfies the axioms and the action is
a representation.

The derived bracket on maps P: wedge^n V -> g is

    {{P, Q}} = (-1)^n [[theta, lift(P)], lift(Q)]

restricted back to arguments from V, where lift(P) extends P to g + V
by killing the g-components.  Degree-zero elements x of g (fixed by
alpha) pair with an n-cochain P through

    {{P, x}}(v_1, ..., v_n)
        = sum over (1, n-1)-shuffles tau of sign(tau) *
          P({x, beta^{-1} v_{tau(1)}}, v_{tau(2)}, ..., v_{tau(n)})
        + [alpha^{-1} P(v_1, ..., v_n), alpha^{n-1} x]

and two degree-zero elements through {{x, y}} = [x, y].
"""

from __future__ import annotations

from dataclasses import dataclass

from .alternating import increasing_tuples, shuffles
from .cochain import Cochain, is_twist_compatible
from .linalg import (
    Matrix,
    Vector,
    basis_vector,
    block_diag,
    is_zero_vector,
    vadd,
    vscale,
    vzero,
)
from .structures import Representation, semidirect_product


def circle_product(phi: Cochain, psi: Cochain, twist: Matrix) -> Cochain:
    """The twisted circle product; both factors live on (W, twist)."""
    dim = twist.nrows
    for f in (phi, psi):
        if f.source_dim != dim or f.target_dim != dim:
            raise ValueError("circle product needs endomorphism-valued cochains")
    a, b = phi.arity, psi.arity
    if a < 1 or b < 1:
        raise ValueError("circle product needs arity at least 1")
    twist_power = twist.power(b - 1)
    values = []
    for indices in increasing_tuples(dim, a + b - 1):
        total = vzero(dim)
        for perm, sign in shuffles(b, a - 1):
            inner = psi.evaluate_basis(tuple(indices[p] for p in perm[:b]))
            if is_zero_vector(inner):
                continue
            args = [inner] + [
                twist_power.column(indices[p]) for p in perm[b:]
            ]
            total = vadd(total, vscale(sign, phi.evaluate(args)))
        values.append(total)
    return Cochain(a + b - 1, dim, dim, tuple(values))


def nr_bracket(phi: Cochain, psi: Cochain, twist: Matrix) -> Cochain:
    """[phi, psi] = (-1)^{pq} phi . psi - psi . phi, degrees p, q."""
    p, q = phi.arity - 1, psi.arity - 1
    left = circle_product(phi, psi, twist)
    if (p * q) % 2 == 1:
        left = -left
    return left - circle_product(psi, phi, twist)


def build_theta(rep: Representation) -> Cochain:
    """The arity-2 element mu + rho on g + V encoding bracket and action:
    the bracket table of the semidirect sum, read as a cochain."""
    total = rep.algebra.dim + rep.dim
    return Cochain.from_values(2, total, total,
                               semidirect_product(rep).brackets_dict())


@dataclass(frozen=True)
class MaurerCartanReport:
    twist_compatible: bool
    square_zero: bool

    @property
    def ok(self) -> bool:
        return self.twist_compatible and self.square_zero


def check_maurer_cartan(rep: Representation) -> MaurerCartanReport:
    """Whether mu + rho is a Maurer-Cartan element on g + V.

    The input only provides raw tables; neither the hom-Lie axioms nor
    the representation axioms are assumed, since holding is exactly what
    this check decides.
    """
    twist = block_diag(rep.algebra.alpha, rep.beta)
    theta = build_theta(rep)
    compatible = is_twist_compatible(theta, twist, twist)
    square = nr_bracket(theta, theta, twist)
    return MaurerCartanReport(
        twist_compatible=compatible,
        square_zero=square.is_zero(),
    )


def horizontal_lift(p: Cochain, algebra_dim: int) -> Cochain:
    """Extend P: wedge^n V -> g to g + V by killing the g-components."""
    n_g = algebra_dim
    m = p.source_dim
    total = n_g + m
    entries = {}
    for indices in increasing_tuples(m, p.arity):
        value = p.coeff(indices)
        if not is_zero_vector(value):
            entries[tuple(n_g + a for a in indices)] = value + vzero(m)
    return Cochain.from_values(p.arity, total, total, entries)


def _restrict_to_module(lifted: Cochain, algebra_dim: int, module_dim: int,
                        arity: int) -> Cochain:
    """Read a lifted cochain back as a map wedge^n V -> g.

    The value on module arguments must lie in g; a nonzero V-component
    would mean the bracket left the operator complex, which cannot
    happen for genuine lifts.
    """
    values = []
    for indices in increasing_tuples(module_dim, arity):
        shifted = tuple(algebra_dim + a for a in indices)
        value = lifted.coeff(shifted)
        if not is_zero_vector(value[algebra_dim:]):
            raise ValueError("derived bracket left the operator complex")
        values.append(value[:algebra_dim])
    return Cochain(arity, module_dim, algebra_dim, tuple(values))


def derived_bracket(rep: Representation, p: Cochain, q: Cochain) -> Cochain:
    """{{P, Q}} = (-1)^n [[theta, lift(P)], lift(Q)] restricted to V -> g."""
    g = rep.algebra
    for f in (p, q):
        if f.source_dim != rep.dim or f.target_dim != g.dim:
            raise ValueError("derived bracket needs maps from the module to g")
        if f.arity < 1:
            raise ValueError("use derived_bracket_zero for degree-zero elements")
    twist = block_diag(g.alpha, rep.beta)
    theta = build_theta(rep)
    inner = nr_bracket(theta, horizontal_lift(p, g.dim), twist)
    outer = nr_bracket(inner, horizontal_lift(q, g.dim), twist)
    result = _restrict_to_module(outer, g.dim, rep.dim, p.arity + q.arity)
    if p.arity % 2 == 1:
        result = -result
    return result


def derived_bracket_zero(rep: Representation, p, x: Vector) -> Cochain:
    """{{P, x}} for a degree-zero element x of g fixed by alpha.

    p may be a cochain of arity >= 1, a vector of g (another degree-zero
    element, giving {{x, y}} = [x, y]), or an arity-0 cochain.
    """
    g = rep.algebra
    if not g.is_regular or not rep.beta.is_invertible():
        raise ValueError("degree-zero derived brackets need invertible twists")
    x = tuple(x)
    if g.alpha.apply(x) != x:
        raise ValueError("the degree-zero element must be fixed by alpha")
    if isinstance(p, Cochain) and p.arity == 0:
        p = p.values[0]
    if not isinstance(p, Cochain):
        value = g.bracket(tuple(p), x)
        return Cochain(0, rep.dim, g.dim, (value,))
    if p.source_dim != rep.dim or p.target_dim != g.dim:
        raise ValueError("derived bracket needs maps from the module to g")
    n = p.arity
    alpha_inv = g.alpha.inverse()
    beta_inv = rep.beta.inverse()
    alpha_nm1_x = g.alpha_power(n - 1).apply(x)
    values = []
    for indices in increasing_tuples(rep.dim, n):
        total = vzero(g.dim)
        for perm, sign in shuffles(1, n - 1):
            first = rep.act(x, beta_inv.column(indices[perm[0]]))
            args = [first] + [
                basis_vector(rep.dim, indices[k]) for k in perm[1:]
            ]
            total = vadd(total, vscale(sign, p.evaluate(args)))
        closing = g.bracket(alpha_inv.apply(p.coeff(indices)), alpha_nm1_x)
        values.append(vadd(total, closing))
    return Cochain(n, rep.dim, g.dim, tuple(values))
