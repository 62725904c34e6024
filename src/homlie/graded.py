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

A Cochain stores only its nonzero values.  The first block of a shuffle
is increasing, so the circle product reads psi's value on it straight
off psi.values and skips the shuffles on which psi vanishes.

The derived bracket on maps P: wedge^n V -> g is

    {{P, Q}} = (-1)^n [[theta, lift(P)], lift(Q)]

restricted back to arguments from V, where lift(P) extends P to g + V
by killing the g-components.  Only what the restriction keeps is
computed: the outer bracket on tuples of module indices, and the inner
bracket [theta, lift(P)] on the tuples with at most one g index, the
only ones the outer bracket reads.  Degree-zero elements x of g (fixed by
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
    is_zero_vector,
    vadd,
    vscale,
    vsub,
    vzero,
)
from .structures import Representation


def _circle_values(phi: Cochain, psi: Cochain, twist: Matrix,
                   tuples) -> list:
    """phi . psi on the given increasing index tuples, in their order."""
    a, b = phi.arity, psi.arity
    twist_power = twist.power(b - 1)
    values = []
    for indices in tuples:
        total = list(vzero(twist.nrows))
        for perm, sign in shuffles(b, a - 1):
            inner = psi.values.get(tuple(indices[p] for p in perm[:b]))
            if inner is None:
                continue
            args = [inner] + [twist_power.column(indices[p]) for p in perm[b:]]
            for t, c in enumerate(phi.evaluate(args)):
                if c:
                    total[t] += c if sign == 1 else -c
        values.append(tuple(total))
    return values


def _bracket_values(phi: Cochain, psi: Cochain, twist: Matrix,
                    tuples) -> list:
    """[phi, psi] on the given increasing index tuples, in their order."""
    sign = -1 if (phi.arity - 1) * (psi.arity - 1) % 2 else 1
    return [vsub(vscale(sign, left), right) for left, right in zip(
        _circle_values(phi, psi, twist, tuples),
        _circle_values(psi, phi, twist, tuples))]


def _on_every_tuple(values, phi: Cochain, psi: Cochain,
                    twist: Matrix) -> Cochain:
    """The cochain values(phi, psi, twist, tuples) on all tuples."""
    for f in (phi, psi):
        if f.source_dim != twist.nrows or f.target_dim != twist.nrows:
            raise ValueError("circle product needs endomorphism-valued cochains")
    if phi.arity < 1 or psi.arity < 1:
        raise ValueError("circle product needs arity at least 1")
    arity = phi.arity + psi.arity - 1
    tuples = increasing_tuples(twist.nrows, arity)
    return Cochain(arity, twist.nrows, twist.nrows,
                   dict(zip(tuples, values(phi, psi, twist, tuples))))


def circle_product(phi: Cochain, psi: Cochain, twist: Matrix) -> Cochain:
    """The twisted circle product; both factors live on (W, twist)."""
    return _on_every_tuple(_circle_values, phi, psi, twist)


def nr_bracket(phi: Cochain, psi: Cochain, twist: Matrix) -> Cochain:
    """[phi, psi] = (-1)^{pq} phi . psi - psi . phi, degrees p, q."""
    return _on_every_tuple(_bracket_values, phi, psi, twist)


def build_theta(rep: Representation) -> Cochain:
    """The arity-2 element mu + rho on g + V encoding bracket and action:
    the bracket table of the semidirect sum, read as a cochain."""
    semi = rep.semidirect
    return Cochain.from_values(2, semi.dim, semi.dim, semi.brackets_dict())


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
    twist = rep.semidirect.alpha
    theta = build_theta(rep)
    compatible = is_twist_compatible(theta, twist, twist)
    square = nr_bracket(theta, theta, twist)
    return MaurerCartanReport(
        twist_compatible=compatible,
        square_zero=square.is_zero(),
    )


def horizontal_lift(p: Cochain, algebra_dim: int) -> Cochain:
    """Extend P: wedge^n V -> g to g + V by killing the g-components."""
    n_g, m = algebra_dim, p.source_dim
    return Cochain(p.arity, n_g + m, n_g + m,
                   {tuple(n_g + a for a in indices): value + vzero(m)
                    for indices, value in p.values.items()})


def derived_bracket(rep: Representation, p: Cochain, q: Cochain) -> Cochain:
    """{{P, Q}} = (-1)^n [[theta, lift(P)], lift(Q)] restricted to V -> g.

    Only the values the restriction reads are computed.  The outer
    bracket is evaluated on module tuples alone.  There it reads the
    inner bracket on module tuples, and on values of lift(Q), which lie
    in g, next to module arguments (the twist keeps V); so the inner
    bracket is evaluated on the tuples with at most one g index.  This
    is the Maurer-Cartan route for O-operators ({{T, T}} = 0); the
    deformation obstruction is computed from the deformed identity
    instead, and the tests compare the two.
    """
    g = rep.algebra
    for f in (p, q):
        if f.source_dim != rep.dim or f.target_dim != g.dim:
            raise ValueError("derived bracket needs maps from the module to g")
        if f.arity < 1:
            raise ValueError("use derived_bracket_zero for degree-zero elements")
    n_g, total = g.dim, g.dim + rep.dim
    twist = rep.semidirect.alpha
    theta = build_theta(rep)
    # Increasing tuples: t[1] >= n_g leaves at most t[0] in g.
    near = [t for t in increasing_tuples(total, p.arity + 1) if t[1] >= n_g]
    inner = Cochain(p.arity + 1, total, total, dict(zip(
        near, _bracket_values(theta, horizontal_lift(p, n_g), twist, near))))
    arity = p.arity + q.arity
    module = [t for t in increasing_tuples(total, arity) if t[0] >= n_g]
    sign = -1 if p.arity % 2 else 1
    values = {}
    for t, value in zip(module, _bracket_values(
            inner, horizontal_lift(q, n_g), twist, module)):
        if not is_zero_vector(value[n_g:]):
            raise ValueError("derived bracket left the operator complex")
        values[tuple(a - n_g for a in t)] = vscale(sign, value[:n_g])
    return Cochain(arity, rep.dim, g.dim, values)


def derived_bracket_zero(rep: Representation, p, x: Vector) -> Cochain:
    """{{P, x}} for a degree-zero element x of g fixed by alpha.

    p may be a cochain of arity >= 1, a vector of g (another degree-zero
    element, giving {{x, y}} = [x, y]), or an arity-0 cochain.
    """
    g = rep.algebra
    if not rep.is_regular:
        raise ValueError("degree-zero derived brackets need invertible twists")
    x = tuple(x)
    if g.alpha.apply(x) != x:
        raise ValueError("the degree-zero element must be fixed by alpha")
    if isinstance(p, Cochain) and p.arity == 0:
        p = p.coeff(())
    if not isinstance(p, Cochain):
        return Cochain(0, rep.dim, g.dim, {(): g.bracket(tuple(p), x)})
    if p.source_dim != rep.dim or p.target_dim != g.dim:
        raise ValueError("derived bracket needs maps from the module to g")
    n = p.arity
    alpha_inv = g.alpha.inverse()
    beta_inv = rep.beta.inverse()
    alpha_nm1_x = g.alpha_power(n - 1).apply(x)
    values = {}
    for indices in increasing_tuples(rep.dim, n):
        total = vzero(g.dim)
        for perm, sign in shuffles(1, n - 1):
            first = rep.act(x, beta_inv.column(indices[perm[0]]))
            args = [first] + [
                basis_vector(rep.dim, indices[k]) for k in perm[1:]
            ]
            total = vadd(total, vscale(sign, p.evaluate(args)))
        closing = g.bracket(alpha_inv.apply(p.coeff(indices)), alpha_nm1_x)
        values[indices] = vadd(total, closing)
    return Cochain(n, rep.dim, g.dim, values)
