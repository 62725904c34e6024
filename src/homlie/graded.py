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

A Cochain stores only its nonzero values, and one circle product is
one walk over psi's: each value psi(e_J) meets every (a-1)-tuple K of
the other indices, the shuffle of J and K is sorted (with its sign)
into the tuple it lands on, and phi is evaluated on psi(e_J) and
sigma^{b-1} e_K.  phi is read from a sparse table built once per
product: its columns at arity 1, its signed bilinear table at arity 2
(for theta, the brackets of the semidirect sum), and Cochain.evaluate
above.  A predicate restricts the walk to the tuples its caller reads;
circle_product, nr_bracket and derived_bracket all use it.

The derived bracket on maps P: wedge^n V -> g, n >= 1, is

    {{P, Q}} = (-1)^n [[theta, lift(P)], lift(Q)]

restricted back to arguments from V, where lift(P) extends P to g + V
by killing the g-components.  Only what the restriction keeps is
computed: the outer bracket on tuples of module indices, and the inner
bracket [theta, lift(P)] on the tuples with at most one g index, the
only ones the outer bracket reads.
"""

from __future__ import annotations

from itertools import combinations

from .alternating import sort_with_sign
from .cochain import Cochain, twist_defects
from .linalg import Matrix, densify, vscale, vzero
from .reporting import Failure, Report, holds
from .structures import Representation, pair_list


def _table(phi: Cochain) -> list:
    """phi's sparse table, built once per product: [i][l] holds the
    nonzero (t, c) of phi(e_i, e_l) at arity 2 (for theta, the brackets
    of the semidirect sum), and [i][0] those of phi(e_i) at arity 1."""
    dim = phi.source_dim
    table = [[()] * (dim if phi.arity == 2 else 1) for _ in range(dim)]
    for key, v in phi.values.items():
        entries = [(t, c) for t, c in enumerate(v) if c]
        if phi.arity == 1:
            table[key[0]][0] = entries
        else:
            table[key[0]][key[1]] = entries
            table[key[1]][key[0]] = [(t, -c) for t, c in entries]
    return table


def _circle_walk(phi: Cochain, psi: Cochain, twist: Matrix, keep,
                 out: dict, sign: int, table=None) -> None:
    """Add sign * (phi . psi) into out, an {increasing tuple: list}
    dict, on the tuples that keep accepts (all when keep is None).

    One walk over psi's nonzero values: each value psi(e_J) meets every
    (a-1)-tuple K of the other indices, the shuffle of J and K is sorted
    into the tuple it lands on, and phi is evaluated on psi(e_J) and
    sigma^{b-1} e_K: from its table at arity 1 and 2 (table, when the
    caller has it, else _table(phi)), by Cochain.evaluate above."""
    dim, a, b = twist.nrows, phi.arity, psi.arity
    power = twist.power(b - 1) if a > 1 and b > 1 else None
    # The sparse sigma^{b-1} e_l; arity 1 reads [i][0] alone.
    columns = [((l, 1),) if power is None else
               [(t, c) for t, c in enumerate(power.column(l)) if c]
               for l in range(dim if a > 1 else 1)]
    if table is None and a <= 2:
        table = _table(phi)
    # signed[s] is columns times sign * s: a shuffle of sign s adds
    # sign * s * phi(psi(e_J), sigma^{b-1} e_K).
    signed = {sign: columns, -sign: [[(l, -y) for l, y in column]
                                     for column in columns]}
    for j, w in psi.values.items():
        rest = [i for i in range(dim) if i not in j] if a > 1 else ()
        for k in combinations(rest, a - 1):
            indices, s = sort_with_sign(j + k) if k else (j, 1)
            if keep is not None and not keep(indices):
                continue
            if table is None:
                value = phi.evaluate(
                    [w, *(densify(dict(columns[i]), dim) for i in k)])
                terms = [(t, c if s == sign else -c)
                         for t, c in enumerate(value) if c]
            else:
                terms = [(t, x * y * c) for i, x in enumerate(w) if x
                         for l, y in signed[s][k[0] if k else 0]
                         for t, c in table[i][l]]
            if terms:
                total = out.setdefault(indices, [0] * dim)
                for t, c in terms:
                    total[t] += c


def _bracket_walk(phi: Cochain, psi: Cochain, twist: Matrix,
                  keep=None, phi_table=None) -> dict:
    """[phi, psi] = (-1)^{pq} phi . psi - psi . phi on the tuples that
    keep accepts, as an {increasing tuple: list} dict."""
    out = {}
    odd = (phi.arity - 1) * (psi.arity - 1) % 2
    _circle_walk(phi, psi, twist, keep, out, -1 if odd else 1, phi_table)
    _circle_walk(psi, phi, twist, keep, out, -1)
    return out


def _product_arity(phi: Cochain, psi: Cochain, twist: Matrix) -> int:
    """The arity of phi . psi, once both factors are checked."""
    for f in (phi, psi):
        if f.source_dim != twist.nrows or f.target_dim != twist.nrows:
            raise ValueError("circle product needs endomorphism-valued cochains")
    if phi.arity < 1 or psi.arity < 1:
        raise ValueError("circle product needs arity at least 1")
    return phi.arity + psi.arity - 1


def circle_product(phi: Cochain, psi: Cochain, twist: Matrix) -> Cochain:
    """The twisted circle product; both factors live on (W, twist)."""
    arity, out = _product_arity(phi, psi, twist), {}
    _circle_walk(phi, psi, twist, None, out, 1)
    return Cochain(arity, twist.nrows, twist.nrows, out)


def nr_bracket(phi: Cochain, psi: Cochain, twist: Matrix) -> Cochain:
    """[phi, psi] = (-1)^{pq} phi . psi - psi . phi, degrees p, q."""
    return Cochain(_product_arity(phi, psi, twist), twist.nrows, twist.nrows,
                   _bracket_walk(phi, psi, twist))


def build_theta(rep: Representation) -> Cochain:
    """The arity-2 element mu + rho on g + V encoding bracket and action:
    the bracket table of the semidirect sum, read as a cochain."""
    semi = rep.semidirect
    return Cochain(2, semi.dim, semi.dim, {
        pair: v for pair, v in zip(pair_list(semi.dim), semi.table) if any(v)})


class MaurerCartanReport(Report):
    twist_compatible = holds("theta_twist")
    square_zero = holds("theta_square")


def check_maurer_cartan(rep: Representation) -> MaurerCartanReport:
    """Whether mu + rho is a Maurer-Cartan element on g + V.

    The input only provides raw tables; neither the hom-Lie axioms nor
    the representation axioms are assumed, since holding is exactly what
    this check decides.  The failures are the basis pairs (x, y) with
    theta(sigma x, sigma y) != sigma theta(x, y), sigma = alpha + beta,
    then the value of [theta, theta] at each triple where it is nonzero.
    """
    twist = rep.semidirect.alpha
    theta = build_theta(rep)
    failures = [Failure("theta_twist", *defect)
                for defect in twist_defects(theta, twist, twist)]
    square = nr_bracket(theta, theta, twist)
    failures += [Failure("theta_square", indices, value, vzero(twist.nrows))
                 for indices, value in sorted(square.values.items())]
    return MaurerCartanReport(tuple(failures))


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
            raise ValueError("derived brackets need arity at least 1")
    n_g, total = g.dim, g.dim + rep.dim
    semi = rep.semidirect
    lift_p = horizontal_lift(p, n_g)
    lift_q = lift_p if q is p else horizontal_lift(q, n_g)
    # theta's table is the semidirect sum's structure constants.  On
    # increasing tuples, t[1] >= n_g leaves at most t[0] in g.
    inner = Cochain(p.arity + 1, total, total, _bracket_walk(
        build_theta(rep), lift_p, semi.alpha, lambda t: t[1] >= n_g,
        semi.structure_constants))
    sign = -1 if p.arity % 2 else 1
    values = {}
    for t, value in _bracket_walk(inner, lift_q, semi.alpha,
                                  lambda t: t[0] >= n_g).items():
        if any(value[n_g:]):
            raise ValueError("derived bracket left the operator complex")
        values[tuple(a - n_g for a in t)] = vscale(sign, value[:n_g])
    return Cochain(p.arity + q.arity, rep.dim, g.dim, values)
