"""Hom-Lie algebras, their representations, and standard constructions.

A hom-Lie algebra is a vector space with an antisymmetric bracket and a
linear twist alpha satisfying multiplicativity

    alpha([x, y]) = [alpha(x), alpha(y)]

and the hom-Jacobi identity

    [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0.

A representation of (g, alpha) is a space V with twist beta and an action
rho: g -> End(V) satisfying

    rho(alpha(x)) . beta = beta . rho(x)
    rho([x, y]) . beta   = rho(alpha(x)) rho(y) - rho(alpha(y)) rho(x).

Brackets are stored only on basis pairs i < j; everything else follows by
antisymmetry.  bracket, act and rho_of read one sparse table of structure
constants per object (linalg.sparse_table), built on first use from the
frozen fields and kept on the object, so it cannot go stale.  Verifiers
return structured reports and never raise on a failing law, so broken
inputs can be diagnosed.

The verifiers walk those tables: every side of every law is a sum of
add_bilinear calls on the nonzero structure constants and the sparse
columns of alpha, beta and each rho_i, so they call neither bracket nor
act, and build no action matrix and no matrix product.  The builders of
derived representations read the columns of alpha, beta and each rho_i
once and evaluate bracket and act on those tables, one basis vector at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .linalg import (
    UNIT,
    Matrix,
    Q,
    Vector,
    add_bilinear,
    basis_vector,
    bilinear,
    bilinear_sum,
    block_diag,
    column_table,
    is_zero_vector,
    scalar,
    sparse_table,
    vneg,
    vzero,
)
from .reporting import Failure, Report, holds


@lru_cache(maxsize=32)
def _pair_position(dim: int) -> dict:
    """Position of each ordered pair i < j in the lexicographic pair list."""
    position = {}
    k = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            position[(i, j)] = k
            k += 1
    return position


def pair_list(dim: int) -> list:
    """All basis pairs i < j in lexicographic order."""
    return sorted(_pair_position(dim))


def default_basis(dim: int, prefix: str = "e") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(dim))


@dataclass(frozen=True)
class HomLieAlgebra:
    """A finite-dimensional algebra with antisymmetric bracket and twist.

    table holds [e_i, e_j] for i < j in lexicographic pair order, each as
    a coordinate vector.  The axioms are not enforced on construction;
    run verify_hom_lie to check them.
    """

    dim: int
    basis: tuple
    alpha: Matrix
    table: tuple

    def __post_init__(self):
        if len(self.basis) != self.dim:
            raise ValueError("basis labels do not match dim")
        if self.alpha.shape != (self.dim, self.dim):
            raise ValueError("alpha has the wrong shape")
        expected = self.dim * (self.dim - 1) // 2
        if len(self.table) != expected:
            raise ValueError("bracket table has the wrong length")
        for value in self.table:
            if len(value) != self.dim:
                raise ValueError("bracket value has the wrong length")

    @classmethod
    def build(cls, dim, brackets, alpha=None, basis=None) -> "HomLieAlgebra":
        """Assemble an algebra from a sparse {(i, j): vector} bracket dict.

        Keys must have i < j; omitted pairs get the zero bracket.  alpha
        defaults to the identity.
        """
        if alpha is None:
            alpha = Matrix.identity(dim)
        if basis is None:
            basis = default_basis(dim)
        table = []
        seen = set(brackets)
        for (i, j) in pair_list(dim):
            seen.discard((i, j))
            value = brackets.get((i, j))
            if value is None:
                table.append(vzero(dim))
            else:
                table.append(tuple(scalar(c) for c in value))
        if seen:
            raise ValueError(f"bracket keys must satisfy i < j, got {sorted(seen)}")
        return cls(dim=dim, basis=tuple(basis), alpha=alpha, table=tuple(table))

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for any i, j, using antisymmetry."""
        if i == j:
            return vzero(self.dim)
        if i < j:
            return self.table[_pair_position(self.dim)[(i, j)]]
        return vneg(self.table[_pair_position(self.dim)[(j, i)]])

    @cached_property
    def structure_constants(self) -> tuple:
        """[e_i, e_j] for all i, j as a sparse table, read off the pair
        table once: [e_j, e_i] holds the negated entries of [e_i, e_j]."""
        rows = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), value in zip(pair_list(self.dim), self.table):
            rows[i][j] = tuple((k, scalar(c)) for k, c in enumerate(value) if c)
            rows[j][i] = tuple((k, -c) for k, c in rows[i][j])
        return tuple(map(tuple, rows))

    def bracket(self, u: Vector, v: Vector) -> Vector:
        """Bilinear extension of the basis bracket."""
        return bilinear(u, v, self.structure_constants, self.dim)

    def alpha_power(self, s: int) -> Matrix:
        return self.alpha.power(s)

    @cached_property
    def is_regular(self) -> bool:
        """Whether alpha is invertible, decided once per object."""
        return self.alpha.is_invertible()

    def brackets_dict(self) -> dict:
        """Sparse {(i, j): vector} view of the table, zero pairs omitted."""
        out = {}
        for (i, j) in pair_list(self.dim):
            value = self.bracket_basis(i, j)
            if not is_zero_vector(value):
                out[(i, j)] = value
        return out


@dataclass(frozen=True)
class HomLieReport(Report):
    regular: bool
    multiplicative = holds("multiplicativity")
    hom_jacobi = holds("hom_jacobi")


def verify_hom_lie(g: HomLieAlgebra) -> HomLieReport:
    """Check multiplicativity and hom-Jacobi on all basis tuples.

    Both laws walk the nonzero structure constants and the sparse
    columns of alpha with add_bilinear.  Each nonzero [e_j, e_k] adds
    [alpha e_i, [e_j, e_k]] into the hom-Jacobi defect of the sorted
    triple of i, j, k, for every other i, with the sign -1 when
    j < i < k, where the cyclic term is [alpha e_i, [e_k, e_j]].  A
    triple that no term reaches has zero defect, so every triple is
    still checked, and failures come in lexicographic order.
    """
    n, table, alpha = g.dim, g.structure_constants, column_table(g.alpha)
    columns = [column[0] for column in alpha]
    negated = [[(p, -x) for p, x in column] for column in columns]
    failures = []
    for (i, j) in pair_list(n):
        lhs = bilinear_sum(n, (table[i][j], UNIT, alpha))
        rhs = bilinear_sum(n, (columns[i], columns[j], table))
        if lhs != rhs:
            failures.append(Failure("multiplicativity", (i, j), lhs, rhs))
    defects = {}
    for (j, k) in pair_list(n):
        for i in range(n) if table[j][k] else ():
            if i not in (j, k):
                add_bilinear(defects.setdefault(tuple(sorted((i, j, k))),
                                                [0] * n),
                             negated[i] if j < i < k else columns[i],
                             table[j][k], table)
    failures += [Failure("hom_jacobi", triple, tuple(defect), vzero(n))
                 for triple, defect in sorted(defects.items()) if any(defect)]
    return HomLieReport(tuple(failures), regular=g.is_regular)


def from_lie_with_morphism(g: HomLieAlgebra, phi: Matrix) -> HomLieAlgebra:
    """Twist an ordinary Lie algebra (alpha = id) along an endomorphism.

    phi must commute with the brackets; the result has bracket
    phi([x, y]) and twist phi, with each integral entry of phi read as
    an int (Matrix.scale, for one, can leave a Fraction 2/1), so the
    cochain layer meets ints wherever the twist is integral.
    """
    if g.alpha != Matrix.identity(g.dim):
        raise ValueError("the input must be an ordinary Lie algebra (alpha = id)")
    phi = Matrix(phi.rows, phi.ncols)
    columns = [phi.column(i) for i in range(g.dim)]
    for (i, j) in pair_list(g.dim):
        lhs = phi.apply(g.bracket_basis(i, j))
        rhs = g.bracket(columns[i], columns[j])
        if lhs != rhs:
            raise ValueError(
                f"phi is not a Lie algebra endomorphism: fails at pair ({i}, {j})"
            )
    table = tuple(phi.apply(g.bracket_basis(i, j)) for (i, j) in pair_list(g.dim))
    return HomLieAlgebra(dim=g.dim, basis=g.basis, alpha=phi, table=table)


@dataclass(frozen=True)
class Representation:
    """An action of a hom-Lie algebra on a twisted space (V, beta).

    rho holds one matrix per algebra basis vector.  Axioms are checked by
    verify_representation, not on construction.
    """

    algebra: HomLieAlgebra
    dim: int
    basis: tuple
    beta: Matrix
    rho: tuple

    def __post_init__(self):
        if len(self.basis) != self.dim:
            raise ValueError("basis labels do not match dim")
        if self.beta.shape != (self.dim, self.dim):
            raise ValueError("beta has the wrong shape")
        if len(self.rho) != self.algebra.dim:
            raise ValueError("need one action matrix per algebra basis vector")
        for m in self.rho:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrix has the wrong shape")

    @classmethod
    def build(cls, algebra, beta, rho, basis=None) -> "Representation":
        dim = beta.nrows
        if basis is None:
            basis = default_basis(dim, prefix="v")
        return cls(algebra=algebra, dim=dim, basis=tuple(basis),
                   beta=beta, rho=tuple(rho))

    @cached_property
    def structure_constants(self) -> tuple:
        """{e_i, v_j} = rho[i] column j for all i, j as a sparse table."""
        return sparse_table([[m.column(j) for j in range(self.dim)]
                             for m in self.rho])

    @cached_property
    def is_regular(self) -> bool:
        """Whether both twists, alpha and beta, are invertible, decided
        once per object."""
        return self.algebra.is_regular and self.beta.is_invertible()

    @cached_property
    def semidirect(self) -> HomLieAlgebra:
        """semidirect_product(self), built once per object."""
        return semidirect_product(self)

    def rho_of(self, x: Vector) -> Matrix:
        """Action matrix of an arbitrary algebra element."""
        return Matrix.from_columns(
            [bilinear(x, basis_vector(self.dim, j), self.structure_constants,
                      self.dim) for j in range(self.dim)], nrows=self.dim)

    def act(self, x: Vector, v: Vector) -> Vector:
        """{x, v} = rho(x)(v)."""
        return bilinear(x, v, self.structure_constants, self.dim)


class RepresentationReport(Report):
    twist_intertwine = holds("twist_intertwine")
    module_equation = holds("module_equation")


def verify_representation(rep: Representation) -> RepresentationReport:
    """Check both representation axioms on all basis vectors and pairs.

    Both sides are compared on each basis vector v_c of V, read off the
    sparse tables of alpha, beta and rho with add_bilinear:
    rho(alpha e_i) beta v_c against beta rho_i v_c, and
    rho([e_i, e_j]) beta v_c against
    rho(alpha e_i) rho_j v_c - rho(alpha e_j) rho_i v_c.  No action
    matrix is built.  A failure names the basis tuple and then c.
    """
    g, m, rho = rep.algebra, rep.dim, rep.structure_constants
    alpha = [column[0] for column in column_table(g.alpha)]
    negated = [[(p, -x) for p, x in column] for column in alpha]
    beta_table = column_table(rep.beta)
    beta, failures = [column[0] for column in beta_table], []
    for i, c in product(range(g.dim), range(m)):
        lhs = bilinear_sum(m, (alpha[i], beta[c], rho))
        rhs = bilinear_sum(m, (rho[i][c], UNIT, beta_table))
        if lhs != rhs:
            failures.append(Failure("twist_intertwine", (i, c), lhs, rhs))
    for (i, j), c in product(pair_list(g.dim), range(m)):
        lhs = bilinear_sum(m, (g.structure_constants[i][j], beta[c], rho))
        rhs = bilinear_sum(m, (alpha[i], rho[j][c], rho),
                           (negated[j], rho[i][c], rho))
        if lhs != rhs:
            failures.append(Failure("module_equation", (i, j, c), lhs, rhs))
    return RepresentationReport(tuple(failures))


def _exact(rows: list, ncols: int) -> Matrix:
    """The Matrix of rows of exact sums of products, with every integral
    Fraction among them written as its int."""
    return Matrix._trusted(tuple(tuple(x if type(x) is int else scalar(x)
                                       for x in row) for row in rows), ncols)


def adjoint_rep(g: HomLieAlgebra, s: int = 0) -> Representation:
    """The alpha^s-twisted adjoint action ad^s_x(y) = [alpha^s(x), y].

    Column j of rho(e_i) is [alpha^s e_i, e_j], read off the structure
    constants by bracket.  Negative s needs a regular algebra.
    """
    alpha_s, n = g.alpha_power(s), g.dim
    units = [basis_vector(n, j) for j in range(n)]
    rho = tuple(_exact(zip(*[g.bracket(alpha_s.column(i), e) for e in units]), n)
                for i in range(n))
    return Representation(algebra=g, dim=n, basis=g.basis,
                          beta=g.alpha, rho=rho)


def trivial_rep(g: HomLieAlgebra, dim: int = 1) -> Representation:
    """The zero action on (V, id)."""
    return Representation(
        algebra=g,
        dim=dim,
        basis=default_basis(dim, prefix="v"),
        beta=Matrix.identity(dim),
        rho=tuple(Matrix.zero(dim, dim) for _ in range(g.dim)),
    )


def dual_rep(rep: Representation) -> Representation:
    """The dual representation on V* for invertible twists.

    With the dual-basis pairing, beta* = (beta^{-1})^T and

        rho*(x) = -(rho(alpha^{-1}(x)) . beta^{-2})^T,

    which satisfies both representation axioms whenever rep does.  Row c
    of rho*(e_i) is -act(alpha^{-1} e_i, beta^{-2} v_c), read off the
    action table, so no action matrix is built, and when beta is alpha
    it is inverted once; an identity or diagonal twist is inverted
    entry by entry (Matrix.inverse), with no elimination.
    """
    g = rep.algebra
    inverses = {}
    for twist, name in ((g.alpha, "alpha"), (rep.beta, "beta")):
        if twist not in inverses:
            try:
                inverses[twist] = twist.inverse()
            except ValueError:
                raise ValueError(
                    f"dual representation needs an invertible {name}") from None
    alpha_inv, beta_inv = inverses[g.alpha], inverses[rep.beta]
    beta_minus2 = beta_inv @ beta_inv
    columns = [beta_minus2.column(c) for c in range(rep.dim)]
    rho_star = tuple(
        _exact([vneg(rep.act(alpha_inv.column(i), column))
                for column in columns], rep.dim)
        for i in range(g.dim)
    )
    return Representation(
        algebra=g,
        dim=rep.dim,
        basis=tuple(f"{name}*" for name in rep.basis),
        beta=beta_inv.transpose(),
        rho=rho_star,
    )


def coadjoint_rep(g: HomLieAlgebra) -> Representation:
    """Dual of the untwisted adjoint representation."""
    return dual_rep(adjoint_rep(g, 0))


def semidirect_product(rep: Representation) -> HomLieAlgebra:
    """The semidirect sum g + V with bracket

        [x + u, y + v] = [x, y] + rho(x)(v) - rho(y)(u)

    and twist alpha + beta.  The axioms are deliberately not enforced: the
    result is a hom-Lie algebra exactly when rep is a representation,
    which verify_hom_lie can test.
    """
    g = rep.algebra
    n, m = g.dim, rep.dim
    brackets = {}
    for (i, j) in pair_list(n):
        value = g.bracket_basis(i, j)
        if not is_zero_vector(value):
            brackets[(i, j)] = value + vzero(m)
    for i in range(n):
        for a in range(m):
            value = rep.rho[i].column(a)
            if not is_zero_vector(value):
                brackets[(i, n + a)] = vzero(n) + value
    return HomLieAlgebra.build(
        dim=n + m,
        brackets=brackets,
        alpha=block_diag(g.alpha, rep.beta),
        basis=g.basis + rep.basis,
    )


def abelian2() -> HomLieAlgebra:
    """Two-dimensional abelian algebra with identity twist."""
    return HomLieAlgebra.build(dim=2, brackets={})


def aff1() -> HomLieAlgebra:
    """The affine line: [e1, e2] = e2, identity twist."""
    return HomLieAlgebra.build(dim=2, brackets={(0, 1): (0, 1)})


def aff1_twisted() -> HomLieAlgebra:
    """Twisted affine line: [e1, e2] = 2 e2 with alpha = diag(1, 2)."""
    return HomLieAlgebra.build(
        dim=2,
        brackets={(0, 1): (0, 2)},
        alpha=Matrix.diagonal([1, 2]),
    )


def sl2() -> HomLieAlgebra:
    """sl(2) in the basis (h, e, f) with identity twist."""
    return HomLieAlgebra.build(
        dim=3,
        brackets={
            (0, 1): (0, 2, 0),
            (0, 2): (0, 0, -2),
            (1, 2): (1, 0, 0),
        },
        basis=("h", "e", "f"),
    )


def heisenberg3() -> HomLieAlgebra:
    """Heisenberg algebra [e1, e2] = e3 with identity twist."""
    return HomLieAlgebra.build(dim=3, brackets={(0, 1): (0, 0, 1)})


def heisenberg3_twisted() -> HomLieAlgebra:
    """Heisenberg bracket with the diagonal twist diag(2, 1/2, 1)."""
    return HomLieAlgebra.build(
        dim=3,
        brackets={(0, 1): (0, 0, 1)},
        alpha=Matrix.diagonal([2, Q(1, 2), 1]),
    )


def catalog() -> dict:
    """Named example algebras, ordered by increasing complexity."""
    return {
        "abelian2": abelian2(),
        "aff1": aff1(),
        "aff1_twisted": aff1_twisted(),
        "sl2": sl2(),
        "heisenberg3": heisenberg3(),
        "heisenberg3_twisted": heisenberg3_twisted(),
    }
