"""Twist-compatible cochains and the coboundary of a representation.

An n-cochain is an alternating multilinear map from the source algebra
into the coefficient space.  Only the maps compatible with the twists,

    tau(f(v_1, ..., v_n)) = f(sigma v_1, ..., sigma v_n),

form the complex; compatible_maps_basis(alpha, beta, n) computes that
subspace exactly.  The coboundary of an n-cochain f is

    (delta f)(x_1, ..., x_{n+1})
        = sum_i (-1)^{i+1} rho(alpha^{n-1}(x_i)) f(..., x_i omitted, ...)
        + sum_{i<j} (-1)^{i+j} f([x_i, x_j], alpha(x_1), ...,
                                 alpha hats at i, j, ..., alpha(x_{n+1})).

The same machinery drives both directions of interest: cochains on g
with values in a module V, and cochains on the sub-adjacent algebra of
an O-operator with values back in g.  Each complex is fixed by its
coefficient representation rep: the cochains live on rep.algebra,
whose twist alpha is the source twist, and take values in rep, whose
twist beta is the coefficient twist.  The complex of an O-operator T
is the one of ooperator.rho_T.

A Cochain is its nonzero values: an {increasing tuple: coefficient
vector} dict with no zero vector in it, so equal maps compare equal.
Every other layer sees only Cochains.  The elimination works on flat
coordinates instead, the integer position * target_dim + t of entry t
of the value on the tuple at position p in combinations order, and
they stay in this module: _flatten and _unflatten convert at its edge.

delta_n has a single implementation, delta_0 included:
_coboundary_columns builds the sparse columns of delta_n at the flat
coordinates its caller reads, and no others: coboundary asks for those
of its cochain's entries, coboundary_on_basis for those of the
compatible basis, and coboundary_matrix, part of the public API, for
all of them, written out densely.  A column (J, u) finds its own rows.
The rho-term inserts each index i outside J, with the sign of its
position, and reads the entries of rho(alpha^{n-1} e_i) in column u,
straight off the coefficient's sparse structure constants.  The bracket
term expands the coefficient of e_J in [e_a, e_b] ^ alpha e_K along its
first factor: a bracket with an e_c coefficient, c in J, is looked up
by c, and the minors of alpha on the other rows of J are the wedges of
alpha's rows, each one alternating.wedge_extend step from its prefix's
(alternating.tuple_wedges).  Under a twist only a part of the flat
coordinates is compatible, so only that part of delta is built.

The compatible basis is the kernel of one sparse system for every pair
of twists, and compatible_flats returns it as sparse flats: one
{flat coordinate: value} dict per basis cochain.  When both twists are
diagonal every equation has one entry, and the kernel is read off the
diagonals by weight: the int unit cochains e_I (x) v_t with
prod_{i in I} sigma_ii = tau_tt, in flat order.  Any other pair is
solved, in ints: with s the lcm of the denominators of sigma and tau,
the twist minors are those of s sigma, which alternating.tuple_wedges
expands for all n-tuples from shared prefixes, and the equations are
multiplied by s^max(n, 1), which changes no kernel; each basis cochain
is then a short combination.  coboundary_on_basis applies delta to
those flats and gives sparse images.  cohomology_table takes that
restriction once per arity and hands the images straight to
linalg.sparse_echelon, so every rank of a table is computed exactly once
and nothing the size of a cochain space is written out densely: no
basis cochain becomes a Cochain on the way.  coboundary_solver takes
the same images once and solves delta X = target on them for as many
targets as its caller has (the extension loop of homlie.deformation),
taking and returning Cochains.  compatible_maps_basis wraps the flats
as Cochains for callers that want them.

For regular structures the complex extends to degree zero: C^0 is the
fixed-point space of the coefficient twist and

    (delta_0 w)(x) = rho(sigma^{-1}(x))(w).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod

from .alternating import increasing_tuples, tuple_wedges, wedge_coords
from .linalg import (
    Matrix,
    Vector,
    densify,
    is_zero_vector,
    rref_kernel,
    scalar,
    sparse_echelon,
    sparse_rref,
    sparse_solve,
    vadd,
    vscale,
    vzero,
)
from .structures import Representation


@lru_cache(maxsize=128)
def _tuple_positions(dim: int, arity: int) -> dict:
    return {t: p for p, t in enumerate(increasing_tuples(dim, arity))}


@dataclass(frozen=True)
class Cochain:
    """An alternating map, stored as its nonzero values.

    values maps each increasing arity-tuple of source indices on which
    the map is nonzero to its coefficient vector (length target_dim); a
    missing tuple has the value zero.  The constructor drops zero
    vectors and refuses a key that is not an increasing tuple of arity
    indices below source_dim, so equal maps have equal values.  Arity 0
    keeps its value on the empty tuple.
    """

    arity: int
    source_dim: int
    target_dim: int
    values: dict

    def __post_init__(self):
        values = {}
        for key, v in self.values.items():
            bounds = (-1, *key, self.source_dim)
            if len(key) != self.arity or any(
                    a >= b for a, b in zip(bounds, bounds[1:])):
                raise ValueError(
                    f"keys must be increasing {self.arity}-tuples of indices "
                    f"below {self.source_dim}, got {key!r}")
            if len(v) != self.target_dim:
                raise ValueError("coefficient vector has the wrong length")
            if not is_zero_vector(v):
                values[key] = tuple(v)
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls, arity: int, source_dim: int, target_dim: int) -> "Cochain":
        return cls(arity, source_dim, target_dim, {})

    @classmethod
    def from_linear_map(cls, m: Matrix) -> "Cochain":
        """Wrap a matrix as the arity-1 cochain e_j -> column j."""
        return cls(1, m.ncols, m.nrows,
                   {(j,): m.column(j) for j in range(m.ncols)})

    def as_matrix(self) -> Matrix:
        if self.arity != 1:
            raise ValueError("only arity-1 cochains are matrices")
        return Matrix.from_columns(
            [self.coeff((j,)) for j in range(self.source_dim)],
            nrows=self.target_dim)

    def coeff(self, indices: tuple) -> Vector:
        """The value on an increasing tuple, zero when none is stored."""
        value = self.values.get(indices)
        return vzero(self.target_dim) if value is None else value

    def evaluate(self, vectors) -> Vector:
        """Multilinear evaluation on arbitrary coordinate vectors."""
        vectors = list(vectors)
        if len(vectors) != self.arity:
            raise ValueError("wrong number of arguments")
        if self.arity == 0:
            return self.coeff(())
        out = list(vzero(self.target_dim))
        for indices, minor in wedge_coords(vectors, self.source_dim).items():
            value = self.values.get(indices)
            if value is not None:
                for t, c in enumerate(value):
                    if c:
                        out[t] += minor * c
        return tuple(out)

    def _require_like(self, other: "Cochain") -> None:
        if (self.arity, self.source_dim, self.target_dim) != (
                other.arity, other.source_dim, other.target_dim):
            raise ValueError("cochain shape mismatch")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._require_like(other)
        values = dict(self.values)
        for key, v in other.values.items():
            values[key] = vadd(values[key], v) if key in values else v
        return Cochain(self.arity, self.source_dim, self.target_dim, values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        c = scalar(c)
        return Cochain(self.arity, self.source_dim, self.target_dim,
                       {key: vscale(c, v) for key, v in self.values.items()})

    def is_zero(self) -> bool:
        return not self.values


def twist_defects(f: Cochain, sigma: Matrix, tau: Matrix):
    """Each (indices, f(sigma v_1, ..., sigma v_n), tau(f(v_1, ..., v_n)))
    whose two sides differ, v_i the basis vectors at indices."""
    for indices in increasing_tuples(f.source_dim, f.arity):
        lhs = f.evaluate([sigma.column(i) for i in indices])
        rhs = tau.apply(f.coeff(indices))
        if lhs != rhs:
            yield indices, lhs, rhs


def _flatten(f: Cochain) -> dict:
    """The nonzero entries of f at their flat coordinates: entry t of
    the value on the increasing tuple at position p (combinations order)
    has coordinate p * target_dim + t."""
    position, td = _tuple_positions(f.source_dim, f.arity), f.target_dim
    return {position[key] * td + t: c for key, v in f.values.items()
            for t, c in enumerate(v) if c}


def _unflatten(arity: int, source_dim: int, target_dim: int,
               flat: dict) -> Cochain:
    """The Cochain whose flat coordinates (see _flatten) hold the
    {coordinate: value} entries of flat."""
    tuples = increasing_tuples(source_dim, arity)
    vectors = {}
    for k, c in flat.items():
        p, t = divmod(k, target_dim)
        vectors.setdefault(p, [0] * target_dim)[t] = c
    return Cochain(arity, source_dim, target_dim,
                   {tuples[p]: tuple(v) for p, v in vectors.items()})


def compatible_flats(sigma: Matrix, tau: Matrix, arity: int) -> list:
    """Canonical basis of the alternating maps f with f . sigma^n = tau . f,
    as sparse flats: {flat coordinate: scalar} dicts of the nonzero
    entries, in the coordinates of _flatten.

    When sigma and tau are both diagonal the system is a set of single
    entries, and its kernel is read off the diagonals: the int unit
    cochains e_I (x) v_t with prod_{i in I} sigma_ii = tau_tt, in flat
    order.  Any other pair of twists solves the sparse linear system
    f(sigma e_I) = tau(f(e_I)) over the flat coordinates, in ints: times
    s^max(n, 1), where s is the lcm of the denominators of sigma and
    tau; the canonical kernel basis makes the result stable.  Arity 0
    gives the fixed points of tau.
    """
    sd, td = sigma.nrows, tau.nrows
    position = _tuple_positions(sd, arity)
    weights, targets = sigma.diagonal_entries(), tau.diagonal_entries()
    if weights is not None and targets is not None:
        units = {}
        for t, w in enumerate(targets):
            units.setdefault(w, []).append(t)
        return [{p * td + t: 1} for p, tup in enumerate(position)
                for t in units.get(prod(weights[i] for i in tup), ())]
    # The minors of s sigma are s^n times those of sigma.  With tau times
    # s^max(n, 1) and the identity side of arity 0 times s, every
    # equation is s^max(n, 1) times its own, in ints.
    s = lcm(*(e.denominator for m in (sigma, tau) for row in m.rows
              for e in row))
    lift = s ** max(arity, 1)
    side = lift // s ** arity
    columns = [tuple((s * e).numerator for e in sigma.column(i))
               for i in range(sd)]
    tau_rows = [[(u, -(lift * c).numerator) for u, c in enumerate(row) if c]
                for row in tau.rows]
    rows = []
    for p, (_, minors) in enumerate(tuple_wedges(columns, arity)):
        for t in range(td):
            row = {p * td + u: c for u, c in tau_rows[t]}
            for other, minor in minors.items():
                k = position[other] * td + t
                row[k] = row.get(k, 0) + side * minor
            rows.append(row)
    return rref_kernel(sparse_rref(rows), len(position) * td)


def compatible_maps_basis(sigma: Matrix, tau: Matrix, arity: int) -> list:
    """The basis of compatible_flats(sigma, tau, arity) as Cochains."""
    return [_unflatten(arity, sigma.nrows, tau.nrows, f)
            for f in compatible_flats(sigma, tau, arity)]


def zero_coboundary(rep: Representation, w: Vector) -> Cochain:
    """delta_0 on a fixed point of the coefficient twist (regular only)."""
    if not rep.algebra.is_regular:
        raise ValueError("the degree-zero coboundary needs an invertible twist")
    w = tuple(scalar(c) for c in w)
    if rep.beta.apply(w) != w:
        raise ValueError("delta_0 is only defined on fixed points of the twist")
    return _coboundary_of_flat(rep, 0, {t: c for t, c in enumerate(w) if c})


def _flat_size(rep: Representation, arity: int) -> int:
    return len(increasing_tuples(rep.algebra.dim, arity)) * rep.dim


def _action_entries(rep: Representation, x: Vector) -> list:
    """The nonzero entries (t, u, c) of rho(x), row by row, summed
    straight from the sparse structure constants of rep."""
    entries = {}
    for k, a in enumerate(x):
        if a:
            for u, constants in enumerate(rep.structure_constants[k]):
                for t, c in constants:
                    entries[t, u] = entries.get((t, u), 0) + a * c
    return [(t, u, c) for (t, u), c in sorted(entries.items()) if c]


def _coboundary_columns(rep: Representation, arity: int, wanted) -> dict:
    """The columns of delta_arity at the flat coordinates wanted.

    Returns {k: column} for each k in wanted, a column being a {flat
    row: coefficient} dict of its nonzero entries, in the flat
    coordinates of _flatten on both sides.  Row (I, t) of delta f is

        sum_pos (-1)^pos rho(alpha^{n-1} e_{i_pos})_{t,u} f_u(I - i_pos)
        + sum_{p<q} (-1)^{p+q} f_t([e_{i_p}, e_{i_q}], alpha e_..., ...),

    so column (J, u) meets the rows of J with one index i inserted, at
    position pos, through the entries of rho(alpha^{n-1} e_i) in column
    u.  Its bracket rows come from the first-column expansion of the
    wedge: the coefficient of e_J in [e_a, e_b] ^ alpha e_K is the sum
    over the positions q of J of (-1)^q [e_a, e_b]_{J_q} times the minor
    of alpha on the rows J - J_q and the columns K; those minors are the
    wedges of the rows of alpha (alternating.tuple_wedges).  The
    brackets with an e_c coefficient are looked up by c, and the rows of
    J are shared by every u.  At arity 0 only the first
    sum is left, with alpha^{-1}: that is delta_0, and it needs an
    invertible alpha.
    """
    g, n, td = rep.algebra, arity, rep.dim
    tuples = list(_tuple_positions(g.dim, n))
    row_position = _tuple_positions(g.dim, n + 1)
    actor = g.alpha_power(n - 1)
    acting = [{} for _ in range(g.dim)]  # acting[i][u] = [(t, c), ...]
    for i in range(g.dim):
        for t, u, c in _action_entries(rep, actor.column(i)):
            acting[i].setdefault(u, []).append((t, c))
    landing = [[] for _ in range(g.dim)]  # c -> [(a, b, [e_a, e_b]_c)]
    for (a, b), bracket in (g.brackets_dict() if n else {}).items():
        for c, x in enumerate(bracket):
            if x:
                landing[c].append((a, b, x))
    # minors[J'][K] is the minor of alpha on the rows J', columns K.
    minors = dict(tuple_wedges(g.alpha.rows, n - 1)) if any(landing) else {}
    by_monomial = {}
    for k in wanted:
        by_monomial.setdefault(k // td, []).append(k % td)
    columns = {}
    for position, coefficients in by_monomial.items():
        monomial = tuples[position]
        found = {u: {} for u in coefficients}
        for i, entries_of in enumerate(acting):
            if entries_of and i not in monomial:
                at = bisect(monomial, i)
                base = row_position[monomial[:at] + (i,) + monomial[at:]] * td
                for u, entries in entries_of.items():
                    if u in found:
                        for t, c in entries:
                            found[u][base + t] = -c if at % 2 else c
        brackets = {}
        for q, c in enumerate(monomial):
            if not landing[c]:
                continue
            for kept, minor in minors[monomial[:q] + monomial[q + 1:]].items():
                for a, b, x in landing[c]:
                    if a not in kept and b not in kept:
                        # a < b land at positions p < p' of the row tuple.
                        p, p2 = bisect(kept, a), bisect(kept, b) + 1
                        row = row_position[tuple(sorted(kept + (a, b)))] * td
                        term = x * minor
                        brackets[row] = brackets.get(row, 0) + (
                            -term if (q + p + p2) % 2 else term)
        for u, column in found.items():
            for row, c in brackets.items():
                column[row + u] = column.get(row + u, 0) + c
            columns[position * td + u] = {
                row: c for row, c in column.items() if c} \
                if brackets else column
    return columns


def _apply_columns(columns: list, flat: dict) -> dict:
    """The image of a sparse flat ({coordinate: value} dict) under a
    sparse column map, as a {flat row: coefficient} dict of its nonzero
    entries.  Only the columns of the flat's entries are read."""
    if len(flat) == 1:  # a unit of a diagonal twist, say
        (k, x), = flat.items()
        return {row: c * x for row, c in columns[k].items()}
    out = {}
    for k, x in flat.items():
        for row, c in columns[k].items():
            out[row] = out.get(row, 0) + c * x
    return {row: c for row, c in out.items() if c}


def _coboundary_of_flat(rep: Representation, arity: int,
                        flat: dict) -> Cochain:
    image = _apply_columns(_coboundary_columns(rep, arity, flat), flat)
    return _unflatten(arity + 1, rep.algebra.dim, rep.dim, image)


def coboundary(rep: Representation, f: Cochain) -> Cochain:
    """The coboundary of f; arity-0 inputs route through delta_0."""
    if (f.source_dim, f.target_dim) != (rep.algebra.dim, rep.dim):
        raise ValueError("cochain does not live on this complex")
    if f.arity == 0:
        return zero_coboundary(rep, f.coeff(()))
    return _coboundary_of_flat(rep, f.arity, _flatten(f))


def coboundary_matrix(rep: Representation, arity: int) -> Matrix:
    """Matrix of the coboundary on full flat coordinates (arity >= 1)."""
    if arity < 1:
        raise ValueError("the matrix form starts at arity 1")
    nrows, ncols = _flat_size(rep, arity + 1), _flat_size(rep, arity)
    columns = _coboundary_columns(rep, arity, range(ncols))
    return Matrix.from_columns(
        [densify(columns[k], nrows) for k in range(ncols)], nrows=nrows)


@dataclass(frozen=True)
class CohomologyDims:
    arity: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int

    @property
    def dim_h(self) -> int:
        return self.dim_cocycles - self.dim_coboundaries


def coboundary_on_basis(rep: Representation, arity: int) -> tuple:
    """(compatible basis of the arity, delta image of each member).

    The basis members are the sparse flats of compatible_flats, and each
    image is a {flat row: coefficient} dict of its nonzero entries.
    delta_arity is assembled once, on the columns the flats' entries
    occupy, and applied to every basis flat; arity 0 is delta_0 and so
    needs an invertible source twist.
    """
    flats = compatible_flats(rep.algebra.alpha, rep.beta, arity)
    if not flats:
        return flats, []
    columns = _coboundary_columns(rep, arity, set().union(*flats))
    return flats, [_apply_columns(columns, f) for f in flats]


def restricted_rank(rep: Representation, arity: int) -> tuple:
    """(number of compatible basis cochains, rank of delta on them).

    Degree zero counts only for a regular representation; otherwise the
    complex starts at arity 1 and this returns (0, 0).
    """
    if arity == 0 and not rep.is_regular:
        return 0, 0
    basis, images = coboundary_on_basis(rep, arity)
    return len(basis), len(sparse_echelon(images))


def coboundary_solver(rep: Representation, arity: int) -> tuple:
    """(rank of delta_arity on the compatible basis, solve).

    solve(target) is the compatible arity-cochain X with
    delta X = target, or None when there is none.  Its coordinates on
    the basis come from linalg.sparse_solve on the transposed images, so
    every free coordinate is zero and X is canonical.  delta_arity is
    assembled and restricted once, however many targets are solved.
    """
    flats, images = coboundary_on_basis(rep, arity)
    rows = [{} for _ in range(_flat_size(rep, arity + 1))]
    for b, image in enumerate(images):
        for r, c in image.items():
            rows[r][b] = c
    shape = (arity + 1, rep.algebra.dim, rep.dim)

    def solve(target: Cochain) -> Cochain | None:
        if (target.arity, target.source_dim, target.target_dim) != shape:
            raise ValueError("target does not live on this complex")
        rhs = _flatten(target)
        coords = sparse_solve(rows, len(flats),
                              [rhs.get(r, 0) for r in range(len(rows))])
        if coords is None:
            return None
        return _unflatten(arity, rep.algebra.dim, rep.dim, _apply_columns(
            flats, {b: c for b, c in enumerate(coords) if c}))

    return len(sparse_echelon(images)), solve


def cohomology_dims(rep: Representation, arity: int) -> CohomologyDims:
    """Exact dimensions of cochains, cocycles, coboundaries and H^n.

    For a regular representation the complex is extended by the
    degree-zero piece, so coboundaries in degree one include the image
    of delta_0.
    For a non-regular one the complex starts at arity 1 and degree zero
    reports zeros.
    """
    if arity < 0:
        raise ValueError("negative arity")
    count, rank = restricted_rank(rep, arity)
    boundaries = restricted_rank(rep, arity - 1)[1] if arity > 0 else 0
    return CohomologyDims(arity, count, count - rank, boundaries)


def cohomology_table(rep: Representation, top: int) -> list:
    """cohomology_dims(rep, n) for n = 0, ..., top in one pass.

    The compatible basis and the restricted rank of each arity are
    computed once and shared by the rows n and n + 1 that need them.
    """
    if top < 0:
        raise ValueError("negative arity")
    table = []
    boundaries = 0
    for n in range(top + 1):
        count, rank = restricted_rank(rep, n)
        table.append(CohomologyDims(n, count, count - rank, boundaries))
        boundaries = rank
    return table
