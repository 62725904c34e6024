"""Shared test utilities: random rational data and independent oracles.

The oracles here deliberately avoid the package's Matrix and dataclass
machinery; they work on nested lists of Fractions so that agreement
between package verdicts and oracle verdicts is meaningful evidence.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from homlie.alternating import (
    increasing_tuples,
    sort_with_sign,
    wedge_coords,
)
from homlie.cochain import Cochain
from homlie.deformation import (
    FormalDeformationReport,
    LinearDeformationReport,
    TruncatedDeformation,
    formal_deformation_check,
    linear_deformation_check,
)
from homlie.graded import build_theta, horizontal_lift
from homlie.io import SchemaError
from homlie.ooperator import RotaBaxterReport
from homlie.reporting import Failure, Report, matrix_failures
from homlie.rmatrix import (
    graded_bracket_wedge,
    is_invariant,
    is_r_matrix,
    require_skew,
    wedge_coeffs,
)
from homlie.structures import (
    HomLieAlgebra,
    HomLieReport,
    Representation,
    RepresentationReport,
    coadjoint_rep,
    pair_list,
)
from homlie.linalg import (
    Matrix,
    Q,
    basis_vector,
    block_diag,
    densify,
    is_zero_vector,
    rref_kernel,
    scalar,
    sparse_rref,
    sparse_solve,
    vadd,
    vscale,
    vsub,
    vzero,
)

DENOMS = (1, 1, 1, 2, 3)


def exact_scalars(values) -> bool:
    """Whether every value is an int or a Fraction, and none is a bool or
    a float: the package's scalar contract."""
    return all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
               for x in values)


def shuffles(p: int, q: int):
    """(p, q)-shuffles of range(p + q) with signs.

    Yields (positions, sign) where positions is the full permutation
    (first block of length p increasing, then the complementary block,
    also increasing) and sign is its permutation sign.
    """
    universe = range(p + q)
    for first in combinations(universe, p):
        chosen = set(first)
        rest = tuple(i for i in universe if i not in chosen)
        perm = first + rest
        yield perm, sort_with_sign(perm)[1]


def rand_scalar(rng, lo=-2, hi=2) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMS))


def rand_vector(rng, n, lo=-2, hi=2) -> tuple:
    return tuple(rand_scalar(rng, lo, hi) for _ in range(n))


def rand_matrix(rng, nrows, ncols, lo=-2, hi=2) -> Matrix:
    return Matrix(tuple(rand_vector(rng, ncols, lo, hi)
                        for _ in range(nrows)), ncols=ncols)


def rand_invertible(rng, n, lo=-2, hi=2) -> Matrix:
    while True:
        m = rand_matrix(rng, n, n, lo, hi)
        if oracle_det(m) != 0:
            return m


def oracle_det(m):
    """Exact determinant by fraction-preserving elimination, on its own
    rows; the library computes no determinant."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    work = [list(row) for row in m.rows]
    result = Q(1)
    for col in range(n):
        found = None
        for r in range(col, n):
            if work[r][col] != 0:
                found = r
                break
        if found is None:
            return Q(0)
        if found != col:
            work[col], work[found] = work[found], work[col]
            result = -result
        pivot = work[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = Fraction(work[r][col]) / pivot
                work[r] = [
                    e - factor * p for e, p in zip(work[r], work[col])
                ]
    return result


def oracle_rref(m):
    """Dense Gauss-Jordan elimination of m, column by column with the
    first nonzero entry below the pivot row as pivot: (reduced rows as
    lists, pivot columns).  The library's elimination before it ran on
    sparse rows."""
    work = [list(row) for row in m.rows]
    pivots = []
    piv_row = 0
    for col in range(m.ncols):
        found = None
        for r in range(piv_row, len(work)):
            if work[r][col]:
                found = r
                break
        if found is None:
            continue
        if found != piv_row:
            work[piv_row], work[found] = work[found], work[piv_row]
        pivot = work[piv_row][col]
        if pivot != 1:
            work[piv_row] = [Fraction(e) / pivot if e else e
                             for e in work[piv_row]]
        for r in range(len(work)):
            if r != piv_row and work[r][col]:
                factor = work[r][col]
                work[r] = [
                    e - factor * p if p else e
                    for e, p in zip(work[r], work[piv_row])
                ]
        pivots.append(col)
        piv_row += 1
        if piv_row == len(work):
            break
    return work, tuple(pivots)


def oracle_sparse_rref(rows):
    """Gauss-Jordan elimination on sparse {column: scalar} rows, the
    library's eliminator before it went fraction-free: each incoming row
    is reduced against the pivot rows found so far, scaled by its pivot
    entry, and its pivot column is then cleared from them.  Returns the
    reduced row echelon form as {pivot column: row}."""
    reduced = {}
    for row in rows:
        row = {c: e for c, e in row.items() if e}
        for col in [c for c in row if c in reduced]:
            _oracle_clear(row, col, reduced[col])
        if row:
            pivot = min(row)
            lead = row[pivot]
            if lead != 1:
                row = {c: Fraction(e, lead) for c, e in row.items()}
            for other in reduced.values():
                if pivot in other:
                    _oracle_clear(other, pivot, row)
            reduced[pivot] = row
    return reduced


def _oracle_clear(row, col, pivot_row):
    """row -= row[col] * pivot_row in place, for pivot_row[col] == 1."""
    factor = row.pop(col)
    for c, e in pivot_row.items():
        if c != col:
            value = row.get(c, 0) - factor * e
            if value:
                row[c] = value
            else:
                del row[c]


def oracle_kernel_basis(m):
    """One kernel vector per free column of oracle_rref, with a 1 there."""
    work, pivots = oracle_rref(m)
    basis = []
    for f in range(m.ncols):
        if f not in pivots:
            v = [Q(0)] * m.ncols
            v[f] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -work[r][f]
            basis.append(tuple(v))
    return basis


def oracle_solve(m, b):
    """The solution of m x = b with free variables zero, or None."""
    augmented = Matrix(tuple(row + (Q(b[i]),) for i, row in enumerate(m.rows)),
                       ncols=m.ncols + 1)
    work, pivots = oracle_rref(augmented)
    if m.ncols in pivots:
        return None
    x = [Q(0)] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = work[r][m.ncols]
    return tuple(x)


def oracle_inverse(m):
    """The inverse from oracle_rref of [m | id]; ValueError if singular."""
    n = m.nrows
    augmented = Matrix(tuple(m.rows[i] + basis_vector(n, i) for i in range(n)),
                       ncols=2 * n)
    work, pivots = oracle_rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(tuple(tuple(row[n:]) for row in work), ncols=n)


# The input readers as io and linalg had them before a string was first
# read by one int() call and a matrix row by one map: every scalar
# string went through parse_scalar, and every entry of every row had its
# own try.


def oracle_parse_scalar(text):
    """Parse "p" or "p/q" with integer p, q and q > 0 after reduction."""
    if not isinstance(text, str):
        raise ValueError(f"rational expected as string, got {text!r}")
    body = text.strip()
    parts = body.split("/")
    if len(parts) == 1:
        num, den = parts[0], "1"
    elif len(parts) == 2:
        num, den = parts
    else:
        raise ValueError(f"malformed rational {text!r}")
    try:
        p, q = int(num), int(den)
        value = p if q == 1 else Fraction(p, q)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc
    return scalar(value)


def oracle_exact(value):
    """A JSON int or rational string as an exact scalar; ValueError
    without a location otherwise."""
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return oracle_parse_scalar(value)
    if isinstance(value, float):
        raise ValueError("floats are not exact; write the value as a string")
    raise ValueError(f"cannot read {value!r} as a scalar")


def oracle_vector(obj, where):
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of scalars")
    scalars = []
    for x in obj:
        try:
            scalars.append(oracle_exact(x))
        except ValueError as exc:
            raise SchemaError(f"{where}[{len(scalars)}]: {exc}") from None
    return tuple(scalars)


def oracle_matrix(obj, where):
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty list of rows")
    rows = [oracle_vector(row, f"{where}[{k}]") for k, row in enumerate(obj)]
    ncols = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != ncols:
            raise SchemaError(f"{where}: row {k} has a different length")
    return Matrix._trusted(tuple(rows), ncols)


# Dense entry points to the library's eliminator that no verb calls.


def rref(m):
    """The reduced row echelon form of m from linalg.sparse_rref, padded
    with zero rows, and the tuple of pivot columns."""
    reduced = sparse_rref(m._sparse_rows())
    pivots = tuple(sorted(reduced))
    rows = [tuple(reduced[p].get(j, 0) for j in range(m.ncols))
            for p in pivots]
    rows += [(0,) * m.ncols] * (m.nrows - len(pivots))
    return Matrix._trusted(tuple(rows), m.ncols), pivots


def kernel_basis(m):
    """The kernel basis of m from linalg.rref_kernel, one dense vector per
    free column."""
    return [densify(v, m.ncols)
            for v in rref_kernel(sparse_rref(m._sparse_rows()), m.ncols)]


def solve(m, b):
    """linalg.sparse_solve on the rows of m: one solution of m x = b with
    every free variable zero, or None."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side has the wrong length")
    return sparse_solve(m._sparse_rows(), m.ncols, b)


def cochain_from_values(arity, source_dim, target_dim, entries):
    """The Cochain of an {increasing tuple: vector} dict, with every entry
    coerced to an exact scalar."""
    return Cochain(arity, source_dim, target_dim,
                   {t: vscale(1, v) for t, v in entries.items()})


def patch_everywhere(monkeypatch, func, replacement) -> None:
    """Replace func wherever a loaded homlie module holds it."""
    for name, module in list(sys.modules.items()):
        if name == "homlie" or name.startswith("homlie."):
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, replacement)


def count_calls(monkeypatch, func) -> list:
    """Wrap func wherever a loaded homlie module holds it; the returned
    list receives the positional arguments of every call."""
    calls = []

    @functools.wraps(func)
    def recording(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    patch_everywhere(monkeypatch, func, recording)
    return calls


def record_cohomology_matrices(monkeypatch) -> list:
    """While homlie.cli runs cohomology_table, record one pair per Matrix
    built, through Matrix(...) or Matrix._trusted: (the size of the
    complex's larger twist, the shape)."""
    import homlie.cli as cli_module

    record, twists = [], []
    build, table = Matrix.__init__, cli_module.cohomology_table
    trusted = Matrix._trusted.__func__

    def note(matrix):
        if twists:
            record.append((twists[-1], matrix.shape))
        return matrix

    def recording_init(self, rows, ncols=None):
        build(self, rows, ncols)
        note(self)

    def recording_trusted(cls, rows, ncols):
        return note(trusted(cls, rows, ncols))

    def recording_table(rep, top):
        twists.append(max(rep.algebra.alpha.nrows, rep.beta.nrows))
        try:
            return table(rep, top)
        finally:
            twists.pop()

    monkeypatch.setattr(Matrix, "__init__", recording_init)
    monkeypatch.setattr(Matrix, "_trusted", classmethod(recording_trusted))
    monkeypatch.setattr(cli_module, "cohomology_table", recording_table)
    return record


def direct_sum(g1, g2):
    """The hom-Lie algebra g1 + g2 with [g1, g2] = 0 and the block twist."""
    shift = g1.dim
    brackets = {}
    for (i, j), value in g1.brackets_dict().items():
        brackets[(i, j)] = tuple(value) + vzero(g2.dim)
    for (i, j), value in g2.brackets_dict().items():
        brackets[(shift + i, shift + j)] = vzero(g1.dim) + tuple(value)
    return HomLieAlgebra.build(dim=g1.dim + g2.dim, brackets=brackets,
                               alpha=block_diag(g1.alpha, g2.alpha))


# ---------------------------------------------------------------------------
# Independent oracles on plain nested lists.
#
# A bracket table is a dict {(i, j): list-of-Fractions} for i < j; alpha
# and rho matrices are lists of rows; vectors are lists.


def _tbl_bracket(table, dim, i, j):
    if i == j:
        return [Fraction(0)] * dim
    if i < j:
        value = table.get((i, j))
        return list(value) if value is not None else [Fraction(0)] * dim
    value = table.get((j, i))
    if value is None:
        return [Fraction(0)] * dim
    return [-c for c in value]


def _mat_apply(rows, vec):
    return [sum((r * v for r, v in zip(row, vec)), Fraction(0)) for row in rows]


def _lin_bracket(table, dim, u, v):
    out = [Fraction(0)] * dim
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            for k, c in enumerate(_tbl_bracket(table, dim, i, j)):
                out[k] += a * b * c
    return out


def oracle_hom_lie(table, alpha_rows, dim):
    """(multiplicative_ok, jacobi_ok, failing_pairs, failing_triples)."""
    alpha_cols = [[row[i] for row in alpha_rows] for i in range(dim)]
    bad_pairs = []
    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = _mat_apply(alpha_rows, _tbl_bracket(table, dim, i, j))
            rhs = _lin_bracket(table, dim, alpha_cols[i], alpha_cols[j])
            if lhs != rhs:
                bad_pairs.append((i, j))
    bad_triples = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [Fraction(0)] * dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = _tbl_bracket(table, dim, b, c)
                    part = _lin_bracket(table, dim, alpha_cols[a], inner)
                    for p, val in enumerate(part):
                        total[p] += val
                if any(x != 0 for x in total):
                    bad_triples.append((i, j, k))
    return not bad_pairs, not bad_triples, bad_pairs, bad_triples


def oracle_representation(table, alpha_rows, dim, beta_rows, rho_list, vdim):
    """(axiom1_ok, axiom2_ok) for the two representation laws."""
    alpha_cols = [[row[i] for row in alpha_rows] for i in range(dim)]

    def rho_of(x):
        out = [[Fraction(0)] * vdim for _ in range(vdim)]
        for i, c in enumerate(x):
            if c == 0:
                continue
            for r in range(vdim):
                for s in range(vdim):
                    out[r][s] += c * rho_list[i][r][s]
        return out

    def mat_mul(a, b):
        return [[sum((a[r][t] * b[t][s] for t in range(vdim)), Fraction(0))
                 for s in range(vdim)] for r in range(vdim)]

    axiom1 = True
    for i in range(dim):
        lhs = mat_mul(rho_of(alpha_cols[i]), beta_rows)
        rhs = mat_mul(beta_rows, rho_list[i])
        if lhs != rhs:
            axiom1 = False
    axiom2 = True
    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = mat_mul(rho_of(_tbl_bracket(table, dim, i, j)), beta_rows)
            a = mat_mul(rho_of(alpha_cols[i]), rho_list[j])
            b = mat_mul(rho_of(alpha_cols[j]), rho_list[i])
            rhs = [[a[r][s] - b[r][s] for s in range(vdim)]
                   for r in range(vdim)]
            if lhs != rhs:
                axiom2 = False
    return axiom1, axiom2


def algebra_tables(g):
    """Extract plain-list tables from a HomLieAlgebra for the oracles."""
    table = {k: list(v) for k, v in g.brackets_dict().items()}
    alpha_rows = [list(row) for row in g.alpha.rows]
    return table, alpha_rows


def rep_tables(rep):
    beta_rows = [list(row) for row in rep.beta.rows]
    rho_list = [[list(row) for row in m.rows] for m in rep.rho]
    return beta_rows, rho_list


# ---------------------------------------------------------------------------
# Pointwise oracles for the cochain layer.
#
# These are the straightforward implementations the library used before
# its coboundary became a sparse once-per-arity assembly.  They expand
# every wedge through oracle_wedge_coords (one determinant per index set)
# and take kernels from oracle_rref, so they share no expansion, assembly
# or elimination code with the library.  The diagonal-twist shortcut the
# compatible basis once took is kept here as a second oracle.
#
# A Cochain keeps only its nonzero values; the oracles compute a value on
# every increasing tuple and compare dense flats, written out by
# dense_flat and read back by cochain_from_dense.


def cochain_on_tuples(arity, source_dim, target_dim, values):
    """The Cochain with one value per increasing tuple, in combinations
    order."""
    return cochain_from_values(arity, source_dim, target_dim, dict(zip(
        increasing_tuples(source_dim, arity), values, strict=True)))


def dense_flat(c) -> tuple:
    """The coefficient vectors of c on every increasing tuple, in
    combinations order, concatenated."""
    return tuple(x for t in increasing_tuples(c.source_dim, c.arity)
                 for x in c.coeff(t))


def cochain_from_dense(arity, source_dim, target_dim, flat):
    """The Cochain whose dense_flat is flat."""
    flat = tuple(flat)
    count = len(increasing_tuples(source_dim, arity))
    if len(flat) != count * target_dim:
        raise ValueError("flat vector has the wrong length")
    return cochain_on_tuples(arity, source_dim, target_dim, [
        flat[p * target_dim:(p + 1) * target_dim] for p in range(count)])


def oracle_wedge_coords(vectors, dim):
    """Coordinates of v1 ^ ... ^ vk on increasing basis tuples: the value
    at tuple I is the k x k minor of the argument coordinates in rows I
    (a Plucker coordinate).  Zero values are omitted."""
    k = len(vectors)
    coords = {}
    for index in combinations(range(dim), k):
        minor = Matrix(
            tuple(tuple(vectors[c][i] for c in range(k)) for i in index),
            ncols=k,
        )
        value = oracle_det(minor)
        if value != 0:
            coords[index] = value
    return coords


def oracle_evaluate_dense(flat, source_dim, target_dim, vectors):
    """The cochain with dense_flat flat on arbitrary vectors: the sum over
    increasing tuples I of the minor of the arguments in rows I times
    the value on I."""
    minors = oracle_wedge_coords(vectors, source_dim)
    out = [Q(0)] * target_dim
    tuples = combinations(range(source_dim), len(vectors))
    for p, indices in enumerate(tuples):
        minor = minors.get(indices, Q(0))
        for t in range(target_dim):
            out[t] += minor * flat[p * target_dim + t]
    return tuple(out)


def _oracle_evaluate(f, vectors):
    """f on arbitrary vectors, expanded through oracle_wedge_coords."""
    out = vzero(f.target_dim)
    for indices, minor in oracle_wedge_coords(vectors, f.source_dim).items():
        out = vadd(out, vscale(minor, f.coeff(indices)))
    return out


def oracle_coboundary(rep, f):
    """delta f (arity >= 1) by evaluating the defining formula pointwise."""
    g = rep.algebra
    n = f.arity
    alpha_nm1 = g.alpha_power(n - 1)
    alpha_cols = [g.alpha.column(i) for i in range(g.dim)]
    values = []
    for indices in increasing_tuples(g.dim, n + 1):
        total = vzero(rep.dim)
        for pos in range(n + 1):
            rest = indices[:pos] + indices[pos + 1:]
            inner = f.coeff(rest)
            if is_zero_vector(inner):
                continue
            actor = alpha_nm1.column(indices[pos])
            term = rep.act(actor, inner)
            total = vadd(total, term if pos % 2 == 0 else vscale(-1, term))
        for pi in range(n + 1):
            for pj in range(pi + 1, n + 1):
                bracket = g.bracket_basis(indices[pi], indices[pj])
                if is_zero_vector(bracket):
                    continue
                args = [bracket] + [
                    alpha_cols[indices[k]]
                    for k in range(n + 1) if k != pi and k != pj
                ]
                term = _oracle_evaluate(f, args)
                total = vadd(total,
                             term if (pi + pj) % 2 == 0 else vscale(-1, term))
        values.append(total)
    return cochain_on_tuples(n + 1, g.dim, rep.dim, values)


def oracle_coboundary_matrix(rep, arity):
    """delta_arity column by column: the oracle image of each unit cochain."""
    sd, td = rep.algebra.dim, rep.dim
    ncols = len(increasing_tuples(sd, arity)) * td
    nrows = len(increasing_tuples(sd, arity + 1)) * td
    columns = []
    for k in range(ncols):
        unit = cochain_from_dense(arity, sd, td, basis_vector(ncols, k))
        columns.append(dense_flat(oracle_coboundary(rep, unit)))
    return Matrix.from_columns(columns, nrows=nrows)


def oracle_compatible_maps_basis(sigma, tau, arity):
    """Kernel basis of f(sigma e_I) = tau(f(e_I)) over flat coordinates."""
    sd, td = sigma.nrows, tau.nrows
    tuples = increasing_tuples(sd, arity)
    if not tuples:
        return []
    columns_of_sigma = [sigma.column(i) for i in range(sd)]
    nflat = len(tuples) * td
    rows = []
    for p, indices in enumerate(tuples):
        minors = oracle_wedge_coords(
            [columns_of_sigma[i] for i in indices], sd)
        for t in range(td):
            row = [Q(0)] * nflat
            for q, other in enumerate(tuples):
                minor = minors.get(other)
                if minor:
                    row[q * td + t] += minor
            for u in range(td):
                row[p * td + u] -= tau.entry(t, u)
            rows.append(tuple(row))
    kernel = oracle_kernel_basis(Matrix(tuple(rows), ncols=nflat))
    return [cochain_from_dense(arity, sd, td, v) for v in kernel]


def oracle_diagonal_compatible_basis(sigma, tau, arity):
    """The compatible basis for diagonal twists, read off directly: the
    unit cochains e_I (x) v_t with prod_{i in I} sigma_ii = tau_tt, in
    flat order."""
    for m in (sigma, tau):
        if any(m.entry(i, j) for i in range(m.nrows)
               for j in range(m.ncols) if i != j):
            raise ValueError("the twists must be diagonal")
    sd, td = sigma.nrows, tau.nrows
    basis = []
    for indices in increasing_tuples(sd, arity):
        weight = prod((sigma.entry(i, i) for i in indices), start=Q(1))
        for t in range(td):
            if weight == tau.entry(t, t):
                basis.append(cochain_from_values(
                    arity, sd, td, {indices: basis_vector(td, t)}))
    return basis


# ---------------------------------------------------------------------------
# Oracles for the graded, deformation and r-matrix layers.
#
# The derived bracket as the library first computed it: two complete
# Nijenhuis-Richardson brackets on every tuple of g + V, from a circle
# product of their own, then the module tuples read back.  Theta from
# all pairs i + j = order + 1, one derived bracket each.  The extension
# system with one derived bracket {{T, b}} per compatible basis map b,
# instead of -delta_1 of the operator complex.  And the invariant wedge
# basis as a kernel of Lambda^k(alpha) - id whose entries are
# determinants, instead of the compatible-map solver.


def evaluate_basis(f, indices):
    """The value of the cochain f on basis vectors in any order, with the
    alternating sign."""
    sorted_sign = sort_with_sign(tuple(indices))
    if sorted_sign is None:
        return vzero(f.target_dim)
    ordered, sign = sorted_sign
    value = f.coeff(ordered)
    return value if sign == 1 else vscale(sign, value)


def oracle_circle_product(phi, psi, twist):
    dim = twist.nrows
    a, b = phi.arity, psi.arity
    twist_power = twist.power(b - 1)
    values = []
    for indices in increasing_tuples(dim, a + b - 1):
        total = vzero(dim)
        for perm, sign in shuffles(b, a - 1):
            inner = evaluate_basis(psi, tuple(indices[p] for p in perm[:b]))
            if is_zero_vector(inner):
                continue
            args = [inner] + [twist_power.column(indices[p])
                              for p in perm[b:]]
            total = vadd(total, vscale(sign, phi.evaluate(args)))
        values.append(total)
    return cochain_on_tuples(a + b - 1, dim, dim, values)


def oracle_nr_bracket(phi, psi, twist):
    left = oracle_circle_product(phi, psi, twist)
    if (phi.arity - 1) * (psi.arity - 1) % 2 == 1:
        left = -left
    return left - oracle_circle_product(psi, phi, twist)


def oracle_derived_bracket(rep, p, q):
    """(-1)^n [[theta, lift(P)], lift(Q)] on all of g + V, restricted."""
    g = rep.algebra
    twist = block_diag(g.alpha, rep.beta)
    inner = oracle_nr_bracket(build_theta(rep), horizontal_lift(p, g.dim),
                               twist)
    outer = oracle_nr_bracket(inner, horizontal_lift(q, g.dim), twist)
    values = []
    for indices in increasing_tuples(rep.dim, p.arity + q.arity):
        value = outer.coeff(tuple(g.dim + a for a in indices))
        if not is_zero_vector(value[g.dim:]):
            raise ValueError("derived bracket left the operator complex")
        values.append(value[:g.dim])
    result = cochain_on_tuples(p.arity + q.arity, rep.dim, g.dim, values)
    return -result if p.arity % 2 == 1 else result


# The derived bracket in degree zero, which no verb reaches.  A
# degree-zero element x of g (fixed by alpha) pairs with an n-cochain P
# through
#
#     {{P, x}}(v_1, ..., v_n)
#         = sum over (1, n-1)-shuffles tau of sign(tau) *
#           P({x, beta^{-1} v_{tau(1)}}, v_{tau(2)}, ..., v_{tau(n)})
#         + [alpha^{-1} P(v_1, ..., v_n), alpha^{n-1} x]
#
# and two degree-zero elements through {{x, y}} = [x, y].  The tests
# compare it with the degree-zero coboundary of the operator complex.


def derived_bracket_zero(rep, p, x):
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


def oracle_inner_actions(rep, coeffs, a, b):
    """{T e_a, e_b} - {T e_b, e_a} for each T in coeffs, by dense act."""
    ea, eb = basis_vector(rep.dim, a), basis_vector(rep.dim, b)
    return [vsub(rep.act(t.column(a), eb), rep.act(t.column(b), ea))
            for t in coeffs]


def oracle_deformed_identity(g, rep, coeffs, k, a, b):
    """(lhs, rhs) of the order-k deformed O-operator identity at (e_a, e_b)
    by dense bracket, act and apply, one pair at a time:

        lhs = sum_{i+j=k} [T_i e_a, T_j e_b],
        rhs = sum_{i+j=k} T_i({T_j e_a, e_b} - {T_j e_b, e_a}),

    with the coefficients past the end of coeffs zero."""
    inner = oracle_inner_actions(rep, coeffs[:k + 1], a, b)
    lhs = rhs = vzero(g.dim)
    low = max(0, k + 1 - len(coeffs))
    for i in range(low, k + 1 - low):
        ti, tj = coeffs[i], coeffs[k - i]
        lhs = vadd(lhs, g.bracket(ti.column(a), tj.column(b)))
        rhs = vadd(rhs, ti.apply(inner[k - i]))
    return lhs, rhs


# The Rota-Baxter identity, the descendent bracket and the dual bracket
# of an r-matrix as they were evaluated before each went through the
# O-operator code: dense bracket, act and apply, one basis pair at a time.


def oracle_rota_baxter(g, r, s=0, weight=0):
    """is_rota_baxter by dense brackets: the failures of R alpha = alpha R
    and of [R e_i, R e_j] = R([alpha^s R e_i, e_j] + [e_i, alpha^s R e_j]
    + lambda [e_i, e_j]), in pair_list order."""
    weight = scalar(weight)
    failures = matrix_failures("twist_commute", (),
                               r @ g.alpha, g.alpha @ r)
    alpha_s = g.alpha_power(s)
    for (i, j) in pair_list(g.dim):
        ri, rj = r.column(i), r.column(j)
        lhs = g.bracket(ri, rj)
        inside = vadd(
            vadd(g.bracket(alpha_s.apply(ri), basis_vector(g.dim, j)),
                 g.bracket(basis_vector(g.dim, i), alpha_s.apply(rj))),
            vscale(weight, g.bracket_basis(i, j)),
        )
        rhs = r.apply(inside)
        if lhs != rhs:
            failures.append(Failure("rota_baxter_identity", (i, j), lhs, rhs))
    return RotaBaxterReport(tuple(failures))


def oracle_rb_induced_bracket(g, r, s=0):
    """[x, y]_R = [alpha^s R(x), y] + [x, alpha^s R(y)] by dense brackets."""
    alpha_s = g.alpha_power(s)
    brackets = {}
    for (i, j) in pair_list(g.dim):
        value = vadd(
            g.bracket(alpha_s.apply(r.column(i)), basis_vector(g.dim, j)),
            g.bracket(basis_vector(g.dim, i), alpha_s.apply(r.column(j))),
        )
        if not is_zero_vector(value):
            brackets[(i, j)] = value
    return HomLieAlgebra.build(dim=g.dim, brackets=brackets,
                               alpha=g.alpha, basis=g.basis)


def oracle_dual_bracket(g, r):
    """[xi, eta]_r = {r#(xi), eta} - {r#(eta), xi} by dense coadjoint
    act, with twist (alpha^{-1})^T; r must be an r-matrix."""
    coadj = coadjoint_rep(g)
    brackets = {}
    for (a, b) in pair_list(g.dim):
        value = vsub(coadj.act(r.column(a), basis_vector(g.dim, b)),
                     coadj.act(r.column(b), basis_vector(g.dim, a)))
        if not is_zero_vector(value):
            brackets[(a, b)] = value
    return HomLieAlgebra.build(dim=g.dim, brackets=brackets,
                               alpha=g.alpha.inverse().transpose(),
                               basis=coadj.basis)


def oracle_obstruction(g, rep, d):
    """Theta = -1/2 sum over all i + j = order + 1, i, j >= 1."""
    k = d.order + 1
    total = Cochain.zero(2, rep.dim, g.dim)
    for i in range(1, k):
        total = total + oracle_derived_bracket(
            rep, Cochain.from_linear_map(d.coefficient(i)),
            Cochain.from_linear_map(d.coefficient(k - i)))
    return total.scale(Q(-1, 2))


def oracle_extend_order(g, rep, d):
    """(next coefficient or None, dim_image, obstructed) of one extension
    step, with the system assembled from derived brackets."""
    from homlie.cochain import compatible_maps_basis
    from homlie.ooperator import rho_t

    theta = oracle_obstruction(g, rep, d)
    rep_t = rho_t(g, rep, d.base)
    basis = compatible_maps_basis(rep_t.algebra.alpha, rep_t.beta, 1)
    t_cochain = Cochain.from_linear_map(d.base)
    flat_len = len(dense_flat(theta))
    columns = [dense_flat(oracle_derived_bracket(rep, t_cochain, b))
               for b in basis]
    system = Matrix.from_columns(columns, nrows=flat_len)
    coords = oracle_solve(system, dense_flat(theta))
    dim_image = len(oracle_rref(system)[1])
    if coords is None:
        return None, dim_image, True
    solution = Cochain.zero(1, rep.dim, g.dim)
    for c, b in zip(coords, basis):
        if c != 0:
            solution = solution + b.scale(c)
    return solution.as_matrix(), dim_image, False


def oracle_invariant_wedge_basis(g, grade):
    """Kernel basis of Lambda^grade(alpha) - id, entries by determinants,
    as sparse {increasing tuple: coefficient} dicts."""
    tuples = increasing_tuples(g.dim, grade)
    if not tuples:
        return []
    alpha_cols = [g.alpha.column(i) for i in range(g.dim)]
    size = len(tuples)
    rows = [[Q(0)] * size for _ in range(size)]
    for col, indices in enumerate(tuples):
        minors = oracle_wedge_coords([alpha_cols[i] for i in indices], g.dim)
        for row, other in enumerate(tuples):
            value = minors.get(other, Q(0))
            rows[row][col] = value - (Q(1) if row == col else Q(0))
    kernel = oracle_kernel_basis(Matrix(tuple(tuple(r) for r in rows),
                                        ncols=size))
    return [{tuples[p]: c for p, c in enumerate(v) if c != 0} for v in kernel]


# ---------------------------------------------------------------------------
# Dense kernels: linalg's @, apply, vadd, vsub and vscale as they were
# before they skipped zero operands.  Every product and every sum is
# formed, zeros included.


def oracle_matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = []
    for row in a.rows:
        out.append(
            tuple(
                sum((row[k] * b.rows[k][j] for k in range(a.ncols)), Q(0))
                for j in range(b.ncols)
            )
        )
    return Matrix(tuple(out), ncols=b.ncols)


def oracle_apply(m, v):
    if len(v) != m.ncols:
        raise ValueError(f"shape mismatch {m.shape} applied to len {len(v)}")
    return tuple(
        sum((row[k] * v[k] for k in range(m.ncols)), Q(0)) for row in m.rows
    )


def oracle_vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def oracle_vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def oracle_vscale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


# ---------------------------------------------------------------------------
# Dense bilinear products and the 12-term Yang-Baxter loop, as they were
# before the structure objects read sparse tables of structure constants.
# The brackets come from _tbl_bracket on algebra_tables, the twist from
# _mat_apply on its rows, so nothing here reads a sparse table.


def oracle_bilinear(u, v, value, dim):
    """sum over i, j of u_i v_j value(i, j) for a dense callable value."""
    out = [Fraction(0)] * dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            for k, c in enumerate(value(i, j)):
                out[k] += a * b * c
    return tuple(out)


def _tensor3_accumulate(store, u, v, w, sign):
    for a, ca in enumerate(u):
        if not ca:
            continue
        for b, cb in enumerate(v):
            if not cb:
                continue
            for c, cc in enumerate(w):
                if not cc:
                    continue
                key = (a, b, c)
                store[key] = store.get(key, Q(0)) + sign * ca * cb * cc


def oracle_cybe_sum(g, r):
    """(part_12_13, part_12_23, part_13_23, total) of the Yang-Baxter sum:
    r = sum q (e_a (x) e_b - e_b (x) e_a) term by term, 12 dense brackets
    and tensor triple loops per pair of terms."""
    table, alpha_rows = algebra_tables(g)
    dim = g.dim

    def bracket(u, v):
        return oracle_bilinear(
            u, v, lambda i, j: _tbl_bracket(table, dim, i, j), dim)

    def unit(i, q=1):
        return [Fraction(q) if k == i else Fraction(0) for k in range(dim)]

    terms = [(unit(a, r.entry(a, b)), unit(b))
             for a in range(dim) for b in range(a + 1, dim) if r.entry(a, b)]
    twisted = [(_mat_apply(alpha_rows, x), _mat_apply(alpha_rows, y))
               for x, y in terms]
    p1, p2, p3 = {}, {}, {}
    for (xi, yi), (txi, tyi) in zip(terms, twisted):
        for (xj, yj), (txj, tyj) in zip(terms, twisted):
            _tensor3_accumulate(p1, bracket(xi, xj), tyi, tyj, 1)
            _tensor3_accumulate(p1, bracket(xi, yj), tyi, txj, -1)
            _tensor3_accumulate(p1, bracket(yi, xj), txi, tyj, -1)
            _tensor3_accumulate(p1, bracket(yi, yj), txi, txj, 1)
            _tensor3_accumulate(p2, txi, bracket(yi, xj), tyj, 1)
            _tensor3_accumulate(p2, txi, bracket(yi, yj), txj, -1)
            _tensor3_accumulate(p2, tyi, bracket(xi, xj), tyj, -1)
            _tensor3_accumulate(p2, tyi, bracket(xi, yj), txj, 1)
            _tensor3_accumulate(p3, txi, txj, bracket(yi, yj), 1)
            _tensor3_accumulate(p3, txi, tyj, bracket(yi, xj), -1)
            _tensor3_accumulate(p3, tyi, txj, bracket(xi, yj), -1)
            _tensor3_accumulate(p3, tyi, tyj, bracket(xi, xj), 1)
    total = {}
    for part in (p1, p2, p3):
        for key, q in part.items():
            total[key] = total.get(key, Q(0)) + q
    return tuple(tuple(sorted((k, q) for k, q in part.items() if q != 0))
                 for part in (p1, p2, p3, total))


# graded_bracket_wedge as it was before it walked the structure
# constants in ints: one wedge_coords of the dense bracket and alpha
# columns per pair of positions, in the coefficients' own Fractions.


def oracle_graded_bracket_wedge(g, u, grade_u, v, grade_v):
    alpha_cols = [g.alpha.column(i) for i in range(g.dim)]
    out = {}
    for iu, cu in u.items():
        assert len(iu) == grade_u
        for iv, cv in v.items():
            assert len(iv) == grade_v
            for pi in range(grade_u):
                for pj in range(grade_v):
                    bracket = g.bracket_basis(iu[pi], iv[pj])
                    if is_zero_vector(bracket):
                        continue
                    sign = -1 if (pi + pj) % 2 == 1 else 1
                    vectors = [bracket]
                    vectors += [alpha_cols[iu[k]]
                                for k in range(grade_u) if k != pi]
                    vectors += [alpha_cols[iv[k]]
                                for k in range(grade_v) if k != pj]
                    for indices, minor in wedge_coords(vectors, g.dim).items():
                        out[indices] = (out.get(indices, 0)
                                        + cu * cv * sign * minor)
    return {indices: c for indices, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# The structure checks, the dual and the action entries of delta as they
# were before they read the sparse tables column by column: one dense
# action matrix (rho_of) per basis vector or pair, compared through
# matrix products, and alpha applied to basis vectors.  The library's
# versions must return exactly what these do, failure order included.


def oracle_verify_hom_lie(g):
    failures = []
    for (i, j) in pair_list(g.dim):
        lhs = g.alpha.apply(g.bracket_basis(i, j))
        rhs = g.bracket(g.alpha.apply(basis_vector(g.dim, i)),
                        g.alpha.apply(basis_vector(g.dim, j)))
        if lhs != rhs:
            failures.append(Failure("multiplicativity", (i, j), lhs, rhs))
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                defect = vadd(
                    vadd(
                        g.bracket(g.alpha.apply(basis_vector(g.dim, i)),
                                  g.bracket_basis(j, k)),
                        g.bracket(g.alpha.apply(basis_vector(g.dim, j)),
                                  g.bracket_basis(k, i)),
                    ),
                    g.bracket(g.alpha.apply(basis_vector(g.dim, k)),
                              g.bracket_basis(i, j)),
                )
                if not is_zero_vector(defect):
                    failures.append(
                        Failure("hom_jacobi", (i, j, k), defect, vzero(g.dim))
                    )
    return HomLieReport(tuple(failures), regular=g.is_regular)


def oracle_verify_representation(rep):
    g = rep.algebra
    failures = []
    for i in range(g.dim):
        lhs = rep.rho_of(g.alpha.apply(basis_vector(g.dim, i))) @ rep.beta
        rhs = rep.beta @ rep.rho[i]
        failures += matrix_failures("twist_intertwine", (i,), lhs, rhs)
    for (i, j) in pair_list(g.dim):
        lhs = rep.rho_of(g.bracket_basis(i, j)) @ rep.beta
        ai = rep.rho_of(g.alpha.apply(basis_vector(g.dim, i)))
        aj = rep.rho_of(g.alpha.apply(basis_vector(g.dim, j)))
        rhs = ai @ rep.rho[j] - aj @ rep.rho[i]
        failures += matrix_failures("module_equation", (i, j), lhs, rhs)
    return RepresentationReport(tuple(failures))


def oracle_adjoint_rep(g, s=0):
    """adjoint_rep as it was before it read the structure constants:
    dense brackets [alpha^s e_i, e_j] as the columns of each rho(e_i)."""
    alpha_s = g.alpha_power(s)
    rho = tuple(
        Matrix.from_columns([g.bracket(alpha_s.column(i), basis_vector(g.dim, j))
                             for j in range(g.dim)], nrows=g.dim)
        for i in range(g.dim))
    return Representation(algebra=g, dim=g.dim, basis=g.basis,
                          beta=g.alpha, rho=rho)


def oracle_dual_rep(rep):
    g = rep.algebra
    inverses = []
    for twist, name in ((g.alpha, "alpha"), (rep.beta, "beta")):
        try:
            inverses.append(oracle_inverse(twist))
        except ValueError:
            raise ValueError(
                f"dual representation needs an invertible {name}") from None
    alpha_inv, beta_inv = inverses
    beta_minus2 = beta_inv @ beta_inv
    rho_star = tuple(
        (-(rep.rho_of(alpha_inv.apply(basis_vector(g.dim, i))) @ beta_minus2))
        .transpose()
        for i in range(g.dim)
    )
    return Representation(
        algebra=g,
        dim=rep.dim,
        basis=tuple(f"{name}*" for name in rep.basis),
        beta=beta_inv.transpose(),
        rho=rho_star,
    )


def oracle_action_entries(rep, x):
    """The nonzero entries (t, u, c) of the matrix rho_of(x), row by row."""
    m = rep.rho_of(x)
    return [(t, u, c) for t in range(rep.dim)
            for u, c in enumerate(m.row(t)) if c != 0]


# ---------------------------------------------------------------------------
# The sparse assembly of the cochain layer before it moved to integers:
# the compatible system in Fractions, one wedge expansion of the twist's
# columns per index tuple, and delta's bracket term from every pair of
# every (n + 1)-tuple, one wedge expansion per pair with a nonzero
# bracket.


def oracle_compatible_flats(sigma, tau, arity):
    """compatible_flats as it was assembled in Fractions, tuple by tuple."""
    sd, td = sigma.nrows, tau.nrows
    tuples = increasing_tuples(sd, arity)
    position = {t: p for p, t in enumerate(tuples)}
    columns_of_sigma = [sigma.column(i) for i in range(sd)]
    rows = []
    for p, indices in enumerate(tuples):
        minors = wedge_coords([columns_of_sigma[i] for i in indices], sd)
        for t in range(td):
            row = {p * td + u: -c for u, c in enumerate(tau.row(t)) if c}
            for other, minor in minors.items():
                k = position[other] * td + t
                row[k] = row.get(k, 0) + minor
            rows.append(row)
    return rref_kernel(sparse_rref(rows), len(tuples) * td)


def oracle_coboundary_columns(rep, arity):
    """delta_arity's sparse columns, its bracket term summed over every
    pair of every (n + 1)-tuple."""
    g, n, td = rep.algebra, arity, rep.dim
    col_position = {t: p for p, t in enumerate(increasing_tuples(g.dim, n))}
    actor = g.alpha_power(n - 1)
    acting = [oracle_action_entries(rep, actor.column(i))
              for i in range(g.dim)]
    alpha_columns = [g.alpha.column(k) for k in range(g.dim)]
    columns = [{} for _ in range(len(col_position) * td)]

    def emit(row, col, c):
        column = columns[col]
        column[row] = column.get(row, 0) + c

    for r, indices in enumerate(increasing_tuples(g.dim, n + 1)):
        base = r * td
        for pos, i in enumerate(indices):
            rest = col_position[indices[:pos] + indices[pos + 1:]] * td
            sign = 1 if pos % 2 == 0 else -1
            for t, u, c in acting[i]:
                emit(base + t, rest + u, sign * c)
        for p, q in combinations(range(n + 1), 2):
            bracket = g.bracket_basis(indices[p], indices[q])
            if is_zero_vector(bracket):
                continue
            sign = 1 if (p + q) % 2 == 0 else -1
            args = [bracket] + [alpha_columns[k]
                                for pos, k in enumerate(indices)
                                if pos != p and pos != q]
            for monomial, c in wedge_coords(args, g.dim).items():
                col = col_position[monomial] * td
                for t in range(td):
                    emit(base + t, col + t, sign * c)
    return [{row: c for row, c in column.items() if c != 0}
            for column in columns]


@dataclass(frozen=True)
class ConditionResult(Report):
    """One homomorphism condition at one polynomial degree."""

    condition: str
    degree: int


def _oracle_coeff(terms: list, k: int, shape: tuple) -> Matrix:
    if 0 <= k < len(terms):
        return terms[k]
    return Matrix.zero(*shape)


def oracle_hom_conditions(g, rep, from_terms, to_terms, phi_g_terms,
                          phi_v_terms, up_to) -> tuple:
    """The degree-wise O-operator homomorphism conditions as one
    ConditionResult per condition and degree, in certificate order:
    operator_intertwine, bracket_homomorphism, action_equivariance and
    twist_commute (both twist laws), each at degrees 0..up_to."""
    results = []
    op_shape = from_terms[0].shape
    g_shape = (g.dim, g.dim)
    v_shape = (rep.dim, rep.dim)
    for k in range(up_to + 1):
        lhs = Matrix.zero(*op_shape)
        rhs = Matrix.zero(*op_shape)
        for i in range(k + 1):
            lhs = lhs + _oracle_coeff(phi_g_terms, i, g_shape) @ _oracle_coeff(
                from_terms, k - i, op_shape)
            rhs = rhs + _oracle_coeff(to_terms, i, op_shape) @ _oracle_coeff(
                phi_v_terms, k - i, v_shape)
        results.append(ConditionResult(tuple(matrix_failures(
            "operator_intertwine", (k,), lhs, rhs)), "operator_intertwine", k))
    for k in range(up_to + 1):
        failures = []
        phi_k = _oracle_coeff(phi_g_terms, k, g_shape)
        for (i, j) in pair_list(g.dim):
            lhs = phi_k.apply(g.bracket_basis(i, j))
            rhs = vzero(g.dim)
            for a in range(k + 1):
                rhs = vadd(rhs, g.bracket(
                    _oracle_coeff(phi_g_terms, a, g_shape).column(i),
                    _oracle_coeff(phi_g_terms, k - a, g_shape).column(j)))
            if lhs != rhs:
                failures.append(Failure("bracket_homomorphism", (k, i, j),
                                        lhs, rhs))
        results.append(ConditionResult(tuple(failures),
                                       "bracket_homomorphism", k))
    for k in range(up_to + 1):
        failures = []
        phi_v_k = _oracle_coeff(phi_v_terms, k, v_shape)
        for j in range(g.dim):
            lhs = Matrix.zero(*v_shape)
            for a in range(k + 1):
                lhs = lhs + rep.rho_of(
                    _oracle_coeff(phi_g_terms, a, g_shape).column(j)
                ) @ _oracle_coeff(phi_v_terms, k - a, v_shape)
            rhs = phi_v_k @ rep.rho[j]
            failures.extend(matrix_failures("action_equivariance", (k, j),
                                            lhs, rhs))
        results.append(ConditionResult(tuple(failures),
                                       "action_equivariance", k))
    for k in range(up_to + 1):
        failures = []
        phi_k = _oracle_coeff(phi_g_terms, k, g_shape)
        phi_v_k = _oracle_coeff(phi_v_terms, k, v_shape)
        failures.extend(matrix_failures("twist_commute_algebra", (k,),
                                        phi_k @ g.alpha, g.alpha @ phi_k))
        failures.extend(matrix_failures("twist_commute_module", (k,),
                                        phi_v_k @ rep.beta,
                                        rep.beta @ phi_v_k))
        results.append(ConditionResult(tuple(failures), "twist_commute", k))
    return tuple(results)


@dataclass(frozen=True)
class OracleTransferReport:
    """Both routes of a deformation transfer, with stored verdicts."""

    mode: str
    operator_valid: bool
    wedge_per_order: tuple
    operator_linear: LinearDeformationReport | None = None
    operator_formal: FormalDeformationReport | None = None

    @property
    def wedge_valid(self) -> bool:
        return all(zero for _, zero in self.wedge_per_order)

    @property
    def routes_agree(self) -> bool:
        return self.operator_valid == self.wedge_valid

    @property
    def ok(self) -> bool:
        return self.operator_valid and self.wedge_valid


def oracle_deformation_transfer(g, r, terms, mode: str = "auto"
                                ) -> OracleTransferReport:
    """A deformation of r checked along both routes, with a mode:
    "linear" needs one generator and checks the full polynomial identity
    at t^0, t^1, t^2; "truncated" checks the orders up to the number of
    terms; "auto" is linear for one term and truncated otherwise."""
    terms = list(terms)
    report = is_r_matrix(g, r)
    if not report.verdict:
        raise ValueError("the base two-tensor is not an r-matrix")
    for k, tau in enumerate(terms):
        if tau.shape != (g.dim, g.dim):
            raise ValueError("deformation term does not live on this algebra")
        require_skew(tau)
        if not is_invariant(g, tau):
            raise ValueError(f"deformation term {k + 1} is not invariant")
    if mode == "auto":
        mode = "linear" if len(terms) == 1 else "truncated"
    if mode not in ("linear", "truncated"):
        raise ValueError(f"unknown transfer mode {mode!r}")
    linear = mode == "linear"
    if linear and len(terms) != 1:
        raise ValueError("linear mode needs exactly one generator")
    coadj = report.coadjoint
    operator_linear = operator_formal = None
    if linear:
        operator_linear = linear_deformation_check(g, coadj, r, terms[0])
        operator_valid = operator_linear.valid
    else:
        operator_formal = formal_deformation_check(
            g, coadj, TruncatedDeformation.of(r, terms))
        operator_valid = operator_formal.ok
    coeffs = [wedge_coeffs(t) for t in (r, *terms)]
    top = 2 if linear else len(terms)
    wedge_orders = []
    for k in range(top + 1):
        total = {}
        for i in range(max(0, k - len(terms)), min(k, len(terms)) + 1):
            part = graded_bracket_wedge(g, coeffs[i], 2, coeffs[k - i], 2)
            for key, q in part.items():
                total[key] = total.get(key, 0) + q
        wedge_orders.append((k, not any(q != 0 for q in total.values())))
    return OracleTransferReport(
        mode=mode,
        operator_valid=operator_valid,
        wedge_per_order=tuple(wedge_orders),
        operator_linear=operator_linear,
        operator_formal=operator_formal,
    )
