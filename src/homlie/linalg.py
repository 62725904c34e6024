"""Exact linear algebra over the rationals.

Every scalar in this package is an exact rational: a Python int when
the value is integral and a fractions.Fraction otherwise, never a float
or a bool.  scalar() is the one coercion: it refuses floats and bools
and turns an integral Fraction into its int, so integral data runs in
int arithmetic and a Fraction appears only where a division makes one.
It runs where scalars enter (Matrix(...), matrix, diagonal,
from_columns, vscale's factor); rows the kernels build from checked
scalars become a Matrix through the unchecked Matrix._trusted.  A vector
is a tuple of scalars and a matrix is an immutable Matrix wrapping a
tuple of row tuples.

One eliminator serves every rank, kernel, solve and inverse, in two
stages on sparse rows ({column: value} dicts).  sparse_echelon is
fraction-free forward elimination: each row is scaled to coprime ints
and reduced by a * row - b * pivot_row, then divided by its content.
It takes the rows shortest first (a stable sort on their nonzero
count), so that short pivot rows reduce the long ones and little fill
appears; the pivot columns, the rank and the reduced form do not depend
on the order.  Its length is the rank, so ranks (Matrix.rank,
is_invertible, which a Matrix decides once, and the cochain layer's)
read the echelon alone.  sparse_rref back-substitutes
from the last pivot up, still in ints, and returns the reduced row
echelon form.  The one division in the package that can make a
Fraction is its final scaling of each row by its pivot entry.  The
reduced form is unique whatever order the rows come in, so kernel bases
(rref_kernel), solutions with free variables zero (sparse_solve) and
inverses are functions of the row space alone.  rref_kernel returns each
kernel vector sparse, as a {column: value} dict, and densify writes one
out in full.  Matrix.inverse hands its rows to sparse_rref; the cochain
layer hands it sparse rows directly and keeps its kernels sparse.

The kernels (@, apply, vadd, vsub, vscale, bilinear and elimination)
skip zero operands: a product or sum with a zero in it is never formed,
because it cannot change an exact result, and vscale(1, u) is u when
every entry of u is already an int or a Fraction.  Every entry the
kernels return is an int or a Fraction, and an empty sum is 0.  A
product of Fractions may be an integral Fraction; it equals, hashes
and formats as its int, so the kernels do not normalize it.

A bilinear product reads its structure constants from a sparse table,
built once per structure object by sparse_table: table[i][j] lists the
pairs (k, c) with c the nonzero k-th coordinate of e_i . e_j.  One
kernel, add_bilinear, adds such a product of two sparse vectors (lists
of (index, value) pairs) into an accumulator: one product x y per pair
of nonzero coordinates whose table entry is not empty, and one product
per constant of that entry.  bilinear is that kernel on dense vectors,
and a matrix read as a table with one right index (column_table) makes
it apply a linear map to a sparse vector.

Scalars serialize as "p" or "p/q" with the sign on the numerator, which
is exactly what Fraction's constructor and str() produce once the value
is in lowest terms with a positive denominator (Fraction normalizes on
construction, so no extra canonicalization step is needed).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence, Union

Q = Fraction

Vector = tuple
ScalarLike = Union[Fraction, int, str]

Scalar = Union[int, Fraction]

# Int seeds keep a sum or product of integral entries an int.
_ZERO = 0
_ONE = 1
# The value of an (index, value) pair; nonzeros filters on it.
_VALUE = itemgetter(1)


def scalar(value: ScalarLike) -> Scalar:
    """Coerce an int, string or Fraction to an exact rational: an int
    when the value is integral, a Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"refusing inexact scalar {value!r}")
    if isinstance(value, int):
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def parse_scalar(text: str) -> Scalar:
    """Parse "p" or "p/q" with integer p, q and q > 0 after reduction."""
    if not isinstance(text, str):
        raise ValueError(f"rational expected as string, got {text!r}")
    num, slash, den = text.strip().partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
        value = p if q == 1 else Fraction(p, q)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc
    return scalar(value)


def format_scalar(value: Scalar) -> str:
    """Render a rational as "p" or "p/q" in lowest terms."""
    return str(value) if type(value) is int else str(Fraction(value))


def vzero(n: int) -> Vector:
    return (_ZERO,) * n


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b if a and b else a or b
                 for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b if b else a for a, b in zip(u, v, strict=True))


def vneg(u: Vector) -> Vector:
    return tuple(-a if a else a for a in u)


def vscale(c: ScalarLike, u: Vector) -> Vector:
    c = scalar(c)
    if not c:
        return (_ZERO,) * len(u)
    if c == 1:
        if type(u) is tuple and all(type(a) is int or type(a) is Q
                                    for a in u):
            return u
        return tuple(scalar(a) for a in u)
    return tuple(c * a if a else _ZERO for a in u)


def is_zero_vector(u: Vector) -> bool:
    return not any(u)


def basis_vector(n: int, i: int) -> Vector:
    v = [_ZERO] * n
    v[i] = _ONE
    return tuple(v)


def sparse_table(values) -> tuple:
    """The sparse table of nested vectors: entry [i][j] holds the pairs
    (k, c) for the nonzero coordinates c of values[i][j]."""
    return tuple(tuple(tuple((k, scalar(c)) for k, c in enumerate(v) if c)
                       for v in row) for row in values)


def nonzeros(v: Vector) -> list:
    """v as a sparse vector: the pairs (i, v_i) with v_i nonzero."""
    return list(filter(_VALUE, enumerate(v)))


# The sparse right argument that makes a column_table a linear map.
UNIT = ((0, _ONE),)


def column_table(m: "Matrix") -> tuple:
    """m as a sparse table with one right index: [j][0] holds the
    nonzero (k, c) of column j, so add_bilinear(out, x, UNIT, table)
    adds m(x)."""
    return sparse_table([[m.column(j)] for j in range(m.ncols)])


def add_bilinear(out: list, left, right, table) -> None:
    """Add sum x y table[p][q] into out over the pairs (p, x) of left and
    (q, y) of right, two sparse vectors, for a sparse_table table."""
    for p, x in left:
        row = table[p]
        for q, y in right:
            entries = row[q]
            if entries:
                xy = x * y
                for k, c in entries:
                    out[k] += xy * c


def bilinear_sum(dim: int, *terms) -> Vector:
    """The sum of add_bilinear over the (left, right, table) terms, as a
    vector of length dim."""
    out = [_ZERO] * dim
    for left, right, table in terms:
        add_bilinear(out, left, right, table)
    return tuple(out)


def bilinear(u: Vector, v: Vector, table, dim: int) -> Vector:
    """sum over i, j of u_i v_j e_i . e_j for a sparse_table table."""
    out = [_ZERO] * dim
    add_bilinear(out, filter(_VALUE, enumerate(u)), nonzeros(v), table)
    return tuple(out)


def sparse_echelon(rows: Iterable[dict]) -> dict:
    """Fraction-free forward elimination of sparse rows.

    Each row is a {column: scalar} dict; zero values are ignored.
    Returns a row echelon form of the rows' span as {pivot column: row}:
    each row is a dict of nonzero coprime ints whose least column is its
    pivot, and no two rows share a pivot.  Its length is the rank.  Each
    row is scaled to coprime ints, and the rows are taken shortest first
    (a stable sort on their nonzero count).  Each row's least column is
    cleared against the pivot row there, a * row - b * pivot_row, until
    that column is not a pivot; the result is divided by its content
    (the gcd of its entries, an exact int division) after every step, so
    no Fraction is made here.
    """
    echelon = {}
    for row in sorted(map(_primitive, rows), key=len):
        while row:
            col = min(row)
            pivot_row = echelon.get(col)
            if pivot_row is None:
                echelon[col] = row
                break
            row = _combine(row, col, pivot_row)
    return echelon


def sparse_rref(rows: Iterable[dict]) -> dict:
    """The reduced row echelon form of sparse rows' span.

    Returns {pivot column: row}: each reduced row is a dict of its
    nonzero scalars, with 1 at its pivot, which is its least column, and
    no entry in any other pivot column.  That form is unique, so it does
    not depend on the order of the rows.  sparse_echelon runs first;
    back-substitution then clears each pivot column from the rows above
    it, from the last pivot up, still in coprime ints, and each row is
    divided by its pivot entry only as it is written out: the one
    division in the package that can make a Fraction.
    """
    done = {}
    for col, row in sorted(sparse_echelon(rows).items(), reverse=True):
        for other in [c for c in row if c != col and c in done]:
            row = _combine(row, other, done[other])
        done[col] = row
    return {col: _divided(row, row[col]) for col, row in done.items()}


def _primitive(row: dict) -> dict:
    """The nonzero entries of row scaled to coprime ints.

    A one-entry row is the unit row at its column.  A row that is not
    all ints is read by numerator and denominator, so an integral
    Fraction that a product left becomes its int."""
    row = {c: e for c, e in row.items() if e}
    if len(row) == 1:
        return dict.fromkeys(row, 1)
    if not all(type(e) is int for e in row.values()):
        den = lcm(*[e.denominator for e in row.values()])
        row = {c: e.numerator * (den // e.denominator)
               for c, e in row.items()}
    return _content_free(row)


def _combine(row: dict, col, pivot_row: dict) -> dict:
    """a * row - b * pivot_row, which has no entry at col, divided by its
    content; a and b are the coprime ints with a * row[col] equal to
    b * pivot_row[col]."""
    x, y = row.pop(col), pivot_row[col]
    g = gcd(x, y)
    a, b = y // g, x // g
    if a != 1:
        row = {c: a * e for c, e in row.items()}
    for c, e in pivot_row.items():
        if c != col:
            value = row.get(c, _ZERO) - b * e
            if value:
                row[c] = value
            else:
                del row[c]
    return _content_free(row)


def _content_free(row: dict) -> dict:
    """An int row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {c: e // g for c, e in row.items()}
    return row


def _divided(row: dict, lead: int) -> dict:
    """An int row divided by lead, exactly: ints where lead divides."""
    if lead == 1:
        return row
    return {c: e // lead if not e % lead else Fraction(e, lead)
            for c, e in row.items()}


def rref_kernel(reduced: dict, ncols: int) -> list:
    """The canonical kernel basis of a sparse_rref form on ncols columns.

    There is one vector per free column, in increasing order, as a
    {column: scalar} dict of its nonzero entries: 1 at its free column
    f and -row[f] at the pivot of each reduced row with an entry at f.
    densify writes one out in full.
    """
    above = {}
    for p, row in reduced.items():
        for c, e in row.items():
            if c != p:
                above.setdefault(c, {})[p] = -e
    return [{f: _ONE, **above.get(f, {})}
            for f in range(ncols) if f not in reduced]


def densify(entries: dict, size: int) -> Vector:
    """The vector of length size with the {index: scalar} entries."""
    out = [_ZERO] * size
    for k, c in entries.items():
        out[k] = c
    return tuple(out)


def sparse_solve(rows: Sequence[dict], ncols: int, b: Vector) -> Vector | None:
    """One solution x of sum_j rows[i][j] x_j = b_i for sparse rows on
    ncols columns, with every free variable zero; None if there is none.
    """
    reduced = sparse_rref({**row, ncols: scalar(c)} if c else row
                          for row, c in zip(rows, b, strict=True))
    if ncols in reduced:
        return None
    x = [_ZERO] * ncols
    for p, row in reduced.items():
        x[p] = row.get(ncols, _ZERO)
    return tuple(x)


class Matrix:
    """Immutable exact matrix.

    Rows are stored as a tuple of tuples of scalars.  The column count
    is kept explicitly so zero-row matrices (which show up as boundary
    maps out of a zero-dimensional cochain space) still know their shape.
    The columns are computed on the first column() call and kept, and so
    is the verdict of is_invertible.
    """

    __slots__ = ("rows", "_ncols", "_columns", "_invertible")

    def __init__(self, rows: Sequence[Sequence[ScalarLike]], ncols: int | None = None):
        self.rows = tuple(tuple(scalar(e) for e in row) for row in rows)
        self._columns = self._invertible = None
        if self.rows:
            widths = {len(row) for row in self.rows}
            if len(widths) != 1:
                raise ValueError("rows of unequal length")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row length")
            self._ncols = width
        else:
            if ncols is None:
                raise ValueError("a matrix with no rows needs an explicit ncols")
            self._ncols = ncols

    @classmethod
    def _trusted(cls, rows: tuple, ncols: int) -> "Matrix":
        """A Matrix of rows built from scalars already checked: a tuple
        of tuples of ncols ints and Fractions each, taken as it is."""
        m = object.__new__(cls)
        m.rows, m._ncols = rows, ncols
        m._columns = m._invertible = None
        return m

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._trusted(((_ZERO,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._trusted(tuple(basis_vector(n, i) for i in range(n)), n)

    @classmethod
    def diagonal(cls, entries: Iterable[ScalarLike]) -> "Matrix":
        diag = list(entries)
        n = len(diag)
        return cls(
            tuple(
                tuple(diag[i] if i == j else _ZERO for j in range(n))
                for i in range(n)
            ),
            ncols=n,
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], nrows: int | None = None) -> "Matrix":
        if not columns:
            if nrows is None:
                raise ValueError("a matrix with no columns needs an explicit nrows")
            return cls.zero(nrows, 0)
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise ValueError("columns of unequal length")
        return cls(
            tuple(tuple(c[i] for c in columns) for i in range(height)),
            ncols=len(columns),
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple:
        return (self.nrows, self._ncols)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        if self._columns is None:
            self._columns = (tuple(zip(*self.rows)) if self.rows
                             else ((),) * self._ncols)
        return self._columns[j]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self._ncols == other._ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self._ncols))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_scalar(e) for e in row) for row in self.rows
        )
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix._trusted(
            tuple(vadd(r, s) for r, s in zip(self.rows, other.rows)),
            self._ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix._trusted(
            tuple(vsub(r, s) for r, s in zip(self.rows, other.rows)),
            self._ncols)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(tuple(vneg(r) for r in self.rows),
                               self._ncols)

    def scale(self, c: ScalarLike) -> "Matrix":
        c = scalar(c)
        return Matrix._trusted(tuple(vscale(c, r) for r in self.rows),
                               self._ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self._ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = other._ncols
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [_ZERO] * cols
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Matrix._trusted(tuple(out), cols)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self._ncols:
            raise ValueError(f"shape mismatch {self.shape} applied to len {len(v)}")
        support = [(k, x) for k, x in enumerate(v) if x]
        out = []
        for row in self.rows:
            total = _ZERO
            for k, x in support:
                a = row[k]
                if a:
                    total += a * x
            out.append(total)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(
            tuple(self.column(j) for j in range(self._ncols)), self.nrows)

    def is_zero(self) -> bool:
        return all(is_zero_vector(r) for r in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self._ncols

    def power(self, k: int) -> "Matrix":
        """Matrix power by repeated squaring; negative exponents use the
        exact inverse."""
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k == 0:
            return Matrix.identity(self.nrows)
        base = self if k > 0 else self.inverse()
        result = None
        k = abs(k)
        while k:
            if k & 1:
                result = base if result is None else result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def _sparse_rows(self) -> list:
        return [dict(enumerate(row)) for row in self.rows]

    def rank(self) -> int:
        return len(sparse_echelon(self._sparse_rows()))

    def diagonal_entries(self) -> list | None:
        """The diagonal of a square matrix with no entry off it, else None."""
        if not self.is_square() or any(
                e for i, row in enumerate(self.rows)
                for j, e in enumerate(row) if i != j):
            return None
        return [row[i] for i, row in enumerate(self.rows)]

    def inverse(self) -> "Matrix":
        """The exact inverse: entrywise for a diagonal matrix, by
        elimination otherwise."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n, diagonal = self.nrows, self.diagonal_entries()
        if diagonal is not None and all(diagonal):
            return Matrix.diagonal([1 / Fraction(e) for e in diagonal])
        reduced = sparse_rref({**row, n + i: _ONE}
                              for i, row in enumerate(self._sparse_rows()))
        if any(i not in reduced for i in range(n)):
            raise ValueError("matrix is singular")
        return Matrix._trusted(
            tuple(tuple(reduced[i].get(n + j, _ZERO) for j in range(n))
                  for i in range(n)), n)

    def is_invertible(self) -> bool:
        """Whether the matrix is square of full rank, decided on the
        first call and kept (a Matrix never changes)."""
        if self._invertible is None:
            self._invertible = self.is_square() and self.rank() == self.nrows
        return self._invertible


def matrix(rows: Sequence[Sequence[ScalarLike]], ncols: int | None = None) -> Matrix:
    return Matrix(rows, ncols=ncols)


def block_diag(top: Matrix, bottom: Matrix) -> Matrix:
    """The block-diagonal sum, e.g. the twist of a direct sum space."""
    rows = [row + vzero(bottom.ncols) for row in top.rows]
    rows += [vzero(top.ncols) + row for row in bottom.rows]
    return Matrix._trusted(tuple(rows), top.ncols + bottom.ncols)
