"""Skew r-matrices, the Yang-Baxter equation, and O-operator transfer.

A skew two-tensor r = sum r_ab e_a wedge e_b on a regular algebra
(g, alpha) corresponds to the operator r#: g* -> g with

    <xi, r#(eta)> = <xi (x) eta, r>,

whose matrix in dual bases is the skew coefficient matrix itself, so
every function here takes and returns r as that Matrix.  skew_matrix
builds it from the wedge coefficients r_ab (a < b), wedge_coeffs reads
them back, and require_skew refuses a matrix that is not r# of any
two-tensor.

For alpha-invariant r (meaning (alpha (x) alpha) r = r, in matrices
alpha R alpha^T = R) three characterizations of the r-matrix property
are implemented side by side:

  * the graded wedge bracket [r, r]_g vanishes, where

        [x_1^...^x_n, y_1^...^y_m]_g
            = sum_{i,j} (-1)^{i+j} [x_i, y_j] ^ alpha(x_1) ^ ...
              (x_i, y_j omitted, all other factors twisted) ... ^ alpha(y_m);

  * the classical Yang-Baxter sum
    [r^12, r^13] + [r^12, r^23] + [r^13, r^23] vanishes in g (x) g (x) g,
    expanded with tilde(x) = alpha(x) on the passive slots.  Writing
    r = sum c_xy e_x (x) e_y over ordered pairs and summing each
    passive index first, each part is one sum over the entries of the
    algebra's sparse bracket table (see cybe_sum);

  * r# is an O-operator with respect to the coadjoint representation.

An r-matrix induces a bracket on the dual space,

    [xi, eta]_r = {r#(xi), eta} - {r#(eta), xi}

({,} the coadjoint action), making g* a hom-Lie algebra with twist
(alpha^{-1})^T.  It is the sub-adjacent algebra of the O-operator r#,
and induced_dual_bracket computes it so, through the induced product of
the ooperator module: the bracket has no formula of its own here.
Weak homomorphisms of r-matrices and the transfer of linear and formal
deformations along r -> r# are implemented as route-by-route checks.

Invariant wedge vectors have no solver of their own: w in Lambda^k g is
fixed by Lambda^k(alpha) exactly when the scalar map e_I -> w_I is
compatible with (alpha^T, id), so invariant_wedge_basis reads each
basis vector off the nonzero values of a Cochain of the cochain layer's
compatible_maps_basis.

The wedge route and the tensor route are computed in ints where r
allows it.  Both are quadratic in r: every term of [r, r]_g and of each
Yang-Baxter part is a product of two coefficients of r with structure
constants and twist entries.  With L the lcm of the denominators of the
coefficients, L r has integer coefficients, so the same sums on L r
give exactly L^2 times each value.  graded_bracket_wedge and cybe_sum
sum on the scaled coefficients and divide by L^2 once at the end: the
result is the same rational, written as an int when it is integral,
and only the intermediate products stay in ints instead of Fractions.
The twist and the structure constants are not scaled, so their own
denominators (the 1/2 of heisenberg3_twisted) still give Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .alternating import sort_with_sign, wedge_coords, wedge_extend
from .cochain import compatible_maps_basis
from .deformation import (
    FormalDeformationReport,
    LinearDeformationReport,
    TruncatedDeformation,
    formal_deformation_check,
    linear_deformation_check,
)
from .linalg import (
    Matrix,
    Q,
    basis_vector,
    scalar,
    sparse_table,
)
from .ooperator import (
    OOperatorReport,
    OperatorHomReport,
    induced_hom_pre_lie,
    is_o_operator,
    o_operator_hom_check,
    subadjacent,
)
from .reporting import Failure, Report, holds
from .structures import HomLieAlgebra, Representation, coadjoint_rep, pair_list


def skew_matrix(dim: int, entries: dict) -> Matrix:
    """r# of sum q e_i wedge e_j over the {(i, j): q} entries, i < j."""
    rows = [[0] * dim for _ in range(dim)]
    for (i, j), q in entries.items():
        rows[i][j] = scalar(q)
        rows[j][i] = -rows[i][j]
    return Matrix(rows, ncols=dim)


def wedge_coeffs(r: Matrix) -> dict:
    """The nonzero coefficients {(i, j): r_ij}, i < j, in pair_list order."""
    return {(i, j): r.entry(i, j) for (i, j) in pair_list(r.nrows)
            if r.entry(i, j) != 0}


def require_skew(m: Matrix) -> Matrix:
    """m itself, once it is checked to be r# of a skew two-tensor."""
    if not m.is_square():
        raise ValueError("a two-tensor needs a square matrix")
    if m.transpose() != -m:
        raise ValueError("the matrix is not skew-symmetric")
    return m


def is_invariant(g: HomLieAlgebra, r: Matrix) -> bool:
    """Whether (alpha (x) alpha) r = r."""
    return (g.alpha @ r @ g.alpha.transpose()) == r


def invariant_wedge_basis(g: HomLieAlgebra, grade: int) -> list:
    """Canonical basis of the twist-invariant grade-k wedge vectors.

    Each basis element is returned as a sparse {increasing tuple:
    coefficient} dict over the wedge monomials.  A wedge vector w is
    fixed by Lambda^k(alpha) exactly when the scalar map e_I -> w_I is
    compatible with (alpha^T, id): both systems have the entries
    Lambda^k(alpha)_IJ - delta_IJ, so the compatible-map solver gives
    the same kernel basis in the same order.
    """
    basis = compatible_maps_basis(g.alpha.transpose(), Matrix.identity(1),
                                  grade)
    return [{indices: v[0] for indices, v in sorted(b.values.items())}
            for b in basis]


def invariant_two_tensor_basis(g: HomLieAlgebra) -> list:
    """The invariant wedge-square basis, as skew matrices r#."""
    return [skew_matrix(g.dim, d)
            for d in invariant_wedge_basis(g, 2)]


def _int_scale(coefficients) -> int:
    """The lcm of the denominators: scaled by it, each is an int."""
    return lcm(1, *(c.denominator for c in coefficients))


def _unscaled(q, s: int):
    """The exact q / s, an int when integral, for a sum q of values
    scaled by s."""
    return scalar(q if s == 1 else Q(q, s))


def graded_bracket_wedge(g: HomLieAlgebra, u: dict, grade_u: int,
                         v: dict, grade_v: int) -> dict:
    """The graded bracket of wedge vectors, as sparse coefficient dicts.

    Each pair of monomials, and of positions in them with a nonzero
    bracket [e_x, e_y], gives the term [e_x, e_y] ^ alpha e_R, where R
    lists the other factors' indices in order.  Sorting R only changes
    the sign, and a repeated index gives zero, so the brackets are first
    summed into one vector S_R per sorted R, straight from the
    structure-constant table.  Each S_R then meets the wedge of the
    alpha columns of R once: S_R ^ alpha e_R = (-1)^|R| (alpha e_R) ^
    S_R, one wedge_extend step.  u and v are scaled to ints by the lcms
    su and sv of their denominators, and the sum is divided by su * sv
    once at the end.
    """
    if any(len(i) != grade_u for i in u) or any(len(i) != grade_v for i in v):
        raise ValueError("monomial does not match the stated grade")
    su, sv = _int_scale(u.values()), _int_scale(v.values())
    bracket = g.structure_constants
    sums = {}
    for iu, cu in u.items():
        for iv, cv in v.items():
            scale = int(cu * su) * int(cv * sv)  # both integral
            for pi, x in enumerate(iu):
                for pj, y in enumerate(iv):
                    rest = bracket[x][y] and sort_with_sign(
                        iu[:pi] + iu[pi + 1:] + iv[:pj] + iv[pj + 1:])
                    if not rest:
                        continue
                    total = sums.setdefault(rest[0], [0] * g.dim)
                    signed = scale * rest[1] * (-1 if (pi + pj) % 2 else 1)
                    for k, c in bracket[x][y]:
                        total[k] += signed * c
    alpha_cols = [g.alpha.column(i) for i in range(g.dim)]
    out = {}
    for rest, total in sums.items():
        sign = -1 if len(rest) % 2 else 1
        wedge = wedge_coords([alpha_cols[i] for i in rest], g.dim)
        for indices, c in wedge_extend(wedge, total).items():
            out[indices] = out.get(indices, 0) + sign * c
    return {indices: _unscaled(c, su * sv)
            for indices, c in out.items() if c != 0}


def two_tensor_square(g: HomLieAlgebra, r: Matrix) -> dict:
    """[r, r]_g as a sparse grade-3 coefficient dict."""
    d = wedge_coeffs(r)
    return graded_bracket_wedge(g, d, 2, d, 2)


@dataclass(frozen=True)
class CybeSum:
    """The three slot sums of the Yang-Baxter expression and their total,
    each a canonical sparse tuple of ((a, b, c), coefficient)."""

    dim: int
    part_12_13: tuple
    part_12_23: tuple
    part_13_23: tuple
    total: tuple

    @property
    def is_zero(self) -> bool:
        return not self.total


def _accumulate3(store: dict, first, second, third) -> None:
    """Add first (x) second (x) third for sparse (index, c) lists."""
    for a, ca in first:
        for b, cb in second:
            cab = ca * cb
            for c, cc in third:
                key = (a, b, c)
                store[key] = store.get(key, 0) + cab * cc


def _canonical3(store: dict, s: int) -> tuple:
    return tuple(sorted((k, _unscaled(q, s)) for k, q in store.items()
                        if q != 0))


def cybe_sum(g: HomLieAlgebra, r: Matrix) -> CybeSum:
    """The classical Yang-Baxter sum of r in g (x) g (x) g.

    With r = sum c_xy e_x (x) e_y over ordered pairs (c_yx = -c_xy) and
    the twist on the passive slots, the three parts are

        [r12, r13] = sum c_xy c_zw [e_x, e_z] (x) alpha e_y (x) alpha e_w,
        [r12, r23] = sum c_xy c_zw alpha e_x (x) [e_y, e_z] (x) alpha e_w,
        [r13, r23] = sum c_xy c_zw alpha e_x (x) alpha e_z (x) [e_y, e_w].

    Each passive index is summed first: with the twisted rows
    R_x = sum_y c_xy alpha e_y and columns C_y = sum_x c_xy alpha e_x,

        [r12, r13] = sum_{x,z} [e_x, e_z] (x) R_x (x) R_z,
        [r12, r23] = sum_{y,z} C_y (x) [e_y, e_z] (x) R_z,
        [r13, r23] = sum_{y,w} C_y (x) C_w (x) [e_y, e_w],

    one product per nonzero entry of the sparse bracket table; empty
    brackets are skipped.  The c_xy are scaled to ints by the lcm s of
    their denominators, and every sum is divided by s^2 once at the end.
    """
    s = _int_scale(c for row in r.rows for c in row)
    scaled = [[int(c * s) for c in row] for row in r.rows]
    rows, cols = sparse_table([[g.alpha.apply(row) for row in scaled],
                               [g.alpha.apply(col) for col in zip(*scaled)]])
    bracket = g.structure_constants
    p1, p2, p3 = {}, {}, {}
    for x in range(g.dim):
        for z in range(g.dim):
            if bracket[x][z]:
                _accumulate3(p1, bracket[x][z], rows[x], rows[z])
                _accumulate3(p2, cols[x], bracket[x][z], rows[z])
                _accumulate3(p3, cols[x], cols[z], bracket[x][z])
    total = {}
    for part in (p1, p2, p3):
        for key, q in part.items():
            total[key] = total.get(key, 0) + q
    return CybeSum(
        dim=g.dim,
        part_12_13=_canonical3(p1, s * s),
        part_12_23=_canonical3(p2, s * s),
        part_13_23=_canonical3(p3, s * s),
        total=_canonical3(total, s * s),
    )


def _require_rmatrix_context(g: HomLieAlgebra, r: Matrix) -> None:
    if r.shape != (g.dim, g.dim):
        raise ValueError("the two-tensor does not live on this algebra")
    require_skew(r)
    if not g.is_regular:
        raise ValueError("r-matrix checks need an invertible alpha")
    if not is_invariant(g, r):
        raise ValueError("the two-tensor is not invariant under the twist")


@dataclass(frozen=True)
class RMatrixReport(Report):
    cybe_zero: bool
    operator_report: OOperatorReport
    wedge_square: tuple
    # The representation the operator route was decided on.
    coadjoint: Representation = field(repr=False, compare=False)
    # The failures are the nonzero wedge-square coefficients alone, so
    # ok is this verdict too.
    wedge_square_zero = verdict = holds("wedge_square")

    @property
    def routes_agree(self) -> bool:
        return (self.wedge_square_zero == self.cybe_zero
                == self.operator_report.ok)


def is_r_matrix(g: HomLieAlgebra, r: Matrix) -> RMatrixReport:
    """Decide the r-matrix property along all three routes.

    Requires a regular algebra and an invariant skew r# (ValueError
    otherwise).  The verdict is the vanishing of [r, r]_g; the other two
    routes are computed independently and reported for comparison.
    """
    _require_rmatrix_context(g, r)
    square = two_tensor_square(g, r)
    failures = [Failure("wedge_square", indices, (square[indices],), (0,))
                for indices in sorted(square)]
    cybe = cybe_sum(g, r)
    coadj = coadjoint_rep(g)
    return RMatrixReport(
        cybe_zero=cybe.is_zero,
        operator_report=is_o_operator(g, coadj, r),
        wedge_square=tuple(sorted(square.items())),
        failures=tuple(failures),
        coadjoint=coadj,
    )


def induced_dual_bracket(g: HomLieAlgebra, r: Matrix,
                         _report: RMatrixReport | None = None
                         ) -> HomLieAlgebra:
    """The hom-Lie algebra on g* induced by an r-matrix:

        [xi, eta]_r = {r#(xi), eta} - {r#(eta), xi}

    with twist (alpha^{-1})^T and {,} the coadjoint action: the
    sub-adjacent algebra of the product r#(xi) . eta that the O-operator
    r# induces on the coadjoint representation.  _report is
    is_r_matrix(g, r), from a caller that has already decided it."""
    report = is_r_matrix(g, r) if _report is None else _report
    if not report.verdict:
        raise ValueError("the two-tensor is not an r-matrix")
    return subadjacent(induced_hom_pre_lie(g, report.coadjoint, r,
                                           unchecked=True))


@dataclass(frozen=True)
class WeakHomReport(Report):
    operator_hom: OperatorHomReport
    phi_bracket_homomorphism = holds("phi_bracket")
    phi_twist_commute = holds("phi_twist_commute")
    psi_twist_commute = holds("psi_twist_commute")
    tensor_condition = holds("tensor_condition")
    bracket_condition = holds("intertwine_bracket")

    @property
    def operator_hom_agrees(self) -> bool:
        return self.ok == self.operator_hom.ok


def weak_homomorphism_check(g: HomLieAlgebra, phi: Matrix, psi: Matrix,
                            r1: Matrix, r2: Matrix) -> WeakHomReport:
    """Whether (phi, psi) is a weak homomorphism from r1 to r2:

        phi a hom-Lie endomorphism,
        psi . alpha = alpha . psi,
        (psi (x) id)(r1) = (id (x) phi)(r2),
        psi([phi(x), y]) = [x, psi(y)].

    The companion check is the O-operator homomorphism (phi, psi^T)
    from r2# to r1# over the coadjoint representation; the full weak
    homomorphism conditions hold exactly when that one does.
    """
    for name, m in (("phi", phi), ("psi", psi)):
        if m.shape != (g.dim, g.dim):
            raise ValueError(f"{name} must map the algebra into itself: "
                             f"expected {g.dim} x {g.dim}, got "
                             f"{m.nrows} x {m.ncols}")
    _require_rmatrix_context(g, r1)
    _require_rmatrix_context(g, r2)
    failures = []
    for (i, j) in pair_list(g.dim):
        lhs = phi.apply(g.bracket_basis(i, j))
        rhs = g.bracket(phi.column(i), phi.column(j))
        if lhs != rhs:
            failures.append(Failure("phi_bracket", (i, j), lhs, rhs))
    if (phi @ g.alpha) != (g.alpha @ phi):
        failures.append(Failure("phi_twist_commute", ()))
    if (psi @ g.alpha) != (g.alpha @ psi):
        failures.append(Failure("psi_twist_commute", ()))
    if (psi @ r1) != (r2 @ phi.transpose()):
        failures.append(Failure("tensor_condition", ()))
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = psi.apply(g.bracket(phi.column(i), basis_vector(g.dim, j)))
            rhs = g.bracket(basis_vector(g.dim, i), psi.column(j))
            if lhs != rhs:
                failures.append(Failure("intertwine_bracket", (i, j),
                                        lhs, rhs))
    operator_hom = o_operator_hom_check(
        g, coadjoint_rep(g),
        phi_g=phi, phi_v=psi.transpose(),
        t_from=r2, t_to=r1,
    )
    return WeakHomReport(operator_hom=operator_hom, failures=tuple(failures))


@dataclass(frozen=True)
class TransferReport:
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


def rmatrix_deformation_transfer(g: HomLieAlgebra, r: Matrix,
                                 terms, mode: str = "auto") -> TransferReport:
    """Check a deformation of r along both routes and compare.

    The operator route deforms r# over the coadjoint representation; the
    wedge route checks the coefficients of [r_t, r_t]_g.  In linear mode
    (a single generator tau) the full polynomial identity is required,
    with coefficients at t^0, t^1, t^2; in truncated mode the orders run
    up to the number of terms.  r must be an r-matrix and every term
    an invariant skew matrix.
    """
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
    return TransferReport(
        mode=mode,
        operator_valid=operator_valid,
        wedge_per_order=tuple(wedge_orders),
        operator_linear=operator_linear,
        operator_formal=operator_formal,
    )
