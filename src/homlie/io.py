"""JSON interchange for algebras, representations, operators, cochains,
deformations, and skew two-tensors.

All indices in the JSON formats are 0-based.  Scalars are JSON integers
or strings "p" / "p/q"; floats are rejected so every load stays exact.

    algebra      {"dim": 2, "basis": ["e1", "e2"],
                  "alpha": [["1", "0"], ["0", "1"]],
                  "brackets": {"0,1": ["0", "1"]}}
    rep          {"algebra": <path or inline algebra>,
                  "beta": [[...]], "rho": [<one matrix per basis element>]}
    operator     {"matrix": [[...]]}
    vector       {"vector": [...]}
    cochain      {"arity": 2, "source": "g" | "V",
                  "coeffs": {"0,1": [...]}}
                 (written by obstruction and deform-extend, never read)
    deformation  {"base": <operator or bare rows>, "terms": [...],
                  "order": 2}
    two-tensor   {"wedge": {"0,1": "1/2"}, "dim": 2}
                 (loaded as its skew matrix r#, written back from its
                 upper triangle)

Unknown keys are rejected.  Schema violations raise SchemaError, a
ValueError subclass, so callers can treat malformed input and domain
errors uniformly.

The writers (*_to_dict, matrix_to_rows) give plain JSON values: dicts
with str keys, lists, str scalars, ints, bools and None.  Each CLI
handler builds its payload from them, so the payload goes to json.dumps
as it is.  pre_lie_to_dict writes the product table of a hom-pre-Lie
algebra, which is output only.
"""

from __future__ import annotations

import json
import os

from .cochain import Cochain
from .deformation import TruncatedDeformation
from .linalg import Matrix, format_scalar, parse_scalar
from .rmatrix import skew_matrix, wedge_coeffs
from .structures import HomLieAlgebra, Representation
from .ooperator import HomPreLie


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected format."""


def _require_keys(data: dict, required: tuple, optional: tuple,
                  where: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    for key in required:
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
    allowed = set(required) | set(optional)
    for key in data:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown key {key!r}")


def _exact(value):
    """A JSON int or rational string as an exact scalar; ValueError
    without a location otherwise.

    A string is read by one int() call when it is an integer, which
    gives the value parse_scalar would: it strips the text and calls int
    on it too.  Any other string goes to parse_scalar for its value or
    its refusal."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return parse_scalar(value)
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise ValueError("floats are not exact; write the value as a string")
    raise ValueError(f"cannot read {value!r} as a scalar")


def _scalar(value, where: str):
    try:
        return _exact(value)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer")
    return value


def _vector(obj, where: str) -> tuple:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of scalars")
    try:
        return tuple(map(_exact, obj))
    except ValueError:
        # Read again entry by entry, for the location of the entry refused.
        return tuple(_scalar(x, f"{where}[{k}]") for k, x in enumerate(obj))


def _matrix(obj, where: str) -> Matrix:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty list of rows")
    try:
        if not all(isinstance(row, list) for row in obj):
            raise ValueError("a row is not a list")
        rows = [tuple(map(_exact, row)) for row in obj]
    except ValueError:
        # Read again row by row, for the location of the refusal.
        rows = [_vector(row, f"{where}[{k}]") for k, row in enumerate(obj)]
    ncols = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != ncols:
            raise SchemaError(f"{where}: row {k} has a different length")
    return Matrix._trusted(tuple(rows), ncols)


def _index_pair(key: str, where: str) -> tuple:
    if not isinstance(key, str):
        raise SchemaError(f"{where}: keys must be strings of indices")
    try:
        parts = tuple(int(p.strip()) for p in key.split(",")) if key else ()
    except ValueError:
        raise SchemaError(
            f"{where}: key {key!r} is not a comma-separated index tuple"
        ) from None
    if len(parts) != 2:
        raise SchemaError(f"{where}: key {key!r} does not have 2 indices")
    if any(p < 0 for p in parts):
        raise SchemaError(f"{where}: key {key!r} has a negative index")
    return parts


def _pair_entries(raw, dim: int, where: str, read) -> dict:
    """{(i, j): read(value, location)} for the "i,j" keys of raw, with
    0 <= i < j < dim; two keys that name the same pair are refused."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: expected an object")
    entries, keys = {}, {}
    for key, value in raw.items():
        i, j = _index_pair(key, where)
        if not (0 <= i < j < dim):
            raise SchemaError(f"{where}: key {key!r} needs 0 <= i < j < dim")
        if (i, j) in keys:
            raise SchemaError(f"{where}: keys {keys[(i, j)]!r} and {key!r} "
                              f"name the same pair ({i}, {j})")
        keys[(i, j)] = key
        entries[(i, j)] = read(value, f"{where}[{key!r}]")
    return entries


def algebra_from_dict(data, where: str = "algebra") -> HomLieAlgebra:
    _require_keys(data, ("dim",), ("basis", "alpha", "brackets"), where)
    dim = _int(data["dim"], f"{where}.dim")
    if dim <= 0:
        raise SchemaError(f"{where}.dim: must be positive")
    basis = data.get("basis")
    if basis is not None:
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(b, str) for b in basis)):
            raise SchemaError(f"{where}.basis: expected {dim} names")
    alpha = data.get("alpha")
    if alpha is not None:
        alpha = _matrix(alpha, f"{where}.alpha")

    def bracket_value(value, at: str) -> tuple:
        vec = _vector(value, at)
        if len(vec) != dim:
            raise SchemaError(f"{at}: expected {dim} entries")
        return vec

    brackets = _pair_entries(data.get("brackets", {}), dim,
                             f"{where}.brackets", bracket_value)
    try:
        return HomLieAlgebra.build(dim=dim, brackets=brackets, alpha=alpha,
                                   basis=basis)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def algebra_to_dict(g: HomLieAlgebra) -> dict:
    brackets = {}
    for (i, j), value in sorted(g.brackets_dict().items()):
        brackets[f"{i},{j}"] = [format_scalar(c) for c in value]
    return {
        "dim": g.dim,
        "basis": list(g.basis),
        "alpha": matrix_to_rows(g.alpha),
        "brackets": brackets,
    }


def rep_from_dict(data, base_dir: str = ".", where: str = "rep"
                  ) -> Representation:
    _require_keys(data, ("algebra", "rho"), ("beta", "basis"), where)
    raw_algebra = data["algebra"]
    if isinstance(raw_algebra, str):
        path = raw_algebra
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        g = load_algebra(path)
    else:
        g = algebra_from_dict(raw_algebra, where=f"{where}.algebra")
    raw_rho = data["rho"]
    if not isinstance(raw_rho, list) or len(raw_rho) != g.dim:
        raise SchemaError(
            f"{where}.rho: expected one matrix per algebra basis element")
    rho = [_matrix(m, f"{where}.rho[{k}]") for k, m in enumerate(raw_rho)]
    if rho:
        vdim = rho[0].nrows
        for k, m in enumerate(rho):
            if m.shape != (vdim, vdim):
                raise SchemaError(f"{where}.rho[{k}]: expected a "
                                  f"{vdim} x {vdim} matrix")
    elif "beta" not in data:
        raise SchemaError(f"{where}: beta is required when rho is empty")
    beta = data.get("beta")
    if beta is None:
        beta = Matrix.identity(rho[0].nrows)
    else:
        beta = _matrix(beta, f"{where}.beta")
        if not beta.is_square():
            raise SchemaError(f"{where}.beta: expected a square matrix")
    basis = data.get("basis")
    if basis is not None:
        if (not isinstance(basis, list) or len(basis) != beta.nrows
                or not all(isinstance(b, str) for b in basis)):
            raise SchemaError(f"{where}.basis: expected {beta.nrows} names")
    for k, m in enumerate(rho):
        if m.shape != (beta.nrows, beta.nrows):
            raise SchemaError(f"{where}.rho[{k}]: shape does not match beta")
    return Representation.build(algebra=g, beta=beta, rho=tuple(rho),
                                basis=basis)


def rep_to_dict(rep: Representation) -> dict:
    return {
        "algebra": algebra_to_dict(rep.algebra),
        "basis": list(rep.basis),
        "beta": matrix_to_rows(rep.beta),
        "rho": [matrix_to_rows(m) for m in rep.rho],
    }


def operator_from_dict(data, where: str = "operator") -> Matrix:
    _require_keys(data, ("matrix",), (), where)
    return _matrix(data["matrix"], f"{where}.matrix")


def vector_from_dict(data, where: str = "vector") -> tuple:
    _require_keys(data, ("vector",), (), where)
    return _vector(data["vector"], f"{where}.vector")


def cochain_to_dict(c: Cochain, source: str) -> dict:
    coeffs = {",".join(map(str, indices)): [format_scalar(x) for x in value]
              for indices, value in sorted(c.values.items())}
    return {"arity": c.arity, "source": source, "coeffs": coeffs}


def _operator_like(obj, where: str) -> Matrix:
    if isinstance(obj, dict):
        return operator_from_dict(obj, where)
    return _matrix(obj, where)


def deformation_from_dict(data, where: str = "deformation"
                          ) -> TruncatedDeformation:
    _require_keys(data, ("base",), ("terms", "order"), where)
    base = _operator_like(data["base"], f"{where}.base")
    raw_terms = data.get("terms", [])
    if not isinstance(raw_terms, list):
        raise SchemaError(f"{where}.terms: expected a list")
    terms = [_operator_like(t, f"{where}.terms[{k}]")
             for k, t in enumerate(raw_terms)]
    if "order" in data:
        order = _int(data["order"], f"{where}.order")
        if order != len(terms):
            raise SchemaError(
                f"{where}.order: {order} does not match {len(terms)} terms")
    try:
        return TruncatedDeformation.of(base, terms)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def deformation_to_dict(d: TruncatedDeformation) -> dict:
    return {
        "base": {"matrix": matrix_to_rows(d.base)},
        "terms": [{"matrix": matrix_to_rows(t)} for t in d.terms],
        "order": d.order,
    }


def rmatrix_from_dict(data, dim: int | None = None,
                      where: str = "two-tensor") -> Matrix:
    _require_keys(data, ("wedge",), ("dim",), where)
    if "dim" in data:
        declared = _int(data["dim"], f"{where}.dim")
        if dim is not None and declared != dim:
            raise SchemaError(
                f"{where}.dim: {declared} does not match the expected {dim}")
        dim = declared
    if dim is None:
        raise SchemaError(f"{where}: no dimension available; add a "
                          f'"dim" key or pass one explicitly')
    if dim <= 0:
        raise SchemaError(f"{where}: dim {dim} must be positive")
    return skew_matrix(
        dim, _pair_entries(data["wedge"], dim, f"{where}.wedge", _scalar))


def rmatrix_to_dict(r: Matrix) -> dict:
    return {
        "dim": r.nrows,
        "wedge": {f"{i},{j}": format_scalar(q)
                  for (i, j), q in wedge_coeffs(r).items()},
    }


def pre_lie_to_dict(p: HomPreLie) -> dict:
    return {
        "dim": p.dim,
        "basis": list(p.basis),
        "twist": matrix_to_rows(p.twist),
        "products": {
            f"{i},{j}": [format_scalar(x) for x in p.table[i][j]]
            for i in range(p.dim) for j in range(p.dim)
        },
    }


def matrix_to_rows(m: Matrix) -> list:
    return [[format_scalar(x) for x in row] for row in m.rows]


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def load_algebra(path: str) -> HomLieAlgebra:
    return algebra_from_dict(load_json(path), where=path)


def load_rep(path: str) -> Representation:
    return rep_from_dict(load_json(path), base_dir=os.path.dirname(path) or ".",
                         where=path)


def load_operator(path: str) -> Matrix:
    return operator_from_dict(load_json(path), where=path)


def load_vector(path: str) -> tuple:
    return vector_from_dict(load_json(path), where=path)


def load_deformation(path: str) -> TruncatedDeformation:
    return deformation_from_dict(load_json(path), where=path)


def load_rmatrix(path: str, dim: int | None = None) -> Matrix:
    return rmatrix_from_dict(load_json(path), dim=dim, where=path)
