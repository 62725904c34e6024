"""Workload inputs and verb lists, generated from a seed.

Every input is built here in plain Python (Fractions and lists) and
written as a JSON file, so the program under test only ever receives
generated files through its command line.  Nothing here imports homlie.

A verb is a dict with
    argv   the command-line arguments passed to homlie.cli.main,
    kind   which output checks apply (see checks.py),
plus kind-specific facts the invariant checks need.  File names encode
every parameter of their contents (including the seed where it matters),
so " ".join(argv) identifies a verb's inputs and keys its recorded
expectations.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from fractions import Fraction
from itertools import combinations, product

WORKLOADS = ("cohomology-tables", "operator-routes", "deformation-chain")

# ---------------------------------------------------------------------------
# Algebras and representations as plain data.
#
# An algebra is {"dim", "basis", "alpha" (diagonal entries), "brackets"
# {(i, j): vector} for i < j}.  Every algebra used here has a diagonal
# twist, which keeps duals and invariant wedges closed-form.


def _algebra(dim, brackets, alpha=None, basis=None):
    return {
        "dim": dim,
        "basis": list(basis or [f"e{i + 1}" for i in range(dim)]),
        "alpha": [Fraction(a) for a in (alpha or [1] * dim)],
        "brackets": {k: [Fraction(c) for c in v] for k, v in brackets.items()},
    }


def catalog():
    """The catalog algebras of the library, rebuilt independently."""
    return {
        "abelian2": _algebra(2, {}),
        "aff1": _algebra(2, {(0, 1): (0, 1)}),
        "aff1_twisted": _algebra(2, {(0, 1): (0, 2)}, alpha=(1, 2)),
        "sl2": _algebra(3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2),
                            (1, 2): (1, 0, 0)}, basis=("h", "e", "f")),
        "heisenberg3": _algebra(3, {(0, 1): (0, 0, 1)}),
        "heisenberg3_twisted": _algebra(3, {(0, 1): (0, 0, 1)},
                                        alpha=(2, Fraction(1, 2), 1)),
    }


def abelian(dim):
    return _algebra(dim, {})


def bracket_basis(g, i, j):
    if i == j:
        return [Fraction(0)] * g["dim"]
    if i < j:
        return list(g["brackets"].get((i, j), [Fraction(0)] * g["dim"]))
    return [-c for c in g["brackets"].get((j, i), [Fraction(0)] * g["dim"])]


def adjoint(g):
    """rho(e_i) e_j = [e_i, e_j], beta = alpha."""
    n = g["dim"]
    rho = []
    for i in range(n):
        cols = [bracket_basis(g, i, j) for j in range(n)]
        rho.append([[cols[j][r] for j in range(n)] for r in range(n)])
    return {"algebra": g, "basis": list(g["basis"]),
            "beta": list(g["alpha"]), "rho": rho}


def coadjoint(g):
    """Dual of the adjoint: beta* = alpha^{-1} and, for diagonal alpha,
    rho*(e_i) = -(rho(e_i) / a_i . diag(a)^{-2})^T."""
    ad = adjoint(g)
    a = g["alpha"]
    n = g["dim"]
    rho = []
    for i, m in enumerate(ad["rho"]):
        rho.append([[-m[c][r] / a[i] / (a[r] * a[r]) for c in range(n)]
                    for r in range(n)])
    return {"algebra": g, "basis": [f"{b}*" for b in g["basis"]],
            "beta": [1 / x for x in a], "rho": rho}


def trivial(g):
    """The zero action on a 1-dim module."""
    return {"algebra": g, "basis": ["v1"], "beta": [Fraction(1)],
            "rho": [[[Fraction(0)]]] * g["dim"]}


def semidirect(rep):
    """g + V with [x + u, y + v] = [x, y] + rho(x)v - rho(y)u."""
    g = rep["algebra"]
    n, m = g["dim"], len(rep["beta"])
    brackets = {}
    for (i, j), value in g["brackets"].items():
        if any(value):
            brackets[(i, j)] = list(value) + [Fraction(0)] * m
    for i in range(n):
        for a in range(m):
            column = [rep["rho"][i][r][a] for r in range(m)]
            if any(column):
                brackets[(i, n + a)] = [Fraction(0)] * n + column
    return _algebra(n + m, brackets, alpha=list(g["alpha"]) + rep["beta"],
                    basis=list(g["basis"]) + rep["basis"])


def invariant_wedges(g):
    """Basis e_i ^ e_j of the alpha-invariant wedge squares (a_i a_j = 1)."""
    a = g["alpha"]
    return [(i, j) for i, j in combinations(range(g["dim"]), 2)
            if a[i] * a[j] == 1]


# ---------------------------------------------------------------------------
# JSON encoding in the library's interchange format.


def _q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def _rows(m):
    return [[_q(x) for x in row] for row in m]


def _diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def algebra_json(g):
    return {
        "dim": g["dim"],
        "basis": g["basis"],
        "alpha": _rows(_diag(g["alpha"])),
        "brackets": {f"{i},{j}": [_q(c) for c in v]
                     for (i, j), v in sorted(g["brackets"].items())},
    }


def rep_json(rep):
    return {
        "algebra": algebra_json(rep["algebra"]),
        "basis": rep["basis"],
        "beta": _rows(_diag(rep["beta"])),
        "rho": [_rows(m) for m in rep["rho"]],
    }


def unit_matrix(nrows, ncols, entries):
    """nrows x ncols matrix with 1 at each (row, col) in entries."""
    return [[1 if (r, c) in entries else 0 for c in range(ncols)]
            for r in range(nrows)]


def deformation_json(base, terms):
    return {"base": {"matrix": _rows(base)},
            "terms": [{"matrix": _rows(t)} for t in terms],
            "order": len(terms)}


# ---------------------------------------------------------------------------
# Workloads.


def _cohomology_tables(files, seed, smoke):
    sl2 = catalog()["sl2"]
    sl2_sl2 = adjoint(semidirect(adjoint(sl2)))
    heis_tw = adjoint(semidirect(adjoint(catalog()["heisenberg3_twisted"])))
    ab_dim = 5 if smoke else 8
    ab = trivial(abelian(ab_dim))
    files["sl2xsl2.adjoint.rep.json"] = rep_json(sl2_sl2)
    files["heis3tw-semi.adjoint.rep.json"] = rep_json(heis_tw)
    files[f"abelian{ab_dim}.trivial.rep.json"] = rep_json(ab)
    # The certified O-operator T on sl2 x| sl2: one 1 at (row 1, column 2).
    files["sl2xsl2.T.json"] = {"matrix": _rows(unit_matrix(6, 6, {(1, 2)}))}
    top = 2 if smoke else 3
    verbs = [
        {"kind": "cohomology",
         "argv": ["cohomology", "sl2xsl2.adjoint.rep.json",
                  "--max-arity", str(top)],
         "full_range": False},
        {"kind": "cohomology",
         "argv": ["cohomology", "heis3tw-semi.adjoint.rep.json"]
         + (["--max-arity", "3"] if smoke else []),
         "full_range": not smoke},
        {"kind": "cohomology",
         "argv": ["cohomology", f"abelian{ab_dim}.trivial.rep.json",
                  "--max-arity", str(top + 1)],
         "full_range": False, "binomial": ab_dim},
        {"kind": "cohomology",
         "argv": ["cohomology", "sl2xsl2.adjoint.rep.json",
                  "--operator", "sl2xsl2.T.json", "--max-arity", str(top)],
         "full_range": False},
    ]
    return verbs


def _operator_routes(files, seed, smoke):
    per_rep = 2 if smoke else 17
    verbs = []
    for name, g in catalog().items():
        for rep_name, rep in (("adjoint", adjoint(g)),
                              ("coadjoint", coadjoint(g))):
            # One stream per representation, so a smoke run's candidates
            # are a prefix of the full run's.
            rng = random.Random(f"{seed}/{name}/{rep_name}")
            rep_file = f"{name}.{rep_name}.rep.json"
            files[rep_file] = rep_json(rep)
            n, m = g["dim"], len(rep["beta"])
            for k in range(per_rep):
                t = [[rng.choice((-1, 0, 0, 1)) for _ in range(m)]
                     for _ in range(n)]
                t_file = f"{name}.{rep_name}.seed{seed}.T{k}.json"
                files[t_file] = {"matrix": _rows(t)}
                verbs.append({
                    "kind": "o-operator",
                    "argv": ["check-o-operator", rep_file, t_file]})
    grid = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))
    for name in ("aff1", "sl2", "heisenberg3", "heisenberg3_twisted"):
        g = catalog()[name]
        alg_file = f"{name}.algebra.json"
        files[alg_file] = algebra_json(g)
        wedges = invariant_wedges(g)
        combos = list(enumerate(product(grid, repeat=len(wedges))))
        if smoke:
            combos = combos[::16]
        for k, coeffs in combos:
            r_file = f"{name}.r{k}.json"
            files[r_file] = {
                "dim": g["dim"],
                "wedge": {f"{i},{j}": _q(c)
                          for (i, j), c in zip(wedges, coeffs) if c != 0}}
            verbs.append({"kind": "r-matrix",
                          "argv": ["rmatrix-check", alg_file, r_file]})
    return verbs


def _deformation_chain(files, seed, smoke):
    cat = catalog()
    sl2 = cat["sl2"]
    # (name, rep, base T, first-order term, order).  T + tT on sl2 x| sl2
    # has zero obstructions, so its later terms are zero; the smaller
    # chains start from 1-cocycles K of the operator complex that are not
    # multiples of T, so their later terms are not.
    t_sl2 = unit_matrix(3, 3, {(1, 2)})
    t_heis = unit_matrix(3, 3, {(2, 2)})
    t_aff1 = unit_matrix(2, 2, {(0, 1)})
    chains = [
        ("sl2xsl2", adjoint(semidirect(adjoint(sl2))),
         unit_matrix(6, 6, {(1, 2)}), unit_matrix(6, 6, {(1, 2)}),
         2 if smoke else 3),
        ("sl2", adjoint(sl2), t_sl2, [[0, 0, 0], [0, 1, 1], [0, 0, 1]],
         3 if smoke else 5),
        ("heisenberg3", adjoint(cat["heisenberg3"]), t_heis,
         [[-1, 0, 0], [0, 1, 0], [0, 0, 0]], 3 if smoke else 6),
        ("aff1", adjoint(cat["aff1"]), t_aff1, [[-1, 1], [0, 1]],
         3 if smoke else 6),
    ]
    verbs = []
    for name, rep, t, k, order in chains:
        rep_file = f"{name}.adjoint.rep.json"
        files[rep_file] = rep_json(rep)
        files[f"{name}.start.json"] = deformation_json(t, [k])
        verbs.extend(_chain_verbs(name, rep_file, order, obstructed_at=None))
    # Obstructed: zero base with an identity first term on aff1.
    files["aff1-obstructed.start.json"] = deformation_json(
        unit_matrix(2, 2, set()), [unit_matrix(2, 2, {(0, 0), (1, 1)})])
    verbs.extend(_chain_verbs("aff1-obstructed", "aff1.adjoint.rep.json", 3,
                              obstructed_at=2))
    return verbs


def _chain_verbs(name, rep_file, order, obstructed_at):
    """deform-extend to the order, then the single-cochain verbs on the
    deformation it wrote."""
    out = f"{name}.order{order}.json"
    return [
        {"kind": "deform-extend",
         "argv": ["deform-extend", rep_file, f"{name}.start.json",
                  "--max-order", str(order), "--out", out],
         "target_order": order, "obstructed_at": obstructed_at},
        {"kind": "obstruction", "argv": ["obstruction", rep_file, out]},
        {"kind": "deform-check", "argv": ["deform-check", rep_file, out]},
    ]


_MAKE_VERBS = {
    "cohomology-tables": _cohomology_tables,
    "operator-routes": _operator_routes,
    "deformation-chain": _deformation_chain,
}


def generate(workload, seed, directory, smoke=False):
    """Write the workload's input files into directory; return its verbs."""
    files = {}
    verbs = _MAKE_VERBS[workload](files, seed, smoke)
    # Start empty, so no verb can read an output left by an earlier pass.
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for name, document in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(document, fh)
    return verbs


