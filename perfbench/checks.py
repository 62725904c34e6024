"""Output checks behind `failed` and fail_ratio.

A verb fails when it raised, or when its exit code or a checked answer
field differs from the value recorded for the same inputs (expected/),
or when an invariant that needs no recorded value is broken.  Only the
fields named here are compared, so keys a later version adds to the
JSON output are ignored.
"""

from __future__ import annotations

import json
import os
from math import comb

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")


def verb_id(verb):
    return " ".join(verb["argv"])


def answer(kind, data):
    """The answer fields of one verb's JSON data, by verb kind."""
    if kind == "cohomology":
        return {"table": [[row[k] for k in ("arity", "cochains", "cocycles",
                                            "coboundaries", "h")]
                          for row in data["table"]]}
    if kind == "o-operator":
        return {k: data[k] for k in ("o_operator", "graph",
                                     "nijenhuis_on_semidirect",
                                     "maurer_cartan", "routes_agree")}
    if kind == "r-matrix":
        return {k: data[k] for k in ("wedge_square_zero", "cybe_zero",
                                     "o_operator", "routes_agree")}
    if kind == "deform-extend":
        return {k: data[k] for k in ("reached_order", "obstructed_at",
                                     "deformation")}
    if kind == "obstruction":
        return {"is_cocycle": data["is_cocycle"]}
    if kind == "deform-check":
        inf = data["infinitesimal"]
        return {"is_cocycle": None if inf is None else inf["is_cocycle"]}
    raise ValueError(f"unknown verb kind {kind!r}")


def summarize(verb, code, stdout):
    """(exit code, verdict, answer fields) of one verb's output."""
    payload = json.loads(stdout)
    return {"exit": code, "verdict": payload["verdict"],
            "answer": answer(verb["kind"], payload["data"])}


def invariant_errors(verb, got):
    """Checks that hold for every seed, with no recorded value."""
    errors = []
    ans, kind = got["answer"], verb["kind"]
    if got["exit"] != (0 if got["verdict"] else 1):
        errors.append("exit code does not match the verdict")
    if kind == "cohomology":
        table = ans["table"]
        if verb.get("binomial"):
            dim = verb["binomial"]
            if [row[4] for row in table] != [comb(dim, n)
                                            for n in range(len(table))]:
                errors.append("H^n != C(dim, n) on an abelian algebra")
        if verb.get("full_range"):
            chi_c = sum((-1) ** row[0] * row[1] for row in table)
            chi_h = sum((-1) ** row[0] * row[4] for row in table)
            if chi_c != chi_h:
                errors.append(f"Euler characteristic {chi_c} != {chi_h}")
    elif kind == "o-operator":
        routes = [ans["o_operator"], ans["graph"],
                  ans["nijenhuis_on_semidirect"]]
        if ans["maurer_cartan"] is not None:
            routes.append(ans["maurer_cartan"])
        if len({all(r.values()) for r in routes}) != 1 or not ans[
                "routes_agree"]:
            errors.append("the O-operator routes disagree")
    elif kind == "r-matrix":
        routes = {ans["wedge_square_zero"], ans["cybe_zero"],
                  all(ans["o_operator"].values())}
        if len(routes) != 1 or not ans["routes_agree"]:
            errors.append("the CYBE routes disagree")
    elif kind == "deform-extend":
        want = verb["obstructed_at"]
        if ans["obstructed_at"] != want:
            errors.append(f"obstructed_at {ans['obstructed_at']} != {want}")
        if want is None and ans["reached_order"] != verb["target_order"]:
            errors.append("the deformation stopped short of its order")
    elif kind == "obstruction":
        if not ans["is_cocycle"]:
            errors.append("the obstruction is not a cocycle")
    elif kind == "deform-check":
        if got["exit"] != 0:
            errors.append("an extended deformation fails deform-check")
    return errors


def load_expected(workload):
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(verb, code, stdout, expected):
    """Error strings for one verb; empty when it passes."""
    if code is None:
        return ["raised"]
    if not stdout.strip():
        return [f"exit {code} with no JSON output"]
    try:
        got = summarize(verb, code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    errors = invariant_errors(verb, got)
    want = expected.get(verb_id(verb))
    if want is not None and want != got:
        errors.append(f"differs from the recorded output: want {want}, "
                      f"got {got}")
    return errors
