"""Command-line interface.

Every verb reads JSON files (formats documented in the io module),
prints a verdict, and exits with

    0   the checked property holds / the computation succeeded,
    1   the checked property fails (details are printed),
    2   bad usage, malformed input, or a domain error such as a
        non-invertible twist where one is required.

With --json the output is a single object
{"verb", "verdict", "failures", "data"}; otherwise a verdict line is
followed by failure lines (capped) and the data as indented JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cochain import coboundary, cohomology_table
from .deformation import (
    extension_steps,
    formal_deformation_check,
    infinitesimal_check,
    linear_deformation_check,
    nijenhuis_element_check,
    obstruction,
    trivial_deformation_from_nijenhuis,
)
from .io import (
    SchemaError,
    algebra_to_dict,
    cochain_to_dict,
    deformation_to_dict,
    load_algebra,
    load_deformation,
    load_json,
    load_operator,
    load_rep,
    load_rmatrix,
    load_vector,
    matrix_to_rows,
    operator_from_dict,
    pre_lie_to_dict,
    rep_to_dict,
    rmatrix_from_dict,
    rmatrix_to_dict,
)
from .linalg import format_scalar, parse_scalar
from .ooperator import (
    build_nt,
    graph_check,
    induced_hom_pre_lie,
    is_o_operator,
    is_rota_baxter,
    nijenhuis_operator_check,
    o_operator_maurer_cartan_check,
    rho_t,
    subadjacent,
    verify_hom_pre_lie,
)
from .rmatrix import (
    induced_dual_bracket,
    is_r_matrix,
    require_skew,
    weak_homomorphism_check,
)
from .structures import verify_hom_lie, verify_representation

_FAILURE_CAP = 20


def _report_fields(report, names) -> dict:
    return {name: getattr(report, name) for name in names}


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _cmd_verify_algebra(args):
    g = load_algebra(args.algebra)
    report = verify_hom_lie(g)
    data = _report_fields(report, ("multiplicative", "hom_jacobi", "regular"))
    data["dim"] = g.dim
    return report.ok, data, report.failures


def _cmd_verify_rep(args):
    rep = load_rep(args.rep)
    report = verify_representation(rep)
    data = _report_fields(report, ("twist_intertwine", "module_equation"))
    data["algebra_dim"] = rep.algebra.dim
    data["module_dim"] = rep.dim
    return report.ok, data, report.failures


def _cmd_semidirect(args):
    rep = load_rep(args.rep)
    semi = rep.semidirect
    report = verify_hom_lie(semi)
    payload = algebra_to_dict(semi)
    if args.out:
        _write_json(args.out, payload)
    data = {"algebra": payload, "hom_lie": report.ok}
    return report.ok, data, report.failures


def _cmd_cohomology(args):
    rep = load_rep(args.rep)
    coeff = rep
    if args.operator:
        coeff = rho_t(rep.algebra, rep, load_operator(args.operator))
    top = args.max_arity
    if top is None:
        top = coeff.algebra.dim
    if top < 0:
        raise SchemaError("--max-arity must be non-negative")
    if top > coeff.algebra.dim:
        raise SchemaError(f"--max-arity {top} exceeds the limit "
                          f"{coeff.algebra.dim}, the dimension of the "
                          f"complex's algebra: every higher cochain space "
                          f"is zero")
    kind = "operator" if args.operator else "representation"
    # delta squares to zero only on valid structures; refuse a table that
    # would report dimensions of something that is not a complex.
    algebra_report = verify_hom_lie(rep.algebra)
    rep_report = verify_representation(rep)
    if not (algebra_report.ok and rep_report.ok):
        data = {"complex": kind, "hom_lie": algebra_report.ok,
                "representation": rep_report.ok}
        return False, data, algebra_report.failures + rep_report.failures
    table = [{
        "arity": dims.arity,
        "cochains": dims.dim_cochains,
        "cocycles": dims.dim_cocycles,
        "coboundaries": dims.dim_coboundaries,
        "h": dims.dim_h,
    } for dims in cohomology_table(coeff, top)]
    data = {"complex": kind, "regular": coeff.is_regular, "table": table}
    return True, data, ()


def _cmd_check_o_operator(args):
    rep = load_rep(args.rep)
    g = rep.algebra
    t = load_operator(args.operator)
    report = is_o_operator(g, rep, t)
    graph = graph_check(g, rep, t)
    nijenhuis = nijenhuis_operator_check(rep.semidirect, build_nt(t))
    verdicts = [report.ok, graph.ok, nijenhuis.ok]
    data = {
        "o_operator": _report_fields(report, ("intertwines", "quadratic")),
        "graph": _report_fields(graph, ("bracket_closed", "twist_closed")),
        "nijenhuis_on_semidirect": _report_fields(
            nijenhuis, ("commutes_with_twist", "identity")),
    }
    if rep.is_regular:
        mc = o_operator_maurer_cartan_check(g, rep, t)
        data["maurer_cartan"] = _report_fields(
            mc, ("twist_compatible", "derived_square_zero"))
        verdicts.append(mc.ok)
    else:
        data["maurer_cartan"] = None
    data["routes_agree"] = len(set(verdicts)) == 1
    return report.ok, data, report.failures


def _cmd_check_rota_baxter(args):
    g = load_algebra(args.algebra)
    r = load_operator(args.operator)
    weight = parse_scalar(args.weight)
    report = is_rota_baxter(g, r, s=args.degree, weight=weight)
    data = _report_fields(report, ("commutes_with_twist", "identity"))
    data["degree"] = args.degree
    data["weight"] = format_scalar(weight)
    return report.ok, data, report.failures


def _cmd_check_nijenhuis_operator(args):
    g = load_algebra(args.algebra)
    n = load_operator(args.operator)
    report = nijenhuis_operator_check(g, n)
    data = _report_fields(report, ("commutes_with_twist", "identity"))
    return report.ok, data, report.failures


def _cmd_induced_pre_lie(args):
    rep = load_rep(args.rep)
    t = load_operator(args.operator)
    pre = induced_hom_pre_lie(rep.algebra, rep, t)
    report = verify_hom_pre_lie(pre)
    data = {
        "pre_lie": pre_lie_to_dict(pre),
        "axioms": _report_fields(report,
                                 ("twist_multiplicative", "left_symmetry")),
        "subadjacent": algebra_to_dict(subadjacent(pre)),
    }
    return report.ok, data, report.failures


def _cmd_rho_t(args):
    rep = load_rep(args.rep)
    t = load_operator(args.operator)
    induced = rho_t(rep.algebra, rep, t)
    report = verify_representation(induced)
    data = {
        "representation": rep_to_dict(induced),
        "axioms": _report_fields(report,
                                 ("twist_intertwine", "module_equation")),
    }
    return report.ok, data, report.failures


def _cmd_check_linear_deformation(args):
    rep = load_rep(args.rep)
    t = load_operator(args.operator)
    k = load_operator(args.generator)
    report = linear_deformation_check(rep.algebra, rep, t, k)
    data = _report_fields(report, ("cocycle", "generator_twist_compatible",
                                   "generator_quadratic"))
    data["generator_is_o_operator"] = report.generator_is_o_operator
    return report.valid, data, report.failures


def _cmd_nijenhuis_element(args):
    rep = load_rep(args.rep)
    g = rep.algebra
    t = load_operator(args.operator)
    x = load_vector(args.element)
    if len(x) != g.dim:
        raise SchemaError(f"{args.element}.vector: expected {g.dim} entries")
    element = nijenhuis_element_check(g, rep, t, x)
    data = {
        "element": _report_fields(
            element, ("fixed_by_twist", "bracket_square", "action_square",
                      "generator_bracket")),
    }
    if not element.fixed_by_twist:
        data["generator"] = None
        data["certificate_holds"] = None
        return False, data, element.failures
    result = trivial_deformation_from_nijenhuis(g, rep, t, x, element)
    data["generator"] = matrix_to_rows(result.generator)
    data["linear_deformation"] = _report_fields(
        result.linear_report, ("cocycle", "generator_twist_compatible",
                               "generator_quadratic"))
    data["certificate"] = [
        {"condition": name, "degree": k, "holds": holds}
        for name, k, holds in result.certificate.conditions()
    ]
    data["certificate_holds"] = result.certificate.ok
    return result.ok, data, result.failures


def _cmd_deform_check(args):
    rep = load_rep(args.rep)
    g = rep.algebra
    d = load_deformation(args.deformation)
    report = formal_deformation_check(g, rep, d)
    data = {
        "order": d.order,
        "twist_compatible": report.twist_compatible,
        "per_order": [{"order": k, "holds": h} for k, h in report.per_order],
        "first_failing_order": report.first_failing_order,
    }
    if report.base_ok:
        inf = infinitesimal_check(g, rep, d, _formal=report)
        data["infinitesimal"] = {
            "index": inf.index,
            "twist_compatible": inf.twist_compatible,
            "is_cocycle": inf.is_cocycle,
            "note": inf.note,
        }
    else:
        data["infinitesimal"] = None
    return report.ok, data, report.failures


def _cmd_deform_extend(args):
    rep = load_rep(args.rep)
    g = rep.algebra
    d = load_deformation(args.deformation)
    target = args.max_order
    if target is None:
        target = d.order + 1
    if target <= d.order:
        raise SchemaError("--max-order must exceed the current order")
    current = d
    obstructed_at = None
    for last in extension_steps(g, rep, d, target):
        if last.obstructed:
            obstructed_at = current.order + 1
        else:
            current = last.extended
    data = {
        "reached_order": current.order,
        "obstructed_at": obstructed_at,
        "deformation": deformation_to_dict(current),
        "last_step": {
            "theta": cochain_to_dict(last.theta, source="V"),
            "dim_image": last.dim_image,
            "dim_h2": last.dim_h2,
        },
    }
    if args.out:
        _write_json(args.out, data["deformation"])
    failures = ()
    if obstructed_at is not None:
        failures = (f"obstructed at order {obstructed_at}: the obstruction "
                    f"is not a coboundary",)
    return obstructed_at is None, data, failures


def _cmd_obstruction(args):
    rep = load_rep(args.rep)
    g = rep.algebra
    d = load_deformation(args.deformation)
    theta = obstruction(g, rep, d)
    is_cocycle = coboundary(rho_t(g, rep, d.base, unchecked=True),
                            theta).is_zero()
    data = {
        "order": d.order + 1,
        "theta": cochain_to_dict(theta, source="V"),
        "theta_is_zero": theta.is_zero(),
        "is_cocycle": is_cocycle,
    }
    failures = ()
    if not is_cocycle:
        failures = ("the obstruction is not a cocycle",)
    return is_cocycle, data, failures


def _cmd_rmatrix_check(args):
    g = load_algebra(args.algebra)
    r = load_rmatrix(args.rmatrix, dim=g.dim)
    report = is_r_matrix(g, r)
    data = {
        "wedge_square_zero": report.wedge_square_zero,
        "cybe_zero": report.cybe_zero,
        "o_operator": _report_fields(report.operator_report,
                                     ("intertwines", "quadratic")),
        "routes_agree": report.routes_agree,
        "wedge_square": {
            ",".join(str(i) for i in idx): format_scalar(q)
            for idx, q in report.wedge_square
        },
    }
    if report.verdict:
        data["dual_algebra"] = algebra_to_dict(
            induced_dual_bracket(g, r, _report=report))
    return report.verdict, data, report.failures


def _cmd_rmatrix_convert(args):
    document = load_json(args.input)
    if isinstance(document, dict) and "wedge" in document:
        r = rmatrix_from_dict(document, dim=args.dim, where=args.input)
        payload = {"matrix": matrix_to_rows(r)}
    elif isinstance(document, dict) and "matrix" in document:
        m = operator_from_dict(document, where=args.input)
        payload = rmatrix_to_dict(require_skew(m))
    else:
        raise SchemaError(
            f'{args.input}: expected a "wedge" or "matrix" document')
    if args.out:
        _write_json(args.out, payload)
    return True, payload, ()


def _cmd_weak_hom_check(args):
    g = load_algebra(args.algebra)
    phi = load_operator(args.phi)
    psi = load_operator(args.psi)
    r1 = load_rmatrix(args.r1, dim=g.dim)
    r2 = load_rmatrix(args.r2, dim=g.dim)
    report = weak_homomorphism_check(g, phi, psi, r1, r2)
    data = _report_fields(report, (
        "phi_bracket_homomorphism", "phi_twist_commute", "psi_twist_commute",
        "tensor_condition", "bracket_condition"))
    data["operator_hom"] = _report_fields(
        report.operator_hom, ("algebra_morphism", "operator_intertwine",
                              "module_twist", "action_equivariant"))
    data["operator_hom_agrees"] = report.operator_hom_agrees
    return report.ok, data, report.failures


# verb: (handler, help, arguments); a str is a positional argument and a
# pair is an option with its add_argument keywords.  Every verb also
# takes --json.  Parsers list the verbs in this order.
VERBS = {
    "verify-algebra": (
        _cmd_verify_algebra, "check the hom-Lie axioms of an algebra file",
        ("algebra",)),
    "verify-rep": (
        _cmd_verify_rep, "check the representation axioms of a rep file",
        ("rep",)),
    "semidirect": (
        _cmd_semidirect, "build the semidirect sum of a representation",
        ("rep", ("--out", {"help": "write the resulting algebra to a file"}))),
    "cohomology": (
        _cmd_cohomology,
        "cochain, cocycle, coboundary, and H dimensions per arity",
        ("rep", ("--max-arity", {"type": int}),
         ("--operator",
          {"help": "use the complex attached to this O-operator"}))),
    "check-o-operator": (
        _cmd_check_o_operator,
        "check an operator against a representation, all routes",
        ("rep", "operator")),
    "check-rota-baxter": (
        _cmd_check_rota_baxter,
        "check the degree-s weighted Rota-Baxter identity",
        ("algebra", "operator", ("--degree", {"type": int, "default": 0}),
         ("--weight", {"default": "0"}))),
    "check-nijenhuis-operator": (
        _cmd_check_nijenhuis_operator,
        "check the Nijenhuis identity on an algebra", ("algebra", "operator")),
    "induced-pre-lie": (
        _cmd_induced_pre_lie,
        "the product {T(u), v} on the module of an O-operator",
        ("rep", "operator")),
    "rho-t": (
        _cmd_rho_t, "the representation induced by an O-operator",
        ("rep", "operator")),
    "check-linear-deformation": (
        _cmd_check_linear_deformation,
        "whether T + tK deforms the O-operator T linearly",
        ("rep", "operator", "generator")),
    "nijenhuis-element": (
        _cmd_nijenhuis_element,
        "check an element and certify the trivial deformation it makes",
        ("rep", "operator", "element")),
    "deform-check": (
        _cmd_deform_check, "check a truncated deformation order by order",
        ("rep", "deformation")),
    "deform-extend": (
        _cmd_deform_extend,
        "extend a deformation order by order while unobstructed",
        ("rep", "deformation", ("--max-order", {"type": int}),
         ("--out", {"help": "write the extended deformation to a file"}))),
    "obstruction": (
        _cmd_obstruction,
        "the obstruction cochain of the next order, and its cocycle test",
        ("rep", "deformation")),
    "rmatrix-check": (
        _cmd_rmatrix_check,
        "check a skew two-tensor along all three r-matrix routes",
        ("algebra", "rmatrix")),
    "rmatrix-convert": (
        _cmd_rmatrix_convert,
        "convert between wedge coefficients and the operator matrix",
        ("input",
         ("--dim", {"type": int,
                    "help": "dimension for wedge input without a dim key"}),
         ("--out", {"help": "write the converted form to a file"}))),
    "weak-hom-check": (
        _cmd_weak_hom_check,
        "check a weak homomorphism between two r-matrices",
        ("algebra", "phi", "psi", "r1", "r2")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The root parser with the subparser of every verb, in VERBS order;
    built once per process, for the first argv that read_argv leaves to
    it.

    argparse keeps no state between parse_args calls and looks up
    sys.stderr only when it prints, so one tree serves repeated main
    calls, redirected streams and usage errors alike.
    """
    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Exact checks and constructions for hom-Lie algebras, "
                    "O-operators, deformations, and r-matrices.",
    )
    subparsers = parser.add_subparsers(dest="verb", required=True)
    for name, (_, help_text, arguments) in VERBS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--json", action="store_true",
                         help="emit one JSON object instead of text")
        for argument in arguments:
            if isinstance(argument, str):
                sub.add_argument(argument)
            else:
                sub.add_argument(argument[0], **argument[1])
    return parser


def read_argv(argv: list) -> argparse.Namespace | None:
    """The Namespace that build_parser().parse_args(argv) returns, read
    off VERBS without a parser when argv is a well-formed call; None for
    any other argv.

    A well-formed call is a verb followed by its positionals in order,
    --json, and the verb's own options, each written as the two tokens
    --opt VALUE, where VALUE passes the option's type and either does
    not start with "-" or is "-" and decimal digits: argparse takes such
    a token as a negative number, a value, since no option looks like
    one.  No other token starts with "-", and no flag comes twice.
    Help, "--", "=" forms, abbreviations, other values that start with
    "-" and missing or extra arguments are left to argparse.
    """
    if not argv or argv[0] not in VERBS:
        return None
    arguments = VERBS[argv[0]][2]
    names = [a for a in arguments if isinstance(a, str)]
    options = dict(a for a in arguments if not isinstance(a, str))
    values, positionals = {"verb": argv[0], "json": False}, []
    tokens = iter(argv[1:])
    for token in tokens:
        dest = token[2:].replace("-", "_")
        if token == "--json" and not values["json"]:
            values["json"] = True
        elif token in options and dest not in values:
            value = next(tokens, "-")
            if value.startswith("-") and not value[1:].isdecimal():
                return None
            try:
                values[dest] = options[token].get("type", str)(value)
            except ValueError:
                return None
        elif token.startswith("-"):
            return None
        else:
            positionals.append(token)
    if len(positionals) != len(names):
        return None
    values.update(zip(names, positionals))
    for flag, keywords in options.items():
        values.setdefault(flag[2:].replace("-", "_"), keywords.get("default"))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    """Run one verb; argv defaults to sys.argv[1:].

    read_argv reads a well-formed call without building a parser.  Any
    other argv goes to the full tree: it prints help, and its usage
    errors list every verb.  If the reader of stdout has gone before the
    output is written, the call ends with exit 2 and no traceback.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv) or build_parser().parse_args(argv)
    try:
        verdict, data, failures = VERBS[args.verb][0](args)
        failure_strings = [str(f) for f in failures]
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "verb": args.verb,
            "verdict": verdict,
            "failures": failure_strings,
            "data": data,
        }
        lines = [json.dumps(payload, indent=2)]
    else:
        lines = [f"{args.verb}: {'OK' if verdict else 'FAIL'}"]
        lines += [f"  {line}" for line in failure_strings[:_FAILURE_CAP]]
        if len(failure_strings) > _FAILURE_CAP:
            lines.append(
                f"  ... {len(failure_strings) - _FAILURE_CAP} more failures")
        if data:
            lines.append(json.dumps(data, indent=2))
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # Python flushes stdout again at exit; with stdout on os.devnull
        # that flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
