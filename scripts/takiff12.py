"""Cohomology tables of the Takiff-12 algebra, with their cost.

    python3 scripts/takiff12.py [CHECKOUT] [--table NAME ...]

Takiff-12 is semidirect_product(adjoint_rep(semidirect_product(
adjoint_rep(sl2)))): dim 12, identity twist, unimodular.  The tables are

    adjoint   the adjoint representation, arities 0..3;
    adjoint-full
              the adjoint representation, arities 0..12 (run only
              when named);
    twisted   Takiff-12 twisted by exp(ad e) (a twist that is not
              diagonal), adjoint representation, arities 0..4;
    diagonal  Takiff-12 twisted by D = diag(1, 2, 1/2) on each (h, e, f)
              block (diagonal, with denominators), adjoint
              representation, arities 0..12;
    trivial   trivial one-dimensional coefficients, arities 0..12.

Both twists are Lie automorphisms of Takiff-12, applied with
from_lie_with_morphism.

CHECKOUT is a checkout root (default this one); its src/homlie is
imported.  Each table runs in a fresh interpreter, so each line reports
that table alone: H^n for every n, the CPU seconds of cohomology_table
and the peak resident set size (ru_maxrss) of the process.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = ("adjoint", "twisted", "diagonal", "trivial", "adjoint-full")
DEFAULT_TABLES = TABLES[:4]


def exp_nilpotent(homlie, n):
    """exp(N) = sum_k N^k / k! for a nilpotent matrix N."""
    linalg = homlie.linalg
    total = term = linalg.Matrix.identity(n.nrows)
    k = 1
    while True:
        term = (term @ n).scale(linalg.Q(1, k))
        if term.is_zero():
            return total
        total = total + term
        k += 1


def complex_of(homlie, name: str):
    """(coefficient representation, top arity) of one table."""
    s = homlie.structures
    takiff = s.semidirect_product(s.adjoint_rep(
        s.semidirect_product(s.adjoint_rep(s.sl2()))))
    if name == "trivial":
        rep, top = s.trivial_rep(takiff), takiff.dim
    elif name == "adjoint":
        rep, top = s.adjoint_rep(takiff), 3
    elif name == "adjoint-full":
        rep, top = s.adjoint_rep(takiff), takiff.dim
    elif name == "diagonal":
        d = homlie.linalg.Matrix.diagonal([1, 2, homlie.linalg.Q(1, 2)] * 4)
        rep = s.adjoint_rep(s.from_lie_with_morphism(takiff, d))
        top = takiff.dim
    else:
        e = homlie.linalg.basis_vector(takiff.dim, 1)
        ad_e = homlie.linalg.Matrix.from_columns(
            [takiff.bracket(e, homlie.linalg.basis_vector(takiff.dim, j))
             for j in range(takiff.dim)], nrows=takiff.dim)
        twisted = s.from_lie_with_morphism(takiff, exp_nilpotent(homlie, ad_e))
        rep, top = s.adjoint_rep(twisted), 4
    return rep, top


def run_one(checkout: str, name: str) -> dict:
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    import homlie.cochain
    import homlie.structures

    rep, top = complex_of(homlie, name)
    start = time.process_time()
    table = homlie.cochain.cohomology_table(rep, top)
    cpu = time.process_time() - start
    # ru_maxrss is in kilobytes on Linux.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"table": name, "h": [row.dim_h for row in table],
            "cpu_s": round(cpu, 3), "maxrss_mb": round(rss, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", nargs="?", default=ROOT)
    parser.add_argument("--table", action="append", choices=TABLES,
                        help="repeatable; default adjoint, twisted, "
                             "diagonal and trivial")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_one(args.checkout, args.table[0])))
        return 0
    for name in args.table or DEFAULT_TABLES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), args.checkout,
             "--table", name, "--child"],
            capture_output=True, text=True, check=False)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return 1
        row = json.loads(done.stdout)
        print(f"{row['table']:12} H = {', '.join(map(str, row['h']))}; "
              f"{row['cpu_s']:.2f} s CPU, {row['maxrss_mb']:.1f} MB maxrss")
    return 0


if __name__ == "__main__":
    sys.exit(main())
