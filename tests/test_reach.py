"""The functions of src/ that no golden case reaches, counted by
scripts/reach.py, stay within a recorded list.

A function that no verb of the golden corpus runs is either a library
entry point with its own tests or code that nothing needs.  A change
that adds such a function has to add it to UNREACHED on purpose; one
that makes a listed function reachable, or removes it, may drop it.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

UNREACHED = {
    "cli.py:_write_json",
    "cli.py:build_parser",
    "cochain.py:Cochain.zero",
    "cochain.py:Cochain.evaluate",
    "cochain.py:Cochain._require_like",
    "cochain.py:Cochain.__add__",
    "cochain.py:Cochain.__sub__",
    "cochain.py:twist_defects",
    "cochain.py:compatible_maps_basis",
    "cochain.py:coboundary_matrix",
    "cochain.py:cohomology_dims",
    "deformation.py:InfinitesimalReport.ok",
    "deformation.py:ExtensionResult.ok",
    "deformation.py:extend_order",
    "deformation.py:equivalence_check",
    "graded.py:_product_arity",
    "graded.py:circle_product",
    "graded.py:nr_bracket",
    "graded.py:check_maurer_cartan",
    "linalg.py:densify",
    "linalg.py:Matrix.__repr__",
    "linalg.py:Matrix.__sub__",
    "linalg.py:Matrix.scale",
    "linalg.py:matrix",
    "ooperator.py:rb_induced_bracket",
    "rmatrix.py:invariant_wedge_basis",
    "rmatrix.py:invariant_two_tensor_basis",
    "rmatrix.py:TransferReport.operator_valid",
    "rmatrix.py:TransferReport.routes_agree",
    "rmatrix.py:rmatrix_deformation_transfer",
    "structures.py:default_basis",
    "structures.py:from_lie_with_morphism",
    "structures.py:trivial_rep",
    "structures.py:abelian2",
    "structures.py:aff1",
    "structures.py:aff1_twisted",
    "structures.py:sl2",
    "structures.py:heisenberg3",
    "structures.py:heisenberg3_twisted",
    "structures.py:catalog",
}


def test_no_new_function_is_unreached_by_the_golden_corpus():
    """scripts/reach.py runs in a fresh process, so no cache that an
    earlier test filled hides a function from it."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "reach.py"), ROOT],
        capture_output=True, text=True, timeout=120, check=True)
    *rows, total = done.stdout.splitlines()
    unreached = {row.split()[1] for row in rows}
    assert total.startswith(f"{len(rows)} of ")
    assert unreached <= UNREACHED, sorted(unreached - UNREACHED)
