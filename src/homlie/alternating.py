"""Alternating multilinear combinatorics.

Alternating k-linear maps are stored by their values on strictly
increasing basis index tuples.  Evaluating such a map on arbitrary
vectors expands the wedge of the arguments in the basis.  wedge_extend
is the one wedge step in the package: it multiplies a wedge, given by
its coordinates, by one more factor, extending every monomial by each
nonzero coordinate of that factor.  A repeated index is skipped before
any sorting, and a new index is inserted into the sorted monomial, with
the sign of the transpositions it passes.  The work follows the nonzero
coordinates, not the C(dim, k) index sets.  wedge_coords multiplies its
factors in one step at a time; tuple_wedges expands the wedges of every
k-subset of a list of vectors, each one step from the wedge of its
prefix, so subsets that share a prefix share its expansion.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from typing import Sequence

from .linalg import Vector


def increasing_tuples(dim: int, k: int) -> list:
    """All strictly increasing k-tuples drawn from range(dim), in order."""
    return [tuple(c) for c in combinations(range(dim), k)]


def sort_with_sign(indices: Sequence[int]) -> tuple | None:
    """Sort an index tuple, tracking the permutation sign.

    Returns (sorted_tuple, sign) or None when two indices coincide, in
    which case the corresponding alternating value is zero.
    """
    items = list(indices)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return tuple(items), sign


def wedge_coords(vectors: Sequence[Vector], dim: int) -> dict:
    """Coordinates of v1 ^ ... ^ vk on increasing basis tuples.

    Every vector has dim coordinates.  Zero coefficients are omitted, and
    the empty wedge (k = 0) is {(): 1}.
    """
    terms = {(): 1}
    for v in vectors:
        if len(v) != dim:
            raise ValueError("wedge factor has the wrong length")
        terms = wedge_extend(terms, v)
    return terms


def wedge_extend(terms: dict, v: Vector) -> dict:
    """The coordinates of w ^ v, for w given by its coordinates terms
    (an {increasing tuple: scalar} dict) and v a coordinate vector."""
    support = [(b, entry) for b, entry in enumerate(v) if entry]
    expanded = {}
    for monomial, c in terms.items():
        for b, entry in support:
            if b in monomial:
                continue
            # Inserting b passes every index above it: one
            # transposition each.
            at = bisect(monomial, b)
            key = monomial[:at] + (b,) + monomial[at:]
            term = -(c * entry) if (len(monomial) - at) % 2 else c * entry
            expanded[key] = expanded[key] + term if key in expanded else term
    return {key: c for key, c in expanded.items() if c}


def tuple_wedges(vectors: Sequence[Vector], k: int) -> list:
    """[(I, wedge_coords of the vectors[i], i in I)] for every increasing
    k-tuple I of range(len(vectors)), in combinations order.

    Each wedge is one wedge_extend step from the wedge of its prefix
    I[:-1], so tuples that share a prefix share its expansion.
    """
    n = len(vectors)
    level = [((), {(): 1})]
    for depth in range(k):
        last = n - k + depth  # the largest index that still leaves room
        level = [(tup + (i,), wedge_extend(w, vectors[i]))
                 for tup, w in level
                 for i in range(tup[-1] + 1 if tup else 0, last + 1)]
    return level
