"""Alternating multilinear combinatorics.

Alternating k-linear maps are stored by their values on strictly
increasing basis index tuples.  Evaluating such a map on arbitrary
vectors expands the wedge of the arguments in the basis.  wedge_coords
is the one such expansion in the package: it multiplies the factors in
one at a time, extending every monomial by each nonzero coordinate of
the next factor.  A repeated index is skipped before any sorting, and a
new index is inserted into the sorted monomial, with the sign of the
transpositions it passes.  The work follows the nonzero coordinates, not
the C(dim, k) index sets.

Shuffle permutations are produced by choosing which argument positions
feed each block; the sign of a shuffle is the sign sort_with_sign finds
when it sorts the shuffle.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from typing import Iterator, Sequence

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
        terms = {key: c for key, c in expanded.items() if c}
    return terms


def shuffles(p: int, q: int) -> Iterator[tuple]:
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
