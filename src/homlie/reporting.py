"""Structured check results shared by the verifier functions.

Every verifier in this package reports failures instead of raising, so a
failing structure can be diagnosed from the CLI.  A Failure pins down one
violated identity: the law's machine name, the basis indices where it
breaks, and the two evaluated sides (coordinate tuples, exact rationals).
Its text renders every coordinate as a Fraction, whether it is held as
an int or a Fraction.

Every law report subclasses Report, which holds the failure list and
the verdict ok = holds().  A report stores its failures and the data
that is not a verdict, never a verdict itself: each verdict is
holds(...) of its laws, read off the failure list, so the two cannot
disagree.  A report with no other data is a plain subclass, with no
dataclass decorator of its own; one that carries data is a frozen
dataclass whose fields follow failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vector


@dataclass(frozen=True)
class Failure:
    """One violated identity at one basis tuple."""

    law: str
    indices: tuple
    lhs: Vector | None = None
    rhs: Vector | None = None

    def __str__(self) -> str:
        where = ",".join(str(i) for i in self.indices)
        if self.lhs is None and self.rhs is None:
            return f"{self.law} fails at ({where})"
        lhs, rhs = (None if v is None else tuple(Fraction(x) for x in v)
                    for v in (self.lhs, self.rhs))
        return f"{self.law} fails at ({where}): lhs={lhs} rhs={rhs}"


def holds(*laws: str) -> property:
    """A report property that is true when no failure has one of the
    named laws; with no names, when there is no failure at all."""
    return property(lambda report: not any(
        not laws or f.law in laws for f in report.failures))


@dataclass(frozen=True)
class Report:
    """The failures of a law check, and its verdict: no failure at all."""

    failures: tuple
    ok = holds()


def matrix_failures(law: str, index: tuple, lhs, rhs) -> list:
    """Compare two matrices, reporting one Failure per differing column.

    The column index is appended to the given base index so the failure
    names the exact basis vector on which the two operators disagree.
    """
    failures = []
    for j in range(lhs.ncols):
        left = lhs.column(j)
        right = rhs.column(j)
        if left != right:
            failures.append(Failure(law, index + (j,), left, right))
    return failures
