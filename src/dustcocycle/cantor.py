"""Exact evaluation of the ternary staircase function and its planar square.

At a triadic point p/3**n the limit staircase value is an exact dyadic
rational obtained by the digit rule: ternary digits 0 and 2 become binary
digits 0 and 1; the first ternary digit 1 emits a final binary 1 and stops
(plateau).  The level-n approximants that cross-check this rule on
arbitrary reals are a test reference (``tests/reference.py``).

The planar map applies the staircase coordinatewise and lands in the unit
square read as a torus: coordinate value 1 is identified with 0.  Under this
map the level-n dust squares tile the 2**n-fold dyadic subdivision corner by
corner, which is what makes pullback summation and subdivision summation
termwise equal; :func:`image_cell` checks it square by square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import DyadicCell, SquareGeom, vertices


class DigitMapError(RuntimeError):
    """A dust square whose vertex images do not line up with a dyadic cell."""


@dataclass(frozen=True)
class DyadicValue:
    """Exact dyadic rational k / 2**level."""

    k: int
    level: int

    def __post_init__(self):
        if not (0 <= self.k <= 2**self.level):
            raise ValueError(f"dyadic numerator {self.k} out of range at level {self.level}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.k, 2**self.level)


def cantor_dyadic(p: int, n: int) -> DyadicValue:
    """Exact staircase value at p / 3**n.

    Scans the n ternary digits of p from the most significant: digit d in
    {0, 2} contributes bit d/2, the first digit 1 contributes a final bit 1.
    p = 3**n returns exactly 1.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if not (0 <= p <= 3**n):
        raise ValueError(f"numerator {p} out of range for level {n}")
    if p == 3**n:
        return DyadicValue(2**n, n)
    k = 0
    for j in range(n):
        d = (p // 3 ** (n - 1 - j)) % 3
        if d == 1:
            k = ((k << 1) | 1) << (n - 1 - j)
            return DyadicValue(k, n)
        k = (k << 1) | (d >> 1)
    return DyadicValue(k, n)


def image_cell(sq: SquareGeom) -> DyadicCell:
    """The dyadic cell that a dust square maps onto, with vertex order checked.

    The cell corner is the image of v0; the images of v0..v3 must be exactly
    the cell's four corners in matching order, otherwise the digit map is
    broken and :class:`DigitMapError` is raised.
    """
    n = sq.level
    vs = vertices(sq)
    cu = cantor_dyadic(vs[0].px, n)
    cv = cantor_dyadic(vs[0].py, n)
    cell = DyadicCell(cu.k, cv.k, n)
    expected = (
        (cu.k, cv.k),
        (cu.k + 1, cv.k),
        (cu.k + 1, cv.k + 1),
        (cu.k, cv.k + 1),
    )
    for vert, (ei, ej) in zip(vs, expected):
        iu = cantor_dyadic(vert.px, n)
        iv = cantor_dyadic(vert.py, n)
        if (iu.k, iv.k) != (ei, ej):
            raise DigitMapError(
                f"square {sq.word} vertex ({vert.px},{vert.py})/3^{n} maps to "
                f"({iu.k},{iv.k})/2^{n}, expected ({ei},{ej})/2^{n}"
            )
    return cell
