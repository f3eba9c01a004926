"""Exact references that only the tests use.

The package sums on vertex lattices (``cocycle``, ``_kernels``) and keeps
one exact reference of its own: the digit rule and the square stream
(``cantor``, ``geometry``).  Here are the slower, literal views that the
tests read those by: the staircase's recursive approximants, the
coordinatewise dust image on the torus, exact and float coordinates of
points, squares and cells, and the stream of dyadic cells.

Nothing here imports an engine module (``dustcocycle.cocycle``,
``dustcocycle._kernels``; ``test_imports.py`` checks it), so a reference
cannot share a fault with the sums it checks.  Pytest does not collect
this file: its name does not start with ``test_``.
"""

from fractions import Fraction

from dustcocycle.cantor import DyadicValue, cantor_dyadic
from dustcocycle.geometry import DyadicCell, SquareGeom, TriadicPoint


def cantor_level(x: float, n: int) -> float:
    """Level-n staircase approximant on [0, 1], by the literal recursion.

    Level 0 is the identity; each level halves the value on the outer thirds
    and plateaus at 1/2 on the middle third.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"argument {x} outside [0, 1]")
    if n == 0:
        return x
    if x <= 1.0 / 3.0:
        return 0.5 * cantor_level(min(1.0, 3.0 * x), n - 1)
    if x >= 2.0 / 3.0:
        return 0.5 * cantor_level(min(1.0, max(0.0, 3.0 * x - 2.0)), n - 1) + 0.5
    return 0.5


def dust_image(pt: TriadicPoint) -> tuple[DyadicValue, DyadicValue]:
    """The coordinatewise staircase image (u, v) of a triadic point, reduced
    into [0, 1) x [0, 1): the unit square read as a torus."""
    return tuple(
        DyadicValue(c.k % 2**c.level, c.level)
        for c in (cantor_dyadic(pt.px, pt.level), cantor_dyadic(pt.py, pt.level))
    )


def floats(point) -> tuple[float, float]:
    """The float coordinates (x, y) of a :class:`TriadicPoint`, or of a
    :func:`dust_image` pair."""
    if isinstance(point, TriadicPoint):
        d = float(3**point.level)
        return point.px / d, point.py / d
    return tuple(c.k / float(2**c.level) for c in point)


def fractions(point) -> tuple[Fraction, Fraction]:
    """The exact coordinates (x, y) of a :class:`TriadicPoint`, or of the
    corner of a :class:`DyadicCell`."""
    if isinstance(point, TriadicPoint):
        d = 3**point.level
        return Fraction(point.px, d), Fraction(point.py, d)
    d = 2**point.level
    return Fraction(point.i, d), Fraction(point.j, d)


def edge(square) -> Fraction:
    """The edge of a :class:`SquareGeom`, 3**-level, or of a
    :class:`DyadicCell`, 2**-level."""
    return Fraction(1, (3 if isinstance(square, SquareGeom) else 2) ** square.level)


def subdivision_cells(n: int):
    """The 4**n cells of the 2**n-fold subdivision, row-major."""
    if n < 0:
        raise ValueError("level must be >= 0")
    side = 2**n
    for j in range(side):
        for i in range(side):
            yield DyadicCell(i, j, n)
