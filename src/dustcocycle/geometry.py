"""Square-based iterated function systems with exact triadic coordinates.

All maps here are translations composed with scaling by 1/3, so a level-n
square is fully described by its word (symbol sequence), its corner numerators
over 3**n, and the edge 3**-n.  Coordinates stay integers until a kernel
actually needs floats; vertex coincidences and the ternary digit map require
that exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

import numpy as np

# The square budget: the most level-n squares of a scalar or a matrix
# triple that a sum takes unless its caller passes allow_large
# (``cocycle.word_count``); the reference stream always keeps the scalar one.
MAX_SQUARES_SCALAR = 4**12
MAX_SQUARES_MATRIX = 4**10


class BudgetError(ValueError):
    """A run would enumerate more squares than the configured budget."""


@dataclass(frozen=True)
class IfsPreset:
    """A family of similitudes x -> x/3 + offset/3 on the unit square."""

    name: str
    offsets: tuple  # (ox, oy) pairs, each in {0, 1, 2}

    @property
    def nmaps(self):
        return len(self.offsets)

    def offset_arrays(self):
        off = np.array(self.offsets, dtype=np.int64)
        return off[:, 0].copy(), off[:, 1].copy()


CANTOR_DUST = IfsPreset("cantor-dust", ((0, 0), (0, 2), (2, 0), (2, 2)))
SIERPINSKI_CARPET = IfsPreset(
    "sierpinski-carpet",
    tuple(p for p in product((0, 1, 2), repeat=2) if p != (1, 1)),
)
FULL_SUBDIVISION_3 = IfsPreset("full-subdivision-3", tuple(product((0, 1, 2), repeat=2)))

PRESETS = {p.name: p for p in (CANTOR_DUST, SIERPINSKI_CARPET, FULL_SUBDIVISION_3)}


def get_preset(name: str) -> IfsPreset:
    key = name.strip().lower().replace("_", "-")
    if key not in PRESETS:
        raise KeyError(f"unknown IFS preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[key]


@dataclass(frozen=True)
class TriadicPoint:
    """Exact planar point (px/3**level, py/3**level)."""

    px: int
    py: int
    level: int

    def __post_init__(self):
        lim = 3**self.level
        if not (0 <= self.px <= lim and 0 <= self.py <= lim):
            raise ValueError(f"triadic numerators out of range at level {self.level}")

    def as_floats(self):
        d = float(3**self.level)
        return self.px / d, self.py / d

    def as_fractions(self):
        d = 3**self.level
        return Fraction(self.px, d), Fraction(self.py, d)


@dataclass(frozen=True)
class SquareGeom:
    """One level-n square: word address, exact corner numerators, edge 3**-n."""

    word: tuple
    kx: int
    ky: int

    @property
    def level(self):
        return len(self.word)

    @property
    def edge(self) -> Fraction:
        return Fraction(1, 3**self.level)


@dataclass(frozen=True)
class DyadicCell:
    """One cell of the 2**level-fold subdivision: corner (i, j)/2**level."""

    i: int
    j: int
    level: int

    @property
    def edge(self) -> Fraction:
        return Fraction(1, 2**self.level)

    def corner_fractions(self):
        d = 2**self.level
        return Fraction(self.i, d), Fraction(self.j, d)


def enumerate_squares(preset: IfsPreset, n: int) -> Iterator[SquareGeom]:
    """Yield the level-n squares in lexicographic word order.

    Streaming: nothing is materialized.  This is the exact reference the
    tests walk square by square, so it always keeps the scalar budget: more
    than ``MAX_SQUARES_SCALAR`` level-n squares (nmaps**n) are refused with
    :class:`BudgetError`.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if preset.nmaps**n > MAX_SQUARES_SCALAR:
        raise BudgetError(f"{preset.nmaps**n} squares exceed the scalar budget of "
                          f"{MAX_SQUARES_SCALAR}, which the reference stream always keeps")
    offsets = preset.offsets
    for word in product(range(preset.nmaps), repeat=n):
        kx = 0
        ky = 0
        for s in word:
            kx = 3 * kx + offsets[s][0]
            ky = 3 * ky + offsets[s][1]
        yield SquareGeom(word, kx, ky)


def vertices(sq: SquareGeom):
    """The four vertices (v0, v1, v2, v3): corner, right, opposite, up."""
    n = sq.level
    return (
        TriadicPoint(sq.kx, sq.ky, n),
        TriadicPoint(sq.kx + 1, sq.ky, n),
        TriadicPoint(sq.kx + 1, sq.ky + 1, n),
        TriadicPoint(sq.kx, sq.ky + 1, n),
    )


def subdivision_cells(n: int) -> Iterator[DyadicCell]:
    """The 4**n cells of the 2**n-fold subdivision, row-major."""
    if n < 0:
        raise ValueError("level must be >= 0")
    side = 2**n
    for j in range(side):
        for i in range(side):
            yield DyadicCell(i, j, n)


def similarity_dimension(preset: IfsPreset) -> float:
    """The similarity dimension d of ``preset``: the root of Moran's
    equation, sum(r**d) = 1 over its maps' contraction ratios.  Every map
    here scales by 1/3, so the equation is nmaps * 3**-d = 1 and
    d = log(nmaps) / log(3): log 4 / log 3 for the dust, exactly 2 for
    ``full-subdivision-3``."""
    return math.log(preset.nmaps) / math.log(3)
