"""The combinatorial integration engine.

``phi_n`` streams the level-n squares of one of the three IFS presets of
``geometry.PRESETS`` in word order,
evaluates a function triple at the four vertices of each square, applies the
per-square trace kernel and reduces the nmaps**n terms through a fixed-shape
pairwise tree over leaves of up to 4096 words.  The tree shape depends only
on the layout and the level, never on the worker count, so results are
bit-identical however the work is spread.  Every sum returns through :func:`_sum_kernel`, which
refuses one that is not finite.

Every sum is one walk over aligned tiles of one shape.  Its source
(:class:`_Source`) is one :class:`_Tile`, the vertex lattice of a run of
words as integer offsets from the tile's origin, with the lattice's cells
as the kernels take them and where each word's cell sits among them,
built once per layout and level and kept, read-only, for the process; a
function that places a tile from its first word (pullback and direct
sources read it from one digit-map call per sum, made on the indices of
all the sum's tiles over the digits above the tile's); and the
coordinates' denominator.  There are three sources:

* pullback (the staircase images of the vertices, over 2**n): the image
  cells of the dust squares are the Z-order (Morton) walk of the
  2**n x 2**n torus cells, so 4**m words, m = min(n, 8), are one aligned
  2**m x 2**m tile (for n <= 8, the whole grid), in the same Morton order at
  every level, tile t placed at 2**m times the image bits of its n - m
  digits and wrapped with ``& mask`` onto the periodic torus;
* subdivision (``phi_subdivision``, over 2**n): cell w of the plain dyadic
  subdivision, in row-major order, is at column w & mask and row w >> n; a
  tile is min(2**n, 65536) columns by as many whole rows as fit in 16
  leaves, its cells in row-major order.  It never uses the Morton order, so
  the pullback = subdivision check compares two independently ordered sums,
  termwise equal because dust squares biject onto cells with
  order-preserving corners.  Its coordinates do not wrap: a cell's far edge
  keeps the value 1, so plain coordinate functions keep their Riemann sums;
* direct (the vertices themselves, over 3**n): a tile is the nmaps**k words
  of one level-k sub-fractal, k = min(n, :func:`_direct_level`), 7 on the
  dust (4**7 words, 4 leaves), 5 on the carpet (8**5 words, 8 leaves) and
  on ``full-subdivision-3`` (9**5 words, 14 leaves and a short one), tile t
  placed at 3**k times the corner numerators of its n - k digits.

Each parallel task is one tile, sized by one rule (:func:`_tile_level`):
its lattice holds at most 2**16 vertices, a box's far row and column
aside, so at most 65536 words.  A pullback tile holds 256 x 256 cells, a
subdivision tile 65536, a carpet or ``full-subdivision-3`` box 243 x 243,
and the dust's quadrant lattice (2, 2, 128, 128), four vertices per word,
one 16384-cell kernel block.  The kernel runs on a tile's lattice whole,
its values are gathered into word order with one
``np.take``, and they are summed in leaves counted from its first word, the
last one short where a tile is not a whole number of leaves.  A tile is
whole leaves or the whole grid, so the leaves are those of the word stream,
but on ``full-subdivision-3`` from level 6 on, where they follow its tiles.
The leaves, and so the sum, depend on the level alone, never on the worker
count.  The gather passes ``mode="clip"``, under which numpy writes into
``out=`` directly, where the default ``mode="raise"`` buffers it; the tests
check once that every tile's order is in bounds.

A tile's lattice is a tensor product: each observable's rule gets a row of
u and a column of v that broadcast to it, 257 of each for a 256 x 256
pullback tile, so a product rule such as cos 2 pi u * cos 2 pi v calls its
transcendentals H + W times, not H * W.  A scalar rule's row, column or
constant stays compact, as the rule returned it, its shape (that of the
tile's row of u or column of v, or one value) naming the edges that are
exact zeros; other values are flattened, a C-contiguous one as a view.  A row g with a column h goes to the scalar
kernel compact, whatever their values, and it forms each block's X Y as one
outer product of their edges; any other compact value that the kernel reads is
copied into a flat lattice in the worker's workspace (f for its corners,
a row or column whose partner is not the matching column or row, a
constant g or h), which the kernel's general path reads like any other
flat lattice, forming every product.  The trace kernel takes flat
lattices whole, with the flat corner offsets of cell 0.  Pullback and
subdivision tiles, and the (3**k + 1)**2 boxes around the carpet's and
``full-subdivision-3``'s, are plain H x W lattices, a (1, W) row and an
(H, 1) column, with offsets (0, 1, W + 1, W): cell (i, j) is k = i W + j,
the last cell of each row is a padded one whose x-edge wraps into the next
row, computed and dropped, and the last row's is left out, so the kernel
runs on (H - 1) W - 1 cells and never reads past the lattice; box cells in
a carpet hole are computed and dropped too (1.8x the squares at k = 5).
The dust's direct squares share no vertices: its lattice is (2, 2, h, w),
a (1, 2, 1, w) row of the tile's near and far columns and a (2, 1, h, 1)
column of its near and far rows, whose corners v0..v3 are four contiguous h w blocks at offsets
(0, hw, 3hw, 2hw), with the cells in the pullback's Morton order.  Per
block of consecutive cells the kernel reads f at the corners v0..v3 and g
and h as their x- and y-edge differences, each edge two cells share
subtracted once, every operand one contiguous slice.  Real rules stay
float64 through the kernel's result and its gather in word order, up to
the complex leaf sums; a matrix observable's values
are its (3, N) float64 Bloch vectors, read the same way.
:func:`estimate_lipschitz` takes, per observable, the sup of the values
and the largest edge difference over the tile's own cells
(:func:`_maxima`, the carpet's holes and padded cells left out), on the
same tiles and lattices, a compact row or column read whole as it is.  In a
Lipschitz table, where the estimates of each level follow its sum over the
same triple, the sum's tasks take them from the lattices they evaluate and
the estimates read them back, so each rule is evaluated once per tile;
otherwise the estimates walk the tiles.

A sum hands its task indices out from one shared iterator to
min(workers, tasks) threads, all running one loop: the calling thread alone
when that is one, else as many plain helper threads, started for the sum
and joined before it returns, while the caller waits.  Each of them keeps
one :class:`_kernels.Workspace` for all the tasks it takes: the flat copies
of compact values, kernel temporaries and gathered values reuse its
buffers, and nothing of it outlives the call.  A tile's coordinates are not
among them: they are too small to need it.  A task still allocates its
observables' own values.  A 1-worker sum stays on the caller: run on a
fresh helper, its buffers went to a heap that glibc trims and faults in
again sum after sum, and a 65536-word Lipschitz level took about twice
as long (2-core Xeon VM).
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, takewhile
from time import perf_counter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels as K
from .geometry import (
    CANTOR_DUST, MAX_SQUARES_MATRIX, MAX_SQUARES_SCALAR, PRESETS, BudgetError, IfsPreset,
)
from .oracle import SMOOTH_PRESETS, ProjectionField, TorusFunction

LEAF = 4096
TASK_VERTICES = 1 << 16  # lattice vertices of one parallel task, a box's far row and column aside
_PROJECTION_LEVEL = 6
_PROJECTION_TOL = 1e-10

_WORKERS_ENV = "DUSTCOCYCLE_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """The effective worker count: ``workers`` itself, or for None the value
    of ``DUSTCOCYCLE_WORKERS``, else the CPU count.

    A count that is not an ``int`` of at least 1 (a bool, a float or a
    string is none), or a set environment value that is not a positive
    integer, raises ValueError naming it.
    """
    if workers is not None:
        if type(workers) is not int or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        return workers
    env = os.environ.get(_WORKERS_ENV)
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"{_WORKERS_ENV}={env!r} is not a positive integer")
    return int(env)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    """A function on the dust, evaluated square-vertex-wise by the engine.

    ``rule(u, v)`` is elementwise numpy over float coordinate arrays that
    broadcast against each other: a (1, W) row of u and an (H, 1) column of
    v on a vertex lattice, or a 4-D (1, 2, 1, w) row and (2, 1, h, 1) column
    on the dust's direct tiles.  A scalar
    rule returns a real or complex array that broadcasts to their common
    shape.  A rule of one coordinate should return its row (u only) or
    column (v only) as it is, not multiplied out to the full shape: the
    engine keeps it compact and reads from its shape that its edges along
    the other coordinate are exact zeros.  A row g with a
    column h reaches the scalar kernel compact, which forms each square's
    X Y as a product of their edges and skips the product X' Y' they zero;
    any other row, column or constant the kernel reads is copied into a
    flat lattice for its general path.  Scalar values are not checked: a
    NaN or inf at a vertex of a square makes the sum raise ValueError.
    ``mode`` decides what the engine feeds it: the vertex's own triadic
    coordinates (direct) or the dyadic staircase image on the torus
    (pullback).

    Matrix kind is the 2 x 2 Hermitian unit-trace field
    e = (I + n . sigma) / 2 of a real vector n: the rank-1 projections and
    Bott fields the pairing is defined on.  Its rule returns n itself, a real
    array of shape (3, ...) with n1, n2, n3 along axis 0 that broadcasts to
    (3,) + the common shape; a complex or non-finite result raises
    ValueError naming the observable.  ``dim`` must be 2 (and a scalar
    observable's 0, so the kind fixes it).  Larger matrices,
    non-Hermitian matrix triples and products of matrix observables (a
    product of projections is neither Hermitian nor of unit trace) are not
    supported.

    Nothing reads ``tag``: the field stays only because the benchmark's
    ``perfbench/workloads.py`` passes one.
    """

    name: str
    mode: str  # 'pullback' | 'direct'
    kind: str  # 'scalar' | 'matrix'
    rule: Callable
    tag: str = ""
    dim: int = 0

    def __post_init__(self):
        if self.mode not in ("pullback", "direct"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.kind not in ("scalar", "matrix"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "matrix" and self.dim != 2:
            raise ValueError(
                f"observable {self.name!r}: matrix observables are 2 x 2 "
                f"(Hermitian, unit trace), got dim={self.dim}"
            )
        if self.kind == "scalar" and self.dim != 0:
            raise ValueError(f"observable {self.name!r}: scalar observables have dim=0, "
                             f"got dim={self.dim}")

    def evaluate(self, u, v):
        """The rule's values at (u, v), broadcast to the full (read-only)
        shape: float64 when the rule's result is real, else complex128; for
        matrix kind, the (3, ...) float64 Bloch vectors.

        A result that does not broadcast to that shape, and for matrix kind
        one that is complex or not finite, raises ValueError.
        """
        values, shape = self._values(u, v)
        return np.broadcast_to(values, shape)

    def _values(self, u, v):
        """(values, shape): the rule's values at (u, v) as it returned them,
        checked and cast as :meth:`evaluate` does, with leading axes of
        length 1 added up to the full shape's number; so a rule of u only
        gives its row.  ``shape`` is the full shape."""
        out = np.asarray(self.rule(u, v))
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        if self.kind == "matrix":
            if np.iscomplexobj(out):
                raise ValueError(
                    f"observable {self.name!r}: a matrix rule returns real Bloch "
                    f"vectors (3, ...), got a complex {out.shape} result"
                )
            shape = (3,) + shape
        out = out.astype(np.complex128 if np.iscomplexobj(out) else np.float64, copy=False)
        if self.kind == "matrix" and not np.isfinite(out).all():
            raise ValueError(f"observable {self.name!r} is not finite at every vertex")
        lead = len(shape) - out.ndim
        # a matrix result of fewer axes would broadcast n along the last one
        if (lead == 0 or lead > 0 and self.kind != "matrix") and all(
                m in (1, k) for m, k in zip(out.shape, shape[lead:])):
            return out.reshape((1,) * lead + out.shape), shape
        raise ValueError(
            f"observable {self.name!r}: rule returned shape {out.shape}, "
            f"which does not broadcast to {shape}"
        )

    def __mul__(self, other):
        if not isinstance(other, Observable):
            return NotImplemented
        if self.kind != "scalar" or other.kind != "scalar":
            raise ValueError(
                "only scalar observables multiply: a product of 2 x 2 projections "
                "is neither Hermitian nor of unit trace"
            )
        if self.mode != other.mode:
            raise ValueError("can only multiply observables of equal mode")
        a, b = self.rule, other.rule
        return Observable(
            f"({self.name})*({other.name})", self.mode, "scalar",
            lambda u, v: np.asarray(a(u, v)) * np.asarray(b(u, v)),
        )


def pullback_scalar(tf, name: str | None = None) -> Observable:
    """Torus function composed with the staircase image map."""
    tf = tf if isinstance(tf, TorusFunction) else TorusFunction(name or "fn", tf)
    return Observable(name or tf.name, "pullback", "scalar", tf.fn)


def direct_scalar(fn, name: str) -> Observable:
    """Function of the vertex coordinates themselves."""
    return Observable(name, "direct", "scalar", fn)


def pullback_projection(field: ProjectionField) -> Observable:
    """Matrix projection on the torus composed with the staircase image."""
    return Observable(field.name, "pullback", "matrix", field.__call__, dim=2)


def validate_projection(obs: Observable, n: int):
    """Check e^2 = e at every level-m pullback vertex image, m = min(n, 6):
    the 2**m x 2**m torus grid (i, j) / 2**m, evaluated as a (1, 2**m) row
    of u and a (2**m, 1) column of v.  For e = (I + n . sigma) / 2,
    e^2 - e = (|n|^2 - 1) I / 4, and e = e* holds by construction.

    A level that is not an integer >= 0 raises ValueError before any
    evaluation (:func:`_check_level`); a field that is not a projection
    raises one ValueError, also where |n|^2 overflows.
    """
    if obs.kind != "matrix":
        raise ValueError("projection check needs a matrix observable")
    _check_level(n)
    m = min(n, _PROJECTION_LEVEL)
    grid = np.arange(1 << m) / float(1 << m)
    b = obs.evaluate(grid[None, :], grid[:, None])
    with np.errstate(over="ignore"):  # |n|^2 = inf is refused below, without a warning
        idem = np.abs(b[0] * b[0] + b[1] * b[1] + b[2] * b[2] - 1.0).max() / 4.0
    if idem > _PROJECTION_TOL:
        raise ValueError(
            f"observable {obs.name!r} is not a projection at level-{m} vertices "
            f"(|e^2-e|={idem:.2e}, tol={_PROJECTION_TOL:.0e})"
        )


# ---------------------------------------------------------------------------
# tiles and sources
# ---------------------------------------------------------------------------


def _tile_level(vertices):
    """The level of a layout's tiles, the one rule that sizes every task:
    the largest k whose tile lattice holds at most TASK_VERTICES vertices,
    ``vertices(k)`` of them, a box's far row and column aside.  A task's
    values, and its workspace's buffers, scale with them."""
    return next(k for k in count() if vertices(k + 1) > TASK_VERTICES)


def _direct_level(offsets):
    """:func:`_tile_level` of the direct tiles of the IFS with these offsets
    (:func:`_direct_tile`): 7 where the squares share no vertex (the dust),
    its quadrant lattice holding four vertices per word, 4 nmaps**k; else 5,
    the box around 3**k x 3**k cells holding 9**k (the carpet, and
    ``full-subdivision-3``, whose 9**5 words leave under 1 % of it padded).
    The level-1 squares, at the offsets themselves, decide for every level."""
    quadrants = _quadrants(*np.array(offsets).T) is not None
    return _tile_level(lambda k: 4 * len(offsets) ** k if quadrants else 9**k)


class _Tile(NamedTuple):
    """The vertex lattice of one aligned tile of a sum's words, one parallel
    task's, all tiles of a sum alike, with read-only arrays.

    ``dx`` and ``dy`` are the lattice's integer column and row coordinates
    relative to the tile's origin, shaped to broadcast into the lattice;
    ``cells`` are the lattice's cells as the kernels take them; ``order`` is
    where each word's cell sits among them, in word order.  An order is
    unique, lies in [0, cell count) and never names a padded cell, so the
    engine gathers with it unchecked (``mode="clip"``).  The tile's own
    cells use every column and every row of the lattice, so a compact row
    or column is read whole (:func:`_maxima`).
    """

    dx: np.ndarray
    dy: np.ndarray
    cells: tuple
    order: np.ndarray


def _read_only(tile):
    for a in (tile.dx, tile.dy, tile.order):
        a.flags.writeable = False
    return tile


def _box_tile(cols, rows, cx, cy):
    """The :class:`_Tile` of the cells at columns ``cx`` and rows ``cy``, in
    word order, of the plain (rows + 1) x (cols + 1) vertex lattice around
    them, flattened row-major.

    With w = cols + 1, the kernels' cell k = i w + j spans rows i, i + 1 and
    columns j, j + 1, its corners at k, k + 1, k + w + 1 and k + w.  The
    last cell of each row (j = cols) is a padded cell whose x-edge wraps
    into the next row, and the last row's is left out: rows w - 1 cells.
    """
    w = cols + 1
    return _read_only(_Tile(
        np.arange(w, dtype=np.int64)[None, :], np.arange(rows + 1, dtype=np.int64)[:, None],
        ((0, 1, w + 1, w), rows * w - 1), cy * w + cx,
    ))


@lru_cache(maxsize=32)
def _pullback_tile(m):
    """The 2**m x 2**m tile of the image cells of 4**m dust words, in their
    Morton order: the image bits of the m-digit words; built once per
    level, like every tile."""
    mx, my = K.dust_image_bits(np.arange(4**m, dtype=np.int64), m)
    return _box_tile(1 << m, 1 << m, mx, my)


@lru_cache(maxsize=32)
def _subdivision_tile(n):
    """The tile of the 2**n subdivision: min(2**n, TASK_VERTICES) columns by
    as many whole rows as keep its cells (its lattice's vertices, the far
    row and column aside) within TASK_VERTICES, in row-major order."""
    cols = min(1 << n, TASK_VERTICES)
    rows = min(1 << n, TASK_VERTICES // cols)
    cells = np.arange(rows * cols, dtype=np.int64)
    return _box_tile(cols, rows, cells % cols, cells // cols)


def _quadrants(kx, ky):
    """(xs, ys), the distinct columns and rows of the squares at corner
    numerators (kx, ky), where the squares are every pair of them and share
    no vertex (the dust's, at every level); else None."""
    xs, ys = np.unique(kx), np.unique(ky)
    if xs.size * ys.size == kx.size and (np.diff(xs) > 1).all() and (np.diff(ys) > 1).all():
        return xs, ys
    return None


@lru_cache(maxsize=32)
def _direct_tile(offsets, k):
    """The :class:`_Tile` of the level-k words of the IFS with these offsets,
    read from their corner numerators; built once per level, like every
    tile.

    When the cells are every pair of their w columns and h rows and no two
    of them share a vertex (the dust), the lattice is (2, 2, h, w): the
    cells' near and far rows, their near and far columns, then the rows and
    columns themselves, so the corners v0..v3 are four contiguous h w blocks
    at offsets (0, hw, 3hw, 2hw), every lattice cell is one of the tile's
    and no vertex is evaluated twice; at the dust's tile level, 7, that is
    (2, 2, 128, 128), 2**16 vertices, 512 KB per real value.  Otherwise
    (the carpet and ``full-subdivision-3``) the lattice is the
    (3**k + 1)**2 box around them, a plain lattice whose cells share their
    vertices and edges, and the kernel runs on every box cell, holes and
    padded ones included, before the tile's own are gathered.
    """
    off = np.array(offsets, dtype=np.int64)
    words = np.arange(len(offsets) ** k, dtype=np.int64)
    kx, ky = K.corner_numerators(words, k, off[:, 0], off[:, 1])
    grid = _quadrants(kx, ky)
    if grid is not None:
        xs, ys = grid
        w, h = xs.size, ys.size
        far = np.arange(2, dtype=np.int64)[:, None]
        return _read_only(_Tile(
            (xs + far).reshape(1, 2, 1, w), (ys + far).reshape(2, 1, h, 1),
            ((0, h * w, 3 * h * w, 2 * h * w), h * w),
            np.searchsorted(ys, ky) * w + np.searchsorted(xs, kx),
        ))
    return _box_tile(3**k, 3**k, kx, ky)


class _Source(NamedTuple):
    """A level-n sum as a walk over aligned tiles of one shape.

    ``tile`` is the :class:`_Tile` of every run of ``tile.order.size``
    words; ``place(w)`` gives the integer column and row coordinates of the
    lattice of the run whose first word is ``w``, a multiple of that size,
    shaped like ``tile.dx`` and ``tile.dy``; ``den`` is their denominator,
    2**n or 3**n.
    """

    tile: _Tile
    place: Callable
    den: float


def _pullback_source(n):
    """The source of a level-n pullback sum: the dust words' image cells on
    the 2**n torus grid, in aligned Morton tiles of 2**m x 2**m cells,
    m = min(n, 8), tile t placed at 2**m times the image bits of its n - m
    digits and wrapped with ``& mask`` onto the periodic torus.  The image
    bits of every tile come from one digit-map call, of no digit step when
    one tile is the whole grid."""
    m = min(n, _tile_level(lambda m: 4**m))
    tile = _pullback_tile(m)
    span = tile.order.size
    mask = (1 << n) - 1
    mx, my = (a << m for a in K.dust_image_bits(np.arange(4 ** (n - m), dtype=np.int64), n - m))

    def place(w):
        return (mx[w // span] + tile.dx) & mask, (my[w // span] + tile.dy) & mask

    return _Source(tile, place, float(1 << n))


def _subdivision_source(n):
    """The source of a level-n subdivision sum: cell w of the 2**n dyadic
    subdivision, in row-major order, is at column w & mask and row w >> n.
    Coordinates do not wrap, so a cell's far edge keeps the value 1."""
    tile = _subdivision_tile(n)
    mask = (1 << n) - 1
    return _Source(tile, lambda w: ((w & mask) + tile.dx, (w >> n) + tile.dy), float(1 << n))


def _direct_source(preset: IfsPreset, n: int):
    """The source of a level-n direct sum on ``preset``, one of
    ``geometry.PRESETS``: the tile of the nmaps**k words of one level-k
    sub-fractal, k = min(n, :func:`_direct_level`), 7 on the dust and 5 on
    the carpet and ``full-subdivision-3`` (below that level one tile is the
    whole grid), tile t placed at 3**k times the corner numerators of its
    n - k digits, over 3**n.  The corner numerators of every tile come from
    one digit-map call, of no digit step when one tile is the whole grid.

    The dust's squares share no vertices, so its tile evaluates four per
    word: at 4**8 words its (2, 2, 256, 256) lattice held 2**18 vertices, a
    full value 2 MB, which glibc handed back between tasks and faulted in
    again.  4**7 is a whole number of 4096-word leaves, so the leaves, and
    the bits, are those of the word stream at either size."""
    k = min(n, _direct_level(preset.offsets))
    tile = _direct_tile(preset.offsets, k)
    span = tile.order.size
    tiles = np.arange(preset.nmaps ** (n - k), dtype=np.int64)
    kx, ky = (a * 3**k for a in K.corner_numerators(tiles, n - k, *preset.offset_arrays()))

    def place(w):
        return kx[w // span] + tile.dx, ky[w // span] + tile.dy

    return _Source(tile, place, float(3**n))


def _full(a, shape, ws, name):
    """``a`` broadcast to ``shape``, C-contiguous: ``a`` itself when it is,
    else a copy into buffer ``name`` of ``ws``."""
    if a.shape == shape and a.flags.c_contiguous:
        return a
    buf = ws.take(name, shape, a.dtype)
    np.copyto(buf, a)
    return buf


def _operands(source, lo, observables, ws, maxima):
    """The trace kernel's f, g and h, ``observables``' values on the vertex
    lattice of the tile whose first word is ``lo``.  Each distinct
    observable is evaluated once, and a repeated one is the same array.

    A scalar value, as the rule returned it with an axis per lattice axis
    (:meth:`Observable._values`), is a row (a rule of u only, its y-edges
    exact zeros) when it has the shape of ``tile.dx``, a column when it has
    that of ``tile.dy``, a constant when it is one value, and full
    otherwise.  A full value, and every matrix one, is flattened to (N,) or
    (3, N) for Bloch vectors: a C-contiguous one as a view, any other as a
    copy into buffer ``lattice.i`` of ``ws``, i the observable's place.  A
    row g with a column h goes to the kernel compact, whatever their
    values: one that is not finite at a vertex of one of the level's own
    squares makes that square's term, and so the sum, non-finite on either
    path, and :func:`_sum_kernel` refuses it.  Any other compact value of a
    triple is copied flat likewise, once, for the kernel's general path.  A
    lone observable (the walk of :func:`estimate_lipschitz`) is returned as
    evaluated, a compact value compact.

    ``maxima`` is None, or for scalar observables a (len(observables), 2)
    float array that each distinct observable's :func:`_maxima` on this
    tile raise (elementwise, NaN kept); a repeated observable's row stays
    as it is (0 in a sum's tasks), since its estimate reads its first
    place's row.
    """
    tile = source.tile
    x, y = source.place(lo)
    u, v = x / source.den, y / source.den
    first = [next(j for j, o in enumerate(observables) if o is obs) for obs in observables]
    values, compact = {}, []
    for i in dict.fromkeys(first):
        obs = observables[i]
        a, shape = obs._values(u, v)
        if obs.kind == "scalar" and (a.size == 1 or a.shape in (tile.dx.shape, tile.dy.shape)):
            compact.append(i)
        else:
            a = _full(a, shape, ws, f"lattice.{i}").reshape((3, -1) if obs.kind == "matrix" else -1)
        values[i] = a
    if maxima is not None:
        # after every evaluation, so the edge buffers are first taken where
        # the kernel would take them: interleaved with the evaluations, they
        # left the peak RSS of repeated 2-worker lipschitz-direct passes 7 MB
        # higher
        for i, a in values.items():
            np.maximum(maxima[i], _maxima(a, tile, ws), out=maxima[i])
    if len(observables) == 1:
        return [values[0]]
    f, g, h = (values[j] for j in first)
    if g.shape == tile.dx.shape and h.shape == tile.dy.shape:
        return (f if f.ndim == 1 else _full(f, shape, ws, "lattice.0").reshape(-1)), g, h
    for i in compact:
        values[i] = _full(values[i], shape, ws, f"lattice.{i}").reshape(-1)
    return [values[j] for j in first]


# ---------------------------------------------------------------------------
# summation engine
# ---------------------------------------------------------------------------


def _pairwise_reduce(a: np.ndarray) -> complex:
    """Fixed-shape pairwise tree sum of at least one value; shape depends
    only on len(a)."""
    while a.size > 1:
        half = a.size // 2
        odd = a.size - 2 * half
        nxt = np.empty(half + odd, dtype=np.complex128)
        nxt[:half] = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if odd:
            nxt[half] = a[2 * half]
        a = nxt
    return complex(a[0])


def _top(x):
    """max |x|, NaN if x holds one, without an ``np.abs`` copy of real x."""
    if np.iscomplexobj(x):
        return np.abs(x).max()
    return max(x.max(), -x.min())  # both NaN when x holds one


def _maxima(a, tile, ws):
    """(sup |a|, largest |edge difference|) of the scalar values ``a`` of
    ``tile``, as :func:`_operands` evaluates them, over the tile's own
    cells only: their corners, and their x- and y-edges.

    A compact row or column is read as it is: every value of it is a corner
    of the tile's own cells, since they use every column and row of its
    lattice, so its sup is taken over it whole, and its edges from its
    values at their near and far ends (:func:`_kernels.near_far`); a
    constant's edges are exact zeros.  A flat lattice's edges
    (:func:`_kernels.edges`) are formed block by block into the kernel's
    edge buffers in ``ws``;
    where it has cells that are not the tile's (a box's carpet holes and
    padded cells, whose x-edge wraps into the next lattice row), the
    corners of the tile's own cells are first gathered by ``tile.order``,
    concatenated (v0, v1, v2, v3); otherwise every lattice vertex is a
    corner of one of its cells.  Neither maximum depends on order.  A sup
    that is not finite (a NaN or inf value) is returned as it is, with
    whatever edge maximum follows, for the caller to refuse.
    """
    if a.ndim > 1:
        near, far = K.near_far(a) if a.size > 1 else (a.reshape(-1),) * 2
        return _top(a), max(0.0, _top(far - near))
    cells = tile.cells
    if tile.order.size < cells[1]:
        m = tile.order.size
        c = ws.take("maxima.corners", (4, m), a.dtype)
        for o, out in zip(cells[0], c):
            np.take(a[o:], tile.order, out=out, mode="clip")
        a, cells = c.reshape(-1), ((0, m, 2 * m, 3 * m), m)
    sup = _top(a)
    edge = 0.0

    def diff(name, x, y):
        return np.subtract(x, y, out=ws.take(f"kernel.g{name}", x.shape, a.dtype))

    for lo, hi in K._blocks(cells[1]):
        for d in K.edges(a, cells, diff, lo, hi):
            edge = max(edge, _top(d))
    return sup, edge


def _leaf_sums_for_range(source, lo, observables, ws, maxima):
    """Leaf sums of the kernel over the tile of ``source`` whose first word
    is ``lo``, a multiple of the tile's word count: its values gathered in
    word order and summed in leaves counted from ``lo``, the last one short
    when the tile is not a whole number of leaves.

    ``ws`` is the calling thread's :class:`_kernels.Workspace`; the
    returned leaf sums never live in it.  Each distinct observable is
    evaluated once.

    ``maxima`` is None, or for scalar observables a (3, 2) float array, set
    to each observable's :func:`_maxima` over the tile (:func:`_operands`).
    """
    kernel = K.matrix_kernel if observables[0].kind == "matrix" else K.scalar_kernel
    tile = source.tile
    if maxima is not None:
        maxima[...] = 0.0
    result = kernel(*_operands(source, lo, observables, ws, maxima), cells=tile.cells, out=ws)
    vals = ws.take("reordered", tile.order.shape, result.dtype)  # float64 for a real triple
    # under the default mode="raise", numpy buffers ``out`` (a copy per tile)
    np.take(result, tile.order, out=vals, mode="clip")
    return K.leaf_sums(vals, LEAF)


# The last direct scalar sum, (preset offsets, n, (f, g, h), maxima, asked):
# maxima is a (3, 2) array of f's, g's and h's (sup, largest edge
# difference), or None when the sum took none, and asked whether
# estimate_lipschitz has been called for one of its observables at its
# preset and level.  Every other sum sets it to None.
_last_direct = None


class _Recorded:
    """A block that appends to ``into`` the exception leaving it, or None,
    and lets that exception go on.  ``sys.exc_info()`` in a ``finally``
    would not do: inside an ``except`` block of the caller's it names the
    exception being handled there."""

    def __init__(self, into):
        self.into = into

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        self.into.append(exc)


def _sum_kernel(source, n, total, f, g, h, workers, maxima=None):
    """The level-n sum over ``source``, of ``total`` words.  ``maxima``, a
    (3, 2) float array given for a direct scalar sum, is set to f's, g's
    and h's :func:`_maxima` over the level: each task takes them over its
    tile, and their maximum does not depend on how the tasks are spread.

    Task i is the tile of words [i s, (i + 1) s), s the tile's word count,
    and writes the i-th run of ceil(s / LEAF) leaf sums.

    Every sum returns here, and one that is not finite (a NaN or inf at a
    vertex of a square, or an overflow) raises ValueError naming the triple
    and the level; a value at a vertex of no square (a carpet hole, a
    padded cell) enters no term that is kept.

    The tasks' indices go out from one shared iterator, which
    min(workers, tasks) threads drain, each in a
    :class:`_kernels.Workspace` of its own: the calling thread alone when
    that is one, else as many helper threads while the caller waits.  Each
    task writes its own leaves, so the sum does not depend on which thread
    ran which task.  An exception in a task stops every thread from
    starting another; each records what it raised, no helper prints it, and
    the caller joins every helper, then raises the first one recorded, as
    itself.  An exception in the caller while it waits (a
    KeyboardInterrupt) stops the helpers after the tasks they hold.  The
    caller waits on each helper in joins of at most 0.1 s: a SIGINT that
    lands just before an untimed join blocks would be handled only once
    that helper had ended, and the helpers would run every remaining
    task first."""
    global _last_direct
    _last_direct = None
    observables = (f, g, h)
    span = source.tile.order.size
    per = -(-span // LEAF)  # leaves per task
    tasks = range(0, total, span)
    leafsums = np.empty(len(tasks) * per, dtype=np.complex128)
    per_task = None if maxima is None else np.empty((len(tasks), 3, 2))
    todo = iter(range(len(tasks)))  # shared: each index goes to one thread
    raised = []  # what each thread raised, None for one that ran out of tasks

    def work():
        ws = K.Workspace()  # this thread's, for every task it takes
        with suppress(BaseException), _Recorded(raised):  # for the caller to raise
            # a non-finite sum is refused below, not warned about term by
            # term; a helper does not inherit the caller's error state
            with np.errstate(invalid="ignore", over="ignore"):
                for i in takewhile(lambda _: not any(raised), todo):
                    leafsums[i * per : (i + 1) * per] = _leaf_sums_for_range(
                        source, tasks[i], observables, ws,
                        maxima=None if per_task is None else per_task[i])

    threads = min(workers, len(tasks))
    if threads == 1:
        work()  # alone, the caller runs the tasks itself
    else:
        helpers = [threading.Thread(target=work) for _ in range(threads)]
        with _Recorded(raised):  # an interrupted caller stops the helpers too
            for t in helpers:
                t.start()
            for t in helpers:
                while t.is_alive():
                    t.join(0.1)
    error = next(filter(None, raised), None)
    if error is not None:
        raise error
    if maxima is not None:
        np.max(per_task, axis=0, out=maxima)  # np.max keeps NaN
    with np.errstate(invalid="ignore", over="ignore"):
        val = _pairwise_reduce(leafsums)
    if not np.isfinite(val):
        names = ", ".join(repr(o.name) for o in observables)
        raise ValueError(f"the level-{n} sum over ({names}) is {val}, not finite: an observable is "
                         "NaN or inf at a vertex of a square, or the sum of finite terms overflowed")
    return val


def _check_triple(f, g, h):
    kinds = {o.kind for o in (f, g, h)}  # the kind fixes the dimension
    modes = {o.mode for o in (f, g, h)}
    if len(kinds) != 1:
        raise ValueError("observable triple must share kind and dimension")
    if len(modes) != 1:
        raise ValueError("observable triple must share evaluation mode")
    return kinds.pop(), modes.pop()


def check_preset(preset, mode):
    """Refuse, with ValueError, a pullback on any preset but the dust and a
    direct sum or estimate on one outside ``geometry.PRESETS``: the tiles
    and their placement are laid out for these alone."""
    if mode == "pullback" and preset != CANTOR_DUST:
        raise ValueError("pullback mode is defined through the dust digit map only")
    if PRESETS.get(preset.name) != preset:
        raise ValueError(f"the engine runs on the presets {sorted(PRESETS)} only, not {preset.name!r} "
                         f"with offsets {preset.offsets}")


def _check_level(n):
    """Refuse, with ValueError, a level that is not an integer >= 0.  A bool
    or a non-integer (3.0 among them) is named in the message; NumPy
    integers pass."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"level must be an integer, not {n!r}")
    if n < 0:
        raise ValueError("level must be >= 0")


def word_count(nmaps, n, kind, allow_large):
    """nmaps**n, the number of level-n words, after the checks every sum and
    estimate makes before any tile is built, in this order: a level that is
    not an integer >= 0 (:func:`_check_level`) and word indices that would
    overflow int64 raise ValueError, and more
    words than the square budget of ``kind`` ('scalar' or 'matrix') raise
    BudgetError unless ``allow_large``.  A level range passes every check
    where its smallest and largest level do, so the command line checks a
    range at its two ends before any sum."""
    _check_level(n)
    # a Python int: a NumPy one would wrap past int64; from level 63 on any
    # nmaps >= 2 overflows, so the power is never formed past it
    total = nmaps ** min(int(n), 63)
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"{nmaps}**{n} level-{n} words overflow 64-bit word indices")
    cap = MAX_SQUARES_SCALAR if kind == "scalar" else MAX_SQUARES_MATRIX
    if total > cap and not allow_large:
        raise BudgetError(
            f"{total} squares exceed the {kind} budget of {cap}; "
            "pass allow_large=True (CLI: --override-budget) to proceed"
        )
    return total


def phi_n(
    preset: IfsPreset,
    n: int,
    f: Observable,
    g: Observable,
    h: Observable,
    workers: int | None = None,
    allow_large: bool = False,
) -> complex:
    """The approximating combinatorial integration at level n.

    Sums the per-square trace kernel over all |S|**n level-n squares of the
    preset, one of ``geometry.PRESETS``.  In pullback mode (the dust only)
    the triple is evaluated at the dyadic staircase images of the vertices;
    in direct mode at the vertices themselves.  Any other preset raises
    ValueError before a tile is built.

    A direct scalar sum over the very triple (by identity) of the last one,
    after :func:`estimate_lipschitz` was asked about that one, is a level of
    a Lipschitz table: its tasks also take each observable's
    :func:`_maxima`, which the estimates of this level then read back
    instead of evaluating the rules again.  Other sums take none: taking
    the maxima made a plain direct sum 23 to 130 % slower.

    A sum that is not finite (a NaN or inf value at a vertex of a square,
    or an overflow) raises ValueError naming the triple and the level.
    """
    global _last_direct
    kind, mode = _check_triple(f, g, h)
    check_preset(preset, mode)
    total = word_count(preset.nmaps, n, kind, allow_large)
    n = int(n)  # a NumPy level's arithmetic could wrap
    workers = resolve_workers(workers)
    source = _pullback_source(n) if mode == "pullback" else _direct_source(preset, n)
    direct = kind == "scalar" and mode == "direct"
    _, _, last, _, asked = _last_direct or (None, None, (), None, False)
    table = direct and asked and all(a is b for a, b in zip(last, (f, g, h)))
    maxima = np.empty((3, 2)) if table else None
    val = _sum_kernel(source, n, total, f, g, h, workers, maxima)
    if direct:
        _last_direct = (preset.offsets, n, (f, g, h), maxima, False)
    return val


def phi_subdivision(
    n: int,
    ftilde,
    gtilde,
    htilde,
    workers: int | None = None,
) -> complex:
    """The same kernel summed over the 4**n cells of the 2**n subdivision.

    Arguments are torus functions (callables or :class:`TorusFunction`);
    vertex values are taken at the raw dyadic cell corners, so the far edge
    evaluates at coordinate value 1.  For 1-periodic functions that matches
    the identified value up to rounding, and plain coordinate functions keep
    their exact Riemann sums.  More cells than the scalar budget raise
    BudgetError, and a sum that is not finite ValueError, as in
    :func:`phi_n`.
    """
    total = word_count(4, n, "scalar", False)
    n = int(n)  # a NumPy level's arithmetic could wrap
    workers = resolve_workers(workers)
    obs = [pullback_scalar(t) for t in (ftilde, gtilde, htilde)]
    return _sum_kernel(_subdivision_source(n), n, total, *obs, workers)


def pairing_n(
    preset: IfsPreset,
    n: int,
    p: Observable,
    workers: int | None = None,
    allow_large: bool = False,
) -> complex:
    """Finite-level pairing of the cocycle with a matrix projection:
    phi_n(p, p, p) / (2 pi i), after :func:`validate_projection`; a sum
    that is not finite raises ValueError, as in :func:`phi_n`."""
    if p.kind != "matrix" or p.mode != "pullback":
        raise ValueError("pairing needs a pullback-mode matrix projection")
    validate_projection(p, n)
    val = phi_n(preset, n, p, p, p, workers=workers, allow_large=allow_large)
    return val / (2j * math.pi)


def cyclicity_residual(preset, n, f, g, h, workers=None) -> float:
    """|phi_n(f, g, h) - phi_n(h, f, g)|: cyclic symmetry defect at level n."""
    a = phi_n(preset, n, f, g, h, workers=workers)
    b = phi_n(preset, n, h, f, g, workers=workers)
    return abs(a - b)


def hochschild_residual(preset, n, a0, a1, a2, a3, workers=None) -> float:
    """|b phi_n| on one quadruple, with pointwise observable products."""
    val = phi_n(preset, n, a0 * a1, a2, a3, workers=workers)
    val -= phi_n(preset, n, a0, a1 * a2, a3, workers=workers)
    val += phi_n(preset, n, a0, a1, a2 * a3, workers=workers)
    val -= phi_n(preset, n, a3 * a0, a1, a2, workers=workers)
    return abs(val)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CocycleReport:
    """One convergence-table row."""

    preset: str
    n: int
    squares: int
    phi: complex
    target: Optional[complex] = None
    abs_err: Optional[float] = None
    err_ratio: Optional[float] = None
    wall_ms: float = 0.0
    workers: int = 1

    def as_dict(self):
        return {
            "preset": self.preset,
            "n": self.n,
            "squares": self.squares,
            "phi_re": self.phi.real,
            "phi_im": self.phi.imag,
            "target_re": None if self.target is None else self.target.real,
            "target_im": None if self.target is None else self.target.imag,
            "abs_err": self.abs_err,
            "err_ratio": self.err_ratio,
            "ms": self.wall_ms,
            "workers": self.workers,
            "backend": K.BACKEND,
        }


def level_table(
    preset: IfsPreset, ns: Sequence[int], value: Callable, target, workers: int,
) -> list[CocycleReport]:
    """One report per level n of ``ns``, in their order: ``value(n)``, the
    level's sum on ``preset`` at ``workers`` workers, and its wall time.
    Given a ``target``, each row also holds its error against it and, from
    the second row on, that error over the previous row's, left unset where
    the previous one is 0.

    Every table of levels the command line writes but the Lipschitz one is
    built here: :func:`convergence_table`'s and the pairing's."""
    rows = []
    for n in ns:
        t0 = perf_counter()
        val = value(n)
        row = CocycleReport(preset=preset.name, n=n, squares=preset.nmaps**n, phi=val,
                            wall_ms=(perf_counter() - t0) * 1e3, workers=workers)
        if target is not None:
            row.target = complex(target)
            row.abs_err = abs(val - target)
            if rows and rows[-1].abs_err:
                row.err_ratio = row.abs_err / rows[-1].abs_err
        rows.append(row)
    return rows


def convergence_table(
    preset: IfsPreset,
    ns: Sequence[int],
    f: Observable,
    g: Observable,
    h: Observable,
    target: complex | None = None,
    workers: int | None = None,
    allow_large: bool = False,
) -> list[CocycleReport]:
    """The :func:`level_table` of :func:`phi_n` over the triple: one report
    per level of ``ns``, with its error against ``target`` and the error
    ratios.  Each level calls ``phi_n`` as this module's global at that
    time, so a wrapper set on it (a tracer's) sees every sum."""
    workers = resolve_workers(workers)
    return level_table(
        preset, ns, lambda n: phi_n(preset, n, f, g, h, workers=workers, allow_large=allow_large),
        target, workers,
    )


# ---------------------------------------------------------------------------
# Lipschitz instrumentation
# ---------------------------------------------------------------------------


def estimate_lipschitz(
    preset: IfsPreset, n: int, obs: Observable, allow_large: bool = False
) -> tuple[float, float]:
    """(sup |obs|, Lipschitz estimate) over level-n vertices.

    The Lipschitz constant is estimated by maximizing difference quotients
    over the four edges of every level-n square: the x- and y-edge
    differences the kernel reads, on the same tiles and lattices as
    :func:`phi_n`'s, through :func:`_maxima`.  Box cells outside a carpet
    tile, padded cells among them, are gathered out, so neither the vertices
    and edges of its holes nor an x-edge that wraps from one lattice row into
    the next counts.  The largest difference over 3**-n is the largest
    quotient, since rounding a division is monotone.

    When the last sum was a :func:`phi_n` over this very observable, on
    this preset and level, that took the maxima (a level of a Lipschitz
    table, see :func:`phi_n`), they are read back; else the tiles are
    walked serially.  Either way the values are the same, as a maximum
    depends on neither the order it is taken in nor the tasks it is split
    over.  A negative level, a preset outside ``geometry.PRESETS``, or a
    value at a level-n vertex that is not finite (which would make the
    estimate meaningless), raises ValueError, the last naming the
    observable.  More squares than the scalar budget raise BudgetError
    before any tile is built, unless ``allow_large``, as in :func:`phi_n`.
    """
    global _last_direct
    if obs.kind != "scalar" or obs.mode != "direct":
        raise ValueError("Lipschitz estimation applies to direct scalar observables")
    check_preset(preset, obs.mode)
    total = word_count(preset.nmaps, n, obs.kind, allow_large)
    n = int(n)  # a NumPy level's arithmetic could wrap
    offsets, level, triple, maxima, _ = _last_direct or (None, None, (), None, False)
    place = next((i for i, o in enumerate(triple) if o is obs), None)
    if place is not None and (offsets, level) == (preset.offsets, n):
        _last_direct = (offsets, level, triple, maxima, True)
    else:
        maxima = None
    if maxima is not None:
        sup, edge = maxima[place]
    else:
        source = _direct_source(preset, n)
        ws = K.Workspace()
        peak = np.zeros((1, 2))
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite value is refused below
            for lo in range(0, total, source.tile.order.size):  # a whole number of tiles
                _operands(source, lo, (obs,), ws, peak)
        sup, edge = peak[0]
    if not np.isfinite(sup):
        raise ValueError(f"observable {obs.name!r} is not finite at every level-{n} vertex")
    return sup, edge / 3.0**-n


def lipschitz_bound(preset: IfsPreset, n: int, sup_f: float, lip_g: float, lip_h: float) -> float:
    """Decay bound 8 ||f|| Lip(g) Lip(h) (|S| / 9)**n for direct triples."""
    return 8.0 * sup_f * lip_g * lip_h * (preset.nmaps / 9.0) ** n


# ---------------------------------------------------------------------------
# named function triples
# ---------------------------------------------------------------------------


def _ones(u, v):
    return np.ones_like(np.asarray(u, dtype=np.float64))


DIRECT_PRESETS = {
    # (1, x, y): the plain Riemann-sum triple, closed form 2 (|S|/9)**n
    "const-xy": lambda: (
        direct_scalar(_ones, "one"),
        direct_scalar(lambda u, v: np.asarray(u, dtype=np.float64), "x"),
        direct_scalar(lambda u, v: np.asarray(v, dtype=np.float64), "y"),
    ),
    "linear-xy": lambda: (
        direct_scalar(lambda u, v: np.asarray(u, dtype=np.float64) + v, "x+y"),
        direct_scalar(lambda u, v: np.asarray(u, dtype=np.float64), "x"),
        direct_scalar(lambda u, v: np.asarray(v, dtype=np.float64), "y"),
    ),
    "sine-xy": lambda: (
        direct_scalar(lambda u, v: np.sin(np.asarray(u, dtype=np.float64) + v), "sin(x+y)"),
        direct_scalar(lambda u, v: np.sin(np.asarray(u, dtype=np.float64)), "sin(x)"),
        direct_scalar(lambda u, v: np.sin(np.asarray(v, dtype=np.float64)), "sin(y)"),
    ),
}


def resolve_functions(name: str):
    """A named triple: (f, g, h, target-or-None, mode).

    Pullback names come from the smooth catalogue and carry their closed-form
    target; direct names carry target 0 (the Lipschitz limit).  Any other
    name raises KeyError, naming both catalogues.
    """
    key = name.strip().lower()
    if key in DIRECT_PRESETS:
        f, g, h = DIRECT_PRESETS[key]()
        return f, g, h, 0.0 + 0.0j, "direct"
    if key not in SMOOTH_PRESETS:
        raise KeyError(f"unknown functions {name!r}; choose from "
                       f"{sorted({*DIRECT_PRESETS, *SMOOTH_PRESETS})}")
    preset = SMOOTH_PRESETS[key]
    return (
        pullback_scalar(preset.f),
        pullback_scalar(preset.g),
        pullback_scalar(preset.h),
        None if preset.target is None else complex(preset.target),
        "pullback",
    )
