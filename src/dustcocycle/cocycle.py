"""The combinatorial integration engine.

``phi_n`` streams the level-n squares of an IFS preset in word order,
evaluates a function triple at the four vertices of each square, applies the
per-square trace kernel and reduces the 4**n terms through a fixed-shape
pairwise tree over 4096-word leaves.  The tree shape depends only on the term
count, never on the worker count, so results are bit-identical however the
work is spread.  Every sum returns through :func:`_sum_kernel`, which
refuses one that is not finite.

Every sum is one walk over aligned tiles of one shape.  Its source
(:class:`_Source`) is one :class:`_Tile`, the vertex lattice of a run of
words as integer offsets from the run's first vertex, with the lattice's
cells as the kernels take them and where each word's cell sits among them,
built once per layout and level and kept, read-only, for the process; a
function that places a tile from its first word (pullback and direct
sources read it from one digit-map call per sum, made on the first words
of all the sum's tiles); and the coordinates' denominator.  There are
three sources:

* pullback (the staircase images of the vertices, over 2**n): the image
  cells of the dust squares are the Z-order (Morton) walk of the
  2**n x 2**n torus cells, so 4**m words, m = min(n, 8), are one aligned
  2**m x 2**m tile (for n <= 8, the whole grid), in the same Morton order at
  every level, placed from its first word's image bits and wrapped with
  ``& mask`` onto the periodic torus;
* subdivision (``phi_subdivision``, over 2**n): cell w of the plain dyadic
  subdivision, in row-major order, is at column w & mask and row w >> n; a
  tile is min(2**n, 65536) columns by as many whole rows as fit in 16
  leaves, its cells in row-major order.  It never uses the Morton order, so
  the pullback = subdivision check compares two independently ordered sums,
  termwise equal because dust squares biject onto cells with
  order-preserving corners.  Its coordinates do not wrap: a cell's far edge
  keeps the value 1, so plain coordinate functions keep their Riemann sums;
* direct (the vertices themselves, over 3**n): a tile is the nmaps**k words
  of one level-k sub-fractal, k = min(n, :func:`_tile_level`), 8 on the
  dust (4**8 words, 16 leaves), 5 on the carpet (8**5 words, 8 leaves) and 4
  on ``full-subdivision-3`` (9**4 words, never a whole number of leaves),
  placed from its first word's corner numerators.

Each parallel task covers up to 65536 consecutive words: one tile when a
tile is a whole number of leaves or the whole grid, else (on
``full-subdivision-3``) TASK_LEAVES leaves that walk the up to 11 tiles they
touch.  Any range is walked alike: each tile it touches is computed whole,
and its share of the range is gathered into word order with one
``np.take``.  The gather passes ``mode="clip"``, under which numpy writes
into ``out=`` directly, where the default ``mode="raise"`` buffers it; the
tests check once that every tile's order is in bounds.

A tile's lattice is a tensor product: each observable's rule gets a row of
u and a column of v that broadcast to it, 257 of each for a 256 x 256
pullback tile, so a product rule such as cos 2 pi u * cos 2 pi v calls its
transcendentals H + W times, not H * W.  A scalar rule's row, column or
constant stays compact, as the rule returned it, its axes of length 1
naming the edges that are exact zeros; other values are flattened, a
C-contiguous one as a view.  A row g with a column h goes to the scalar
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
float64 up to the kernel's complex result; a matrix observable's values
are its (3, N) float64 Bloch vectors, read the same way.
:func:`estimate_lipschitz` takes, per observable, the sup of the values
and the largest edge difference over the tile's own cells
(:func:`_maxima`, the carpet's holes and padded cells left out), on the
same tiles and lattices, a compact row or column read as it is.  In a
Lipschitz table, where the estimates of each level follow its sum over the
same triple, the sum's tasks take them from the lattices they evaluate and
the estimates read them back, so each rule is evaluated once per tile;
otherwise the estimates walk the tiles.

Each worker thread keeps one :class:`_kernels.Workspace` for the duration of
one sum and runs all its tasks in it: the flat copies of compact values,
kernel temporaries and gathered values reuse its buffers, and nothing of it
outlives the call.  A tile's coordinates are not among them: they are too
small to need it.  A task still allocates its observables' own values.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels as K
from .geometry import CANTOR_DUST, IfsPreset, budget_check
from .oracle import SMOOTH_PRESETS, ProjectionField, TorusFunction

LEAF = 4096
TASK_LEAVES = 16  # at most 65536 words per parallel task, always whole leaves
_PROJECTION_LEVEL = 6
_PROJECTION_TOL = 1e-10

_WORKERS_ENV = "DUSTCOCYCLE_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """The effective worker count: ``workers`` itself, or for None the value
    of ``DUSTCOCYCLE_WORKERS``, else the CPU count.

    A count below 1, or a set environment value that is not a positive
    integer, raises ValueError.
    """
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
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
    engine keeps it compact and reads from its axes of length 1 that its
    edges along the other coordinate are exact zeros.  A row g with a
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
    ValueError naming the observable.  ``dim`` must be 2.  Larger matrices,
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


def pullback_projection(field: ProjectionField, name: str | None = None) -> Observable:
    """Matrix projection on the torus composed with the staircase image."""
    return Observable(name or field.name, "pullback", "matrix", field.__call__, dim=2)


def validate_projection(obs: Observable, n: int):
    """Check e^2 = e at every level-m pullback vertex image, m = min(n, 6):
    the 2**m x 2**m torus grid (i, j) / 2**m, evaluated as a (1, 2**m) row
    of u and a (2**m, 1) column of v.  For e = (I + n . sigma) / 2,
    e^2 - e = (|n|^2 - 1) I / 4, and e = e* holds by construction.

    A negative level raises ValueError before any evaluation.
    """
    if obs.kind != "matrix":
        raise ValueError("projection check needs a matrix observable")
    if n < 0:
        raise ValueError("level must be >= 0")
    m = min(n, _PROJECTION_LEVEL)
    grid = np.arange(1 << m) / float(1 << m)
    b = obs.evaluate(grid[None, :], grid[:, None])
    idem = np.abs(b[0] * b[0] + b[1] * b[1] + b[2] * b[2] - 1.0).max() / 4.0
    if idem > _PROJECTION_TOL:
        raise ValueError(
            f"observable {obs.name!r} is not a projection at level-{m} vertices "
            f"(|e^2-e|={idem:.2e}, tol={_PROJECTION_TOL:.0e})"
        )


# ---------------------------------------------------------------------------
# tiles and sources
# ---------------------------------------------------------------------------


def _tile_level(nmaps):
    """The largest k with nmaps**k words in one task of at most TASK_LEAVES
    leaves, less one when nmaps**k is not a whole number of leaves: 8 on the
    dust, 5 on the carpet, 4 on ``full-subdivision-3``.  A task then spans
    several tiles, and the smaller ones waste fewer kernel cells at its ends
    (9**4 words: at most 11 tiles, 10% more cells than the task's own; 9**5:
    up to 3 tiles, 2.7x)."""
    k = 0
    while nmaps > 1 and nmaps ** (k + 1) <= TASK_LEAVES * LEAF:
        k += 1
    return k - 1 if k and nmaps**k % LEAF else k


class _Tile(NamedTuple):
    """The vertex lattice of one aligned run of a sum's words, all runs
    alike, with read-only arrays.

    ``dx`` and ``dy`` are the lattice's integer column and row coordinates
    relative to the run's first word's, shaped to broadcast into the
    lattice, whose ``shape`` is theirs broadcast; ``cells`` are the
    lattice's cells as the kernels take them; ``order`` is where each
    word's cell sits among them, in word order.  An order is unique, lies in
    [0, cell count) and never names a padded cell, so the engine gathers
    with it unchecked (``mode="clip"``).  ``cols`` and ``rows`` are the
    edges of a compact row and column (:func:`_kernels.near_far`) that the
    tile's own cells use, or None for all of them.
    """

    dx: np.ndarray
    dy: np.ndarray
    cells: tuple
    order: np.ndarray
    shape: tuple
    cols: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None


def _read_only(tile):
    for a in (tile.dx, tile.dy, tile.order, tile.cols, tile.rows):
        if a is not None:
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
    xs, ys = np.unique(cx), np.unique(cy)
    return _read_only(_Tile(
        np.arange(w, dtype=np.int64)[None, :], np.arange(rows + 1, dtype=np.int64)[:, None],
        ((0, 1, w + 1, w), rows * w - 1), cy * w + cx, (rows + 1, w),
        None if xs.size == cols else xs, None if ys.size == rows else ys,
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
    """The tile of the 2**n subdivision: min(2**n, 65536) columns by as many
    whole rows as fit in TASK_LEAVES leaves, its cells in row-major order."""
    cols = min(1 << n, TASK_LEAVES * LEAF)
    rows = min(1 << n, TASK_LEAVES * LEAF // cols)
    cells = np.arange(rows * cols, dtype=np.int64)
    return _box_tile(cols, rows, cells % cols, cells // cols)


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
    and no vertex is evaluated twice.  Otherwise (the carpet and
    ``full-subdivision-3``) the lattice is the (3**k + 1)**2 box around
    them, a plain lattice whose cells share their vertices and edges, and
    the kernel runs on every box cell, holes and padded ones included,
    before the tile's own are gathered.
    """
    off = np.array(offsets, dtype=np.int64)
    words = np.arange(len(offsets) ** k, dtype=np.int64)
    kx, ky = K.corner_numerators(words, k, off[:, 0], off[:, 1])
    xs, ys = np.unique(kx), np.unique(ky)
    if xs.size * ys.size == kx.size and (np.diff(xs) > 1).all() and (np.diff(ys) > 1).all():
        w, h = xs.size, ys.size
        far = np.arange(2, dtype=np.int64)[:, None]
        return _read_only(_Tile(
            (xs + far).reshape(1, 2, 1, w), (ys + far).reshape(2, 1, h, 1),
            ((0, h * w, 3 * h * w, 2 * h * w), h * w),
            np.searchsorted(ys, ky) * w + np.searchsorted(xs, kx), (2, 2, h, w),
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
    m = min(n, 8), each placed from its first word's image bits and wrapped
    with ``& mask`` onto the periodic torus.  The image bits of every
    tile's first word come from one digit-map call."""
    tile = _pullback_tile(min(n, _tile_level(4)))
    span = tile.order.size
    mask = (1 << n) - 1
    mx, my = K.dust_image_bits(np.arange(0, 4**n, span, dtype=np.int64), n)

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
    """The source of a level-n direct sum on ``preset``: the tile of the
    nmaps**k words of one level-k sub-fractal, k = min(n,
    :func:`_tile_level`) (below that level one tile is the whole grid),
    placed from its first word's corner numerators over 3**n.  The corner
    numerators of every tile's first word come from one digit-map call."""
    offx, offy = preset.offset_arrays()
    tile = _direct_tile(preset.offsets, min(n, _tile_level(preset.nmaps)))
    span = tile.order.size
    firsts = np.arange(0, preset.nmaps**n, span, dtype=np.int64)
    kx, ky = K.corner_numerators(firsts, n, offx, offy)

    def place(w):
        return kx[w // span] + tile.dx, ky[w // span] + tile.dy

    return _Source(tile, place, float(3**n))


def _task_span(source, total):
    """Words per task of a sum of ``total`` words: one tile's when that is a
    whole number of leaves or the whole grid, else TASK_LEAVES leaves (on
    ``full-subdivision-3``, whose 9**k words never are).  Task bounds are
    whole leaves, so a sum never depends on the worker count."""
    span = source.tile.order.size
    return span if span % LEAF == 0 or span == total else TASK_LEAVES * LEAF


def _zero_axes(values, u, v):
    """The axes, "x" and/or "y", along which the cell edges of a scalar
    rule's ``values`` at (u, v), with an axis per lattice axis, are exact
    zeros where the values are finite: "y" when they have length 1 along
    every axis along which v varies (a row, a rule of u only), "x" likewise
    for u."""
    if values.size == u.size * v.size:  # full: u and v vary along disjoint axes
        return ""
    return "".join(name for name, c in (("x", u), ("y", v))
                   if all(m == 1 for m, k in zip(values.shape, c.shape) if k > 1))


def _full(a, shape, ws, name):
    """``a`` broadcast to ``shape``, C-contiguous: ``a`` itself when it is,
    else a copy into buffer ``name`` of ``ws``."""
    if a.shape == shape and a.flags.c_contiguous:
        return a
    buf = ws.take(name, shape, a.dtype)
    np.copyto(buf, a)
    return buf


def _lattice_values(source, lo, observables, ws, maxima=None):
    """Each observable's values on the vertex lattice of the tile whose
    first word is ``lo``, and the axes along which a scalar one's edges are
    exact zeros (:func:`_zero_axes`).  Each distinct observable is evaluated
    once (a repeated one is the same array).

    A scalar row, column or constant stays as the rule returned it, with an
    axis per lattice axis (:meth:`Observable._values`).  Other values are
    flat, (N,) or (3, N) for Bloch vectors: a C-contiguous one a view, any
    other a copy into buffer ``lattice.i`` of ``ws``, i the observable's
    place.

    ``maxima``, given for scalar observables, is a (len(observables), 2)
    float array that each distinct observable's :func:`_maxima` on this
    tile raise (elementwise, NaN kept); a repeated one's row is its first
    one's.
    """
    x, y = source.place(lo)
    u, v = x / source.den, y / source.den
    cache = {}
    for i, obs in enumerate(observables):
        if id(obs) not in cache:
            values, shape = obs._values(u, v)
            zero = _zero_axes(values, u, v) if obs.kind == "scalar" else ""
            if not zero:
                values = _full(values, shape, ws, f"lattice.{i}")
                values = values.reshape((3, -1) if obs.kind == "matrix" else -1)
            cache[id(obs)] = values, zero, i
    if maxima is not None:
        # after every evaluation, so the edge buffers are first taken where
        # the kernel would take them: interleaved with the evaluations, they
        # left the peak RSS of repeated 2-worker lipschitz-direct passes 7 MB
        # higher
        for i, obs in enumerate(observables):
            values, zero, first = cache[id(obs)]
            if first == i:
                np.maximum(maxima[i], _maxima(values, source.tile, ws, zero), out=maxima[i])
            else:
                maxima[i] = maxima[first]
    return [cache[id(o)][0] for o in observables], [cache[id(o)][1] for o in observables]


def _kernel_args(values, zeros, tile, ws):
    """The scalar kernel's f, g and h on ``tile``, from
    :func:`_lattice_values`' values and zero axes.

    A row g and a column h go to the kernel compact, in the shapes of the
    tile's coordinates, whatever their values: one that is not finite at a
    vertex of one of the level's own squares makes that square's term, and
    so the sum, non-finite on either path, and :func:`_sum_kernel` refuses
    it.  Every other compact value is copied into a flat lattice, in buffer
    ``lattice.i`` of ``ws``, for the kernel's general path; a repeated value
    is copied once.
    """
    f, g, h = values
    if zeros[1:] == ["y", "x"]:
        return (f if f.ndim == 1 else _full(f, tile.shape, ws, "lattice.0").reshape(-1),
                g if g.shape == tile.dx.shape else np.broadcast_to(g, tile.dx.shape),
                h if h.shape == tile.dy.shape else np.broadcast_to(h, tile.dy.shape))
    flat = {}
    for i, a in enumerate(values):
        if id(a) not in flat:
            flat[id(a)] = a if a.ndim == 1 else _full(a, tile.shape, ws, f"lattice.{i}").reshape(-1)
    return [flat[id(a)] for a in values]


# ---------------------------------------------------------------------------
# summation engine
# ---------------------------------------------------------------------------


def _pairwise_reduce(a: np.ndarray) -> complex:
    """Fixed-shape pairwise tree sum; shape depends only on len(a)."""
    if a.size == 0:
        return 0j
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


def _maxima(a, tile, ws, zero=""):
    """(sup |a|, largest |edge difference|) of the scalar values ``a`` of
    ``tile``, over the tile's own cells only: their corners, and their
    x- and y-edges.  Edges along the axes ``zero`` names (:func:`_zero_axes`)
    are exact zeros and are not formed.

    A compact row, column or constant (``zero`` not empty) is read as it
    is: a row's values and x-edges at the columns ``tile.cols`` of its
    :func:`_kernels.near_far` pairs, a column's at the rows ``tile.rows``.
    A flat lattice's edges (:func:`_kernels.edges`) are formed block by
    block into the kernel's edge buffers in ``ws``; where it has cells that
    are not the tile's (a box's carpet holes and padded cells, whose x-edge
    wraps into the next lattice row), the corners of the tile's own cells
    are first gathered by ``tile.order``, concatenated (v0, v1, v2, v3);
    otherwise every lattice vertex is a corner of one of its cells.
    Neither maximum depends on order.  A sup that is not finite (a NaN or
    inf value) comes with the edge maximum NaN, its edges not formed.
    """
    if zero:
        return _compact_maxima(a, tile, zero)
    cells = tile.cells
    if tile.order.size < cells[1]:
        m = tile.order.size
        c = ws.take("maxima.corners", (4, m), a.dtype)
        for o, out in zip(cells[0], c):
            np.take(a[o:], tile.order, out=out, mode="clip")
        a, cells = c.reshape(-1), ((0, m, 2 * m, 3 * m), m)
    sup = _top(a)
    if not np.isfinite(sup):
        return sup, np.nan  # no estimate; its edges are not formed
    edge = 0.0

    def diff(name, x, y):
        return np.subtract(x, y, out=ws.take(f"kernel.g{name}", x.shape, a.dtype))

    for lo, hi in K._blocks(cells[1]):
        for d in K.edges(a, cells, diff, lo, hi):
            edge = max(edge, _top(d))
    return sup, edge


def _compact_maxima(a, tile, zero):
    """:func:`_maxima` of a compact row, column or constant ``a``."""
    if zero == "xy":  # a constant: every edge is an exact zero
        sup = _top(a)
        return (sup, 0.0) if np.isfinite(sup) else (sup, np.nan)
    shape, own = (tile.dx.shape, tile.cols) if zero == "y" else (tile.dy.shape, tile.rows)
    near, far = K.near_far(np.broadcast_to(a, shape))
    if own is not None:
        near, far = near[own], far[own]
    sup = np.maximum(_top(near), _top(far))  # np.maximum keeps NaN
    if not np.isfinite(sup):
        return sup, np.nan
    return sup, max(0.0, _top(far - near))


def _leaf_sums_for_range(source, w_lo, w_hi, observables, ws=None, maxima=None):
    """Leaf sums of the kernel over the words [w_lo, w_hi) of ``source``,
    leaves counted from w_lo.

    Any range may be asked for: the kernel runs on every tile the range
    touches, whole, and each tile's share of the range is gathered in word
    order.  ``ws`` is the calling thread's :class:`_kernels.Workspace`
    (default: a fresh one); the returned leaf sums never live in it.  Each
    distinct observable is evaluated once per lattice.

    ``maxima``, for scalar observables, is a (3, 2) float array, set to each
    observable's :func:`_maxima` over the tiles the range touches
    (:func:`_lattice_values`).
    """
    ws = K.Workspace() if ws is None else ws
    matrix = observables[0].kind == "matrix"
    tile = source.tile
    span = tile.order.size
    vals = ws.take("reordered", (w_hi - w_lo,))
    if maxima is not None:
        maxima[...] = 0.0
    for lo in range(w_lo - w_lo % span, w_hi, span):
        values, zeros = _lattice_values(source, lo, observables, ws, maxima)
        if matrix:
            result = K.matrix_kernel(*values, cells=tile.cells, out=ws)
        else:
            f, g, h = _kernel_args(values, zeros, tile, ws)
            result = K.scalar_kernel(f, g, h, cells=tile.cells, out=ws)
        a, b = max(w_lo, lo), min(w_hi, lo + span)
        # under the default mode="raise", numpy buffers ``out`` (a copy per tile)
        np.take(result, tile.order[a - lo : b - lo], out=vals[a - w_lo : b - w_lo], mode="clip")
    return K.leaf_sums(vals, LEAF)


# The last direct scalar sum, (preset offsets, n, (f, g, h), maxima, asked):
# maxima is a (3, 2) array of f's, g's and h's (sup, largest edge
# difference), or None when the sum took none, and asked whether
# estimate_lipschitz has been called for one of its observables at its
# preset and level.  Every other sum sets it to None.
_last_direct = None


def _sum_kernel(source, n, total, f, g, h, workers, maxima=None):
    """The level-n sum over ``source``, of ``total`` words.  ``maxima``, a
    (3, 2) float array given for a direct scalar sum, is set to f's, g's
    and h's :func:`_maxima` over the level: each task takes them over the
    tiles it touches, and their maximum does not depend on how the tasks
    are spread.

    Every sum returns here, and one that is not finite (a NaN or inf at a
    vertex of a square, or an overflow) raises ValueError naming the triple
    and the level; a value at a vertex of no square (a carpet hole, a
    padded cell) enters no term that is kept."""
    global _last_direct
    _last_direct = None
    observables = (f, g, h)
    nleaves = (total + LEAF - 1) // LEAF
    leafsums = np.empty(nleaves, dtype=np.complex128)
    span = _task_span(source, total)
    tasks = [(lo, min(total, lo + span)) for lo in range(0, total, span)]
    per_task = None if maxima is None else np.empty((len(tasks), 3, 2))
    local = threading.local()  # one workspace per thread, dropped on return

    def run(i):
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = K.Workspace()
        lo, hi = tasks[i]
        out = _leaf_sums_for_range(source, lo, hi, observables, ws,
                                   maxima=None if per_task is None else per_task[i])
        leafsums[lo // LEAF : lo // LEAF + out.size] = out

    if workers <= 1 or len(tasks) == 1:
        for i in range(len(tasks)):
            run(i)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            list(pool.map(run, range(len(tasks))))
    if maxima is not None:
        np.max(per_task, axis=0, out=maxima)  # np.max keeps NaN
    val = _pairwise_reduce(leafsums)
    if not np.isfinite(val):
        names = ", ".join(repr(o.name) for o in observables)
        raise ValueError(f"the level-{n} sum over ({names}) is {val}, not finite: an observable is "
                         "NaN or inf at a vertex of a square, or the sum of finite terms overflowed")
    return val


def _check_triple(f, g, h):
    kinds = {o.kind for o in (f, g, h)}
    modes = {o.mode for o in (f, g, h)}
    dims = {o.dim for o in (f, g, h)}
    if len(kinds) != 1 or len(dims) != 1:
        raise ValueError("observable triple must share kind and dimension")
    if len(modes) != 1:
        raise ValueError("observable triple must share evaluation mode")
    return kinds.pop(), modes.pop()


def _word_count(nmaps, n):
    """nmaps**n, the number of level-n words; ValueError when the word indices
    would overflow int64."""
    total = nmaps**n
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"{nmaps}**{n} level-{n} words overflow 64-bit word indices")
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
    preset.  In pullback mode (dust preset only) the triple is evaluated at
    the dyadic staircase images of the vertices; in direct mode at the
    vertices themselves.

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
    if n < 0:
        raise ValueError("level must be >= 0")
    kind, mode = _check_triple(f, g, h)
    total = _word_count(preset.nmaps, n)
    budget_check(total, kind, allow_large)
    workers = resolve_workers(workers)
    if mode == "pullback":
        if preset.name != CANTOR_DUST.name:
            raise ValueError("pullback mode is defined through the dust digit map only")
        source = _pullback_source(n)
    else:
        source = _direct_source(preset, n)
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
    allow_large: bool = False,
) -> complex:
    """The same kernel summed over the 4**n cells of the 2**n subdivision.

    Arguments are torus functions (callables or :class:`TorusFunction`);
    vertex values are taken at the raw dyadic cell corners, so the far edge
    evaluates at coordinate value 1.  For 1-periodic functions that matches
    the identified value up to rounding, and plain coordinate functions keep
    their exact Riemann sums.  A sum that is not finite raises ValueError,
    as in :func:`phi_n`.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    total = _word_count(4, n)
    budget_check(total, "scalar", allow_large)
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


def cyclicity_residual(preset, n, f, g, h, workers=None, allow_large=False) -> float:
    """|phi_n(f, g, h) - phi_n(h, f, g)|: cyclic symmetry defect at level n."""
    a = phi_n(preset, n, f, g, h, workers=workers, allow_large=allow_large)
    b = phi_n(preset, n, h, f, g, workers=workers, allow_large=allow_large)
    return abs(a - b)


def hochschild_residual(preset, n, a0, a1, a2, a3, workers=None, allow_large=False) -> float:
    """|b phi_n| on one quadruple, with pointwise observable products."""
    kw = dict(workers=workers, allow_large=allow_large)
    val = phi_n(preset, n, a0 * a1, a2, a3, **kw)
    val -= phi_n(preset, n, a0, a1 * a2, a3, **kw)
    val += phi_n(preset, n, a0, a1, a2 * a3, **kw)
    val -= phi_n(preset, n, a3 * a0, a1, a2, **kw)
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
    backend: str = K.BACKEND

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
            "backend": self.backend,
        }


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
    """One report per level: value, error against the target, error ratios."""
    workers = resolve_workers(workers)
    rows = []
    for n in ns:
        t0 = perf_counter()
        val = phi_n(preset, n, f, g, h, workers=workers, allow_large=allow_large)
        ms = (perf_counter() - t0) * 1e3
        row = CocycleReport(
            preset=preset.name,
            n=n,
            squares=preset.nmaps**n,
            phi=val,
            wall_ms=ms,
            workers=workers,
        )
        if target is not None:
            row.target = complex(target)
            row.abs_err = abs(val - target)
        rows.append(row)
    link_error_ratios(rows)
    return rows


def link_error_ratios(rows: Sequence[CocycleReport]) -> None:
    """Set each row's ``err_ratio`` to its ``abs_err`` over the previous
    row's; left unset where either error is missing or the previous is 0."""
    for prev, row in zip(rows, rows[1:]):
        if row.abs_err is not None and prev.abs_err not in (None, 0.0):
            row.err_ratio = row.abs_err / prev.abs_err


# ---------------------------------------------------------------------------
# Lipschitz instrumentation
# ---------------------------------------------------------------------------


def estimate_lipschitz(preset: IfsPreset, n: int, obs: Observable) -> tuple[float, float]:
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
    over.  A negative level, or a value at a level-n vertex that is not
    finite (which would make the estimate meaningless), raises ValueError
    naming the observable.
    """
    global _last_direct
    if obs.kind != "scalar" or obs.mode != "direct":
        raise ValueError("Lipschitz estimation applies to direct scalar observables")
    if n < 0:
        raise ValueError("level must be >= 0")
    offsets, level, triple, maxima, _ = _last_direct or (None, None, (), None, False)
    place = next((i for i, o in enumerate(triple) if o is obs), None)
    if place is not None and (offsets, level) == (preset.offsets, n):
        _last_direct = (offsets, level, triple, maxima, True)
    else:
        maxima = None
    if maxima is not None:
        sup, edge = maxima[place]
    else:
        total = _word_count(preset.nmaps, n)
        source = _direct_source(preset, n)
        ws = K.Workspace()
        peak = np.zeros((1, 2))
        for lo in range(0, total, source.tile.order.size):  # nmaps**n is a whole number of tiles
            _lattice_values(source, lo, (obs,), ws, peak)
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
