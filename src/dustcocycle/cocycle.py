"""The combinatorial integration engine.

``phi_n`` streams the level-n squares of an IFS preset in word order,
evaluates a function triple at the four vertices of each square, applies the
per-square trace kernel and reduces the 4**n terms through a fixed-shape
pairwise tree over 4096-word leaves.  The tree shape depends only on the term
count, never on the worker count, so results are bit-identical however the
work is spread.

Each parallel task covers up to 65536 consecutive words.  In pullback mode the
staircase image of the dust squares is the Z-order (Morton) walk of the
2**n x 2**n torus cells, so a task's squares are one aligned 2**m x 2**m
tile, m = min(n, 8) (for n <= 8, the whole grid).  The vertex lattice of a
task's bounding box is a tensor product: the engine builds it as a (1, W)
row of u and an (H, 1) column of v, 257 of each for a 256 x 256 tile, and
each observable broadcasts its rule over the two, so a product rule such as
cos 2 pi u * cos 2 pi v calls its transcendentals H + W times, not H * W.
Each observable's (H, W) values are flattened row-major (a view, or for a
broadcast row or column a copy in the worker's workspace), and the trace
kernel takes them whole, with the flat corner offsets (0, 1, W + 1, W) of
cell 0: cell k's corners are at k, k + 1, k + W + 1 and k + W, so cell
(i, j) is k = i W + j.  The last cell of each row is a padded one, whose
x-edge wraps into the next row; it is computed and dropped, and the last
row's is left out, so the kernel runs on (H - 1) W - 1 cells and never reads
past the lattice.  Per block of consecutive cells it reads f at the corners
v0..v3 and g and h as their x- and y-edge differences, each edge subtracted
once for the two cells that share it, every operand one contiguous slice,
with no gather.  Real rules stay float64 up to the kernel's complex result.
A matrix observable's values are its (3, H W) float64 Bloch vectors, read
the same way.  The per-cell values are then put into word order with one
``np.take``.
Every pullback task, at every level, walks its tile in the same Morton
order, so a pullback sum builds that permutation once, from the digit table
of the m-digit words, rebased past the padded cells to
ty (2**m + 1) + tx, carries it in its source, and places each task's tile
from the digit map of its first word alone.

Direct mode evaluates at the triadic vertices of each square instead, over
3**n.  On the dust and the Sierpinski carpet its tasks are lattice tiles
too: a task is the nmaps**k words of one level-k sub-fractal, k = min(n, 8)
on the dust (4**8 words, 16 leaves) and min(n, 5) on the carpet (8**5
words, 8 leaves), placed from its first word's corner numerators.  The
dust's squares share no vertices, so the rule runs on a (1, 2, 1, w) row of
x, the tile's near columns x0 + T(c) and far ones x0 + T(c) + 1 (T writing
c's bits as ternary digits 2), and a (2, 1, h, 1) column of y, likewise:
the (2, 2, h, w) lattice's corners v0..v3 are four contiguous h w blocks at
offsets (0, hw, 3hw, 2hw), and the cells come in the pullback's Morton
order.  The carpet's lattice is the (3**k + 1)**2 box around its tile, a
plain lattice of a row and a column; the kernel runs on every box cell,
holes and padded cells included (1.8x the squares at k = 5), and
``np.take`` keeps the tile's own, at ky (3**k + 1) + kx.  A tile's layout
depends only on the preset and k, so it is built once per level and cached.
Which presets get tiles is decided from data: a full tile must be a whole
number of leaves.  ``full-subdivision-3``'s 9**k never is, so it keeps the
word path, its only user: every word is digit-mapped (``_direct_coords``)
and each observable is evaluated once on the words' corner coordinates,
concatenated as (v0, v1, v2, v3), at offsets (0, B, 2B, 3B), so that every
caller of the kernel passes a flat lattice and its cells.
:func:`estimate_lipschitz` reads the same tasks and lattices, and the same
edge differences.

Each worker thread keeps one :class:`_kernels.Workspace` for the duration of
one sum and runs all its tasks in it: the digit maps, the copies of
broadcast values, kernel temporaries and reordered values reuse its
buffers, and nothing of it outlives the call.  A tile's coordinates are
not among them: a row and a column are too small to need it.  A task still
allocates its observables' own values and, on the word path, its word
indices.

``phi_subdivision`` runs the same kernel over the cells of the plain 2**n
dyadic subdivision, in row-major order, on the same plain lattices; its tasks
are whole rows, already in cell order, so they need no reorder (they skip
the padded cell of each row as they read their cells), and it never uses the
Morton permutation: the pullback = subdivision check compares two
independently ordered sums.  In pullback mode the two sums are termwise
equal because dust squares biject onto cells with order-preserving corners.
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
from .oracle import ProjectionField, TorusFunction

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
    v on a vertex lattice, a 4-D (1, 2, 1, w) row and (2, 1, h, 1) column on
    the dust's direct tiles, or two 1-D corner arrays of the same length on
    the word path.  A scalar rule returns a real or complex array that
    broadcasts to their common shape; a rule that depends on u only may
    return the row of u's shape.  ``mode`` decides
    what the engine feeds it: the vertex's own triadic coordinates (direct)
    or the dyadic staircase image on the torus (pullback).

    Matrix kind is the 2 x 2 Hermitian unit-trace field
    e = (I + n . sigma) / 2 of a real vector n: the rank-1 projections and
    Bott fields the pairing is defined on.  Its rule returns n itself, a real
    array of shape (3, ...) with n1, n2, n3 along axis 0 that broadcasts to
    (3,) + the common shape; a complex or non-finite result raises
    ValueError naming the observable.  ``dim`` must be 2.  Larger matrices,
    non-Hermitian matrix triples and products of matrix observables (a
    product of projections is neither Hermitian nor of unit trace) are not
    supported.
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
        # a matrix result of fewer axes would broadcast n along the last one
        if self.kind != "matrix" or out.ndim == len(shape):
            try:
                return np.broadcast_to(out, shape)
            except ValueError:
                pass
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
            lambda u, v: np.asarray(a(u, v)) * np.asarray(b(u, v)), self.tag,
        )


def pullback_scalar(tf, name: str | None = None) -> Observable:
    """Torus function composed with the staircase image map."""
    tf = tf if isinstance(tf, TorusFunction) else TorusFunction(name or "fn", tf)
    return Observable(name or tf.name, "pullback", "scalar", tf.fn, tag="smooth-pullback")


def direct_scalar(fn, name: str) -> Observable:
    """Function of the vertex coordinates themselves."""
    return Observable(name, "direct", "scalar", fn, tag="lipschitz-direct")


def pullback_projection(field: ProjectionField, name: str | None = None) -> Observable:
    """Matrix projection on the torus composed with the staircase image."""
    return Observable(
        name or field.name, "pullback", "matrix", field.__call__,
        tag="matrix-projection", dim=2,
    )


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
# vertex coordinates
# ---------------------------------------------------------------------------


def _direct_coords(words, n, offx, offy, ws):
    """Triadic vertex coordinates (x0, x1, y0, y1) as floats, held in ``ws``."""
    kx, ky = K.corner_numerators(words, n, offx, offy, out=ws)
    den = float(3**n)
    coords = []
    for axis, k in (("x", kx), ("y", ky)):
        near = np.divide(k, den, out=ws.take(f"coords.{axis}0", k.shape, np.float64))
        k += 1
        far = np.divide(k, den, out=ws.take(f"coords.{axis}1", k.shape, np.float64))
        coords += [near, far]
    return coords


def _shifted_cells(h, w):
    """The cells of a plain h x w vertex lattice, flattened row-major, as the
    kernels take them: corners at k, k + 1, k + w + 1 and k + w, and
    (h - 1) w - 1 cells.  Cell k = i w + j spans rows i, i + 1 and columns
    j, j + 1; the last cell of each row (j = w - 1) is a padded cell whose
    x-edge wraps into the next row, and the last row's is left out."""
    return (0, 1, w + 1, w), (h - 1) * w - 1


def _tile_level(nmaps):
    """The largest k with nmaps**k words in one task of at most TASK_LEAVES
    leaves: 8 on the dust, 5 on the carpet."""
    k = 0
    while nmaps > 1 and nmaps ** (k + 1) <= TASK_LEAVES * LEAF:
        k += 1
    return k


class _Tile(NamedTuple):
    """The vertex lattice of an aligned direct task of nmaps**k words, k =
    min(n, :func:`_tile_level`): the level-k sub-fractal whose corner is the
    task's first word's.

    ``dx`` and ``dy`` are the lattice's column and row numerators over 3**n,
    relative to that corner, shaped to broadcast into the lattice; ``cells``
    are the lattice's cells as the kernels take them; ``order`` is where each
    word's cell sits among them, in word order.
    """

    dx: np.ndarray
    dy: np.ndarray
    cells: tuple
    order: np.ndarray


def _direct_source(preset: IfsPreset, n: int):
    """The source of a level-n direct sum on ``preset``.

    Tasks are lattice tiles, ``("direct", offx, offy, tile)``, when a full
    tile of nmaps**k words, k = :func:`_tile_level`, is a whole number of
    leaves (4**8 on the dust, 8**5 on the carpet; below level k one tile is
    the whole grid).  Otherwise (``full-subdivision-3``: 9**k never is) they
    are runs of words, ``("words", offx, offy)``, each word digit-mapped.
    """
    offx, offy = preset.offset_arrays()
    level = _tile_level(preset.nmaps)
    if preset.nmaps**level % LEAF:
        return ("words", offx, offy)
    return ("direct", offx, offy, _direct_tile(preset.offsets, min(n, level)))


@lru_cache(maxsize=32)
def _direct_tile(offsets, k):
    """The :class:`_Tile` of the level-k words of the IFS with these offsets,
    with read-only arrays: built once per level, like the digit tables.

    A tile's cells are the level-k words' own, read from their corner
    numerators.  When they are every pair of their w columns and h rows (the
    dust), the lattice is (2, 2, h, w): the cells' near and far rows, their
    near and far columns, then the rows and columns themselves, so the
    corners v0..v3 are four contiguous h w blocks at offsets
    (0, hw, 3hw, 2hw), no vertex is evaluated twice and every lattice cell
    is one of the tile's.  Otherwise (the carpet) the lattice is the
    (3**k + 1)**2 box around them, a plain lattice whose cells share their
    vertices, and the kernel runs on every box cell, padded ones included,
    before the tile's own are gathered.
    """
    off = np.array(offsets, dtype=np.int64)
    words = np.arange(len(offsets) ** k, dtype=np.int64)
    kx, ky = K.corner_numerators(words, k, off[:, 0], off[:, 1])
    xs, ys = np.unique(kx), np.unique(ky)
    if xs.size * ys.size == kx.size:
        w, h = xs.size, ys.size
        far = np.arange(2, dtype=np.int64)[:, None]
        tile = _Tile(
            (xs + far).reshape(1, 2, 1, w), (ys + far).reshape(2, 1, h, 1),
            ((0, h * w, 3 * h * w, 2 * h * w), h * w),
            np.searchsorted(ys, ky) * w + np.searchsorted(xs, kx),
        )
    else:
        side = 3**k
        box = np.arange(side + 1, dtype=np.int64)
        tile = _Tile(box[None, :], box[:, None], _shifted_cells(side + 1, side + 1),
                     ky * (side + 1) + kx)
    for a in (tile.dx, tile.dy, tile.order):
        a.flags.writeable = False
    return tile


def _task_span(source):
    """Words per task: one direct tile's, else TASK_LEAVES leaves (from level
    8 on one pullback tile, below it the whole grid)."""
    return source[3].order.size if source[0] == "direct" else TASK_LEAVES * LEAF


def _pullback_source(n):
    """The source of a level-n pullback sum, ``("pullback", order)``: where
    each of a tile's 4**m words, m = min(n, 8), has its cell on the tile's
    flat (2**m + 1)-wide lattice, in word order.  That is the Morton walk
    ``K.dust_tile_order(m)``, ty 2**m + tx, rebased to ty (2**m + 1) + tx
    past the padded cell of each lattice row; built once per sum."""
    m = min(n, _tile_level(4))
    order = K.dust_tile_order(m)
    return ("pullback", order + (order >> m))


def _vertex_lattice(source, n, w_lo, w_hi, ws):
    """Vertex lattice of the cells of words or cells [w_lo, w_hi).

    Returns the lattice coordinates u and v, which broadcast to its shape,
    its cells as the kernels take them, and where each square's cell sits
    among them, in word order: an index array for pullback words (the
    rebased Morton order) and direct tiles, a slice of the row-major cells
    without their padded ones for subdivision cells.  A plain lattice is a
    (1, W) row of u and an (H, 1) column of v; a dust tile's, a
    (1, 2, 1, w) row and a (2, 1, h, 1) column.

    Every pullback task, at every level, is one aligned tile of 4**m words,
    m = min(n, 8), whose squares are the tile of its first word's image cell:
    the source (:func:`_pullback_source`) carries the in-tile order, and only
    the first word is digit-mapped.  A direct task is one aligned
    :class:`_Tile`, placed from its first word's corner numerators alike.
    Any other pullback or direct range raises ValueError.  Coordinates are
    the same floats as the per-square corners: pullback columns and rows
    wrap with ``& mask`` (the periodic torus), subdivision cells keep their
    far edge at coordinate value 1, so plain (non-periodized) coordinate
    functions keep their Riemann sums, and direct ones are numerators over
    3**n.
    """
    if source[0] == "direct":
        _, offx, offy, tile = source
        if w_lo % tile.order.size or w_hi - w_lo != tile.order.size:
            raise ValueError(f"[{w_lo}, {w_hi}) is not one full aligned direct task")
        kx, ky = K.corner_numerators(np.array([w_lo], dtype=np.int64), n, offx, offy, out=ws)
        den = float(3**n)
        return (kx[0] + tile.dx) / den, (ky[0] + tile.dy) / den, tile.cells, tile.order
    side = 1 << n
    mask = side - 1
    if source[0] == "pullback":
        order = source[1]
        cols = rows = 1 << min(n, _tile_level(4))
        if order.size != cols * rows or w_lo % order.size or w_hi - w_lo != order.size:
            raise ValueError(f"[{w_lo}, {w_hi}) is not one full aligned pullback task")
        mx, my = K.dust_image_bits(np.array([w_lo], dtype=np.int64), n, out=ws)
        x0, y0 = int(mx[0]), int(my[0])
    else:
        y0, y1 = w_lo >> n, (w_hi - 1) >> n
        x0, cols = (w_lo & mask, w_hi - w_lo) if y0 == y1 else (0, side)
        rows = y1 - y0 + 1
        start = (w_lo & mask) - x0
        order = slice(start, start + w_hi - w_lo)
    x = x0 + np.arange(cols + 1, dtype=np.int64)
    y = y0 + np.arange(rows + 1, dtype=np.int64)
    if source[0] == "pullback":
        x &= mask
        y &= mask
    inv = 1.0 / float(side)
    return (x * inv)[None, :], (y * inv)[:, None], _shifted_cells(rows + 1, cols + 1), order


def _flat(values, shape, name, ws):
    """``values`` reshaped to the flat ``shape``: a view when they are
    C-contiguous, else (a broadcast row or column) a copy held in buffer
    ``name`` of ``ws``."""
    if not values.flags.c_contiguous:
        buf = ws.take(name, values.shape, values.dtype)
        np.copyto(buf, values)
        values = buf
    return values.reshape(shape)


def _lattice_values(source, n, w_lo, w_hi, observables, ws):
    """Each observable's values on the flat vertex lattice of the cells of
    words or cells [w_lo, w_hi), shape (N,) or (3, N) for Bloch vectors, the
    lattice's cells as the kernels take them, and where each word's cell
    sits among them: None on the word path, whose cells are in word order
    already.

    Each distinct observable is evaluated once (a repeated one is the same
    array), on the lattice of :func:`_vertex_lattice`, or on the word path on
    the corners of every word's own digit map, concatenated as
    (v0, v1, v2, v3) with offsets (0, B, 2B, 3B).
    """
    if source[0] == "words":
        _, offx, offy = source
        x0, x1, y0, y1 = _direct_coords(np.arange(w_lo, w_hi, dtype=np.int64), n, offx, offy, ws)
        b = x0.size
        u = np.concatenate((x0, x1, x1, x0), out=ws.take("coords.u", (4 * b,), np.float64))
        v = np.concatenate((y0, y0, y1, y1), out=ws.take("coords.v", (4 * b,), np.float64))
        cells, order = ((0, b, 2 * b, 3 * b), b), None
    else:
        u, v, cells, order = _vertex_lattice(source, n, w_lo, w_hi, ws)
    cache = {}
    for i, obs in enumerate(observables):
        if id(obs) not in cache:
            shape = (3, -1) if obs.kind == "matrix" else (-1,)
            cache[id(obs)] = _flat(obs.evaluate(u, v), shape, f"lattice.{i}", ws)
    return [cache[id(o)] for o in observables], cells, order


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


def _leaf_sums_for_range(source, n, w_lo, w_hi, observables, ws=None):
    """Leaf sums of the kernel over word/cell indices [w_lo, w_hi).

    ``source`` is ``("direct", offx, offy, tile)`` or ``("words", offx,
    offy)`` as :func:`_direct_source` builds it, ``("pullback", order)`` or
    ``("cells",)``.  ``ws`` is the calling thread's
    :class:`_kernels.Workspace` (default: a fresh one); the returned leaf
    sums never live in it.  Each distinct observable is evaluated once.
    """
    ws = K.Workspace() if ws is None else ws
    (f, g, h), cells, order = _lattice_values(source, n, w_lo, w_hi, observables, ws)
    kernel = K.matrix_kernel if observables[0].kind == "matrix" else K.scalar_kernel
    vals = kernel(f, g, h, cells=cells, out=ws)
    if isinstance(order, slice):
        vals = _row_major(vals, cells, ws)[order]
    elif order is not None:
        vals = np.take(vals, order, out=ws.take("reordered", order.shape))
    return K.leaf_sums(vals, LEAF)


def _row_major(vals, cells, ws):
    """The values of a plain lattice's cells in row-major order, without the
    padded cell of each row, held in ``ws``."""
    width = cells[0][3]
    rows = (cells[1] + 1) // width
    grid = ws.take("reordered", (rows, width - 1))
    np.copyto(grid[:-1], vals[: (rows - 1) * width].reshape(rows - 1, width)[:, :-1])
    np.copyto(grid[-1], vals[(rows - 1) * width :])
    return grid.reshape(-1)


def _sum_kernel(source, n, total, f, g, h, workers):
    observables = (f, g, h)
    nleaves = (total + LEAF - 1) // LEAF
    leafsums = np.empty(nleaves, dtype=np.complex128)
    span = _task_span(source)
    tasks = [(lo, min(total, lo + span)) for lo in range(0, total, span)]
    local = threading.local()  # one workspace per thread, dropped on return

    def run(task):
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = K.Workspace()
        lo, hi = task
        out = _leaf_sums_for_range(source, n, lo, hi, observables, ws)
        leafsums[lo // LEAF : lo // LEAF + out.size] = out

    if workers <= 1 or len(tasks) == 1:
        for t in tasks:
            run(t)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            list(pool.map(run, tasks))
    return _pairwise_reduce(leafsums)


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
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    kind, mode = _check_triple(f, g, h)
    total = _word_count(preset.nmaps, n)
    budget_check(total, kind, allow_large)
    workers = resolve_workers(workers)
    if mode == "pullback":
        if preset.name != CANTOR_DUST.name:
            raise ValueError("pullback mode is defined through the dust digit map only")
        # one in-tile order for every task of the sum; it dies with the call
        source = _pullback_source(n)
    else:
        source = _direct_source(preset, n)
    return _sum_kernel(source, n, total, f, g, h, workers)


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
    their exact Riemann sums.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    total = _word_count(4, n)
    budget_check(total, "scalar", allow_large)
    workers = resolve_workers(workers)
    obs = tuple(
        Observable(getattr(t, "name", "fn"), "pullback", "scalar",
                   t.fn if isinstance(t, TorusFunction) else t)
        for t in (ftilde, gtilde, htilde)
    )
    return _sum_kernel(("cells",), n, total, *obs, workers)


def pairing_n(
    preset: IfsPreset,
    n: int,
    p: Observable,
    workers: int | None = None,
    allow_large: bool = False,
) -> complex:
    """Finite-level pairing of the cocycle with a matrix projection:
    phi_n(p, p, p) / (2 pi i), after :func:`validate_projection`."""
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
    differences the kernel reads, through the same helper
    (:func:`_kernels.edges`), on the same tasks and lattices as
    :func:`phi_n`'s.  Box cells outside a carpet tile, padded cells among
    them, are gathered out, so neither the vertices and edges of its holes
    nor an x-edge that wraps from one lattice row into the next counts; a
    maximum depends on neither the order it is taken in nor the sign of a
    difference.  A negative level raises ValueError.
    """
    if obs.kind != "scalar" or obs.mode != "direct":
        raise ValueError("Lipschitz estimation applies to direct scalar observables")
    if n < 0:
        raise ValueError("level must be >= 0")
    total = _word_count(preset.nmaps, n)
    source = _direct_source(preset, n)
    span = _task_span(source)
    edge = 3.0**-n
    sup = 0.0
    lip = 0.0
    ws = K.Workspace()
    for lo in range(0, total, span):
        (a,), cells, order = _lattice_values(source, n, lo, min(total, lo + span), (obs,), ws)

        def top(x):
            x = np.abs(x)
            if order is not None and order.size < x.size:
                x = np.take(x, order)
            return x.max()

        sup = max(sup, *(top(v) for v in K.corners(a, cells)))
        lip = max(lip, *(top(d) / edge for d in K.edges(a, cells, lambda _, x, y: x - y)))
    return sup, lip


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
    target; direct names carry target 0 (the Lipschitz limit).
    """
    from .oracle import get_smooth_preset

    key = name.strip().lower()
    if key in DIRECT_PRESETS:
        f, g, h = DIRECT_PRESETS[key]()
        return f, g, h, 0.0 + 0.0j, "direct"
    preset = get_smooth_preset(key)
    return (
        pullback_scalar(preset.f),
        pullback_scalar(preset.g),
        pullback_scalar(preset.h),
        None if preset.target is None else complex(preset.target),
        "pullback",
    )
