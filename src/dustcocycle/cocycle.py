"""The combinatorial integration engine.

``phi_n`` streams the level-n squares of an IFS preset in word order,
evaluates a function triple at the four vertices of each square, applies the
per-square trace kernel and reduces the 4**n terms through a fixed-shape
pairwise tree over 4096-word leaves.  The tree shape depends only on the term
count, never on the worker count, so results are bit-identical however the
work is spread.

Each parallel task covers 65536 consecutive words.  In pullback mode the
staircase image of the dust squares is the Z-order (Morton) walk of the
2**n x 2**n torus cells, so a task's squares are one aligned 2**m x 2**m
tile, m = min(n, 8) (for n <= 8, the whole grid).  The vertex lattice of a
task's bounding box is a tensor product: the engine builds it as a (1, W)
row of u and an (H, 1) column of v, 257 of each for a 256 x 256 tile, and
each observable broadcasts its rule over the two, so a product rule such as
cos 2 pi u * cos 2 pi v calls its transcendentals H + W times, not H * W.
The trace kernel reads the four shifted views ``a[:-1, :-1]``,
``a[:-1, 1:]``, ``a[1:, 1:]`` and ``a[1:, :-1]`` of each observable's
(H, W) values: the corners v0..v3 of every cell, with no gather.  Real rules
stay float64 up to the kernel's complex result.  A matrix observable's
(H, W, 2, 2) values are first turned into a (3, H, W) float64 array of
Bloch vectors, once per task, and the kernel reads the same views of it.
The per-cell values are then put into word order with one ``np.take``.
Every pullback task, at every level, walks its tile in the same Morton
order, so a pullback sum builds that permutation once, from the digit table
of the m-digit words, carries it in its source, and places each task's tile
from the digit map of its first word alone.
Direct mode evaluates at the triadic vertices of each square instead, as
four 1-D corner arrays; on the dust those squares share no vertices.

Each worker thread keeps one :class:`_kernels.Workspace` for the duration of
one sum and runs all its tasks in it: the digit maps, kernel temporaries and
reordered values reuse its buffers, and nothing of it outlives the call.  The
lattice coordinates are not among them: a row and a column are too small to
need it.  A task still allocates its observables' own values and, in direct
mode, its word indices.

``phi_subdivision`` runs the same kernel over the cells of the plain 2**n
dyadic subdivision, in row-major order, on the same lattice views; its tasks
are whole rows, already in cell order, so they need no reorder, and it never
uses the Morton permutation: the pullback = subdivision check compares two
independently ordered sums.  In pullback mode the two sums are termwise equal
because dust squares biject onto cells with order-preserving corners.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels as K
from .geometry import CANTOR_DUST, IfsPreset
from .oracle import ProjectionField, TorusFunction

LEAF = 4096
TASK_LEAVES = 16  # 65536 words per parallel task, always whole leaves
# A pullback task, 4**min(n, 8) words, is the Morton walk of one aligned
# 2**min(n, 8) x 2**min(n, 8) tile.
_TILE_LEVEL = 8
_PROJECTION_LEVEL = 6
_PROJECTION_TOL = 1e-10

MAX_SQUARES_SCALAR = 4**12
MAX_SQUARES_MATRIX = 4**10

_WORKERS_ENV = "DUSTCOCYCLE_WORKERS"


class BudgetError(ValueError):
    """A run would enumerate more squares than the configured budget."""


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
    broadcast against each other: 1-D corner arrays of one shape, or a (1, W)
    row of u and an (H, 1) column of v on a vertex lattice.  It returns a
    real or complex array that broadcasts to their common shape, followed
    for matrix kind by (2, 2); a rule that depends on u only may return the
    (1, W) row.  ``mode`` decides what the engine feeds it: the vertex's own
    triadic coordinates (direct) or the dyadic staircase image on the torus
    (pullback).

    Matrix kind means 2 x 2 Hermitian with unit trace, e = (I + n . sigma) / 2
    for a real vector n: the rank-1 projections and Bott fields the pairing
    is defined on.  The engine converts each vertex value to its Bloch vector
    n once per task and runs a real 3-vector kernel on it; a value that is
    not Hermitian with trace 1 to within 1e-10 raises ValueError there.
    ``dim`` must be 2.  Larger matrices, non-Hermitian matrix triples and
    products of matrix observables (a product of projections is neither
    Hermitian nor of unit trace) are not supported.  Against the complex
    2 x 2 kernel this replaced, the pairings of the Bott projections
    (degrees -3..3, n = 0..10) moved by at most 1.8e-15.
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
        shape: float64 when the rule's result is real, else complex128.

        A result that does not broadcast to that shape raises ValueError.
        """
        out = np.asarray(self.rule(u, v))
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        if self.kind == "matrix":
            shape += (self.dim, self.dim)
        out = out.astype(np.complex128 if np.iscomplexobj(out) else np.float64, copy=False)
        try:
            return np.broadcast_to(out, shape)
        except ValueError:
            raise ValueError(
                f"observable {self.name!r}: rule returned shape {out.shape}, "
                f"which does not broadcast to {shape}"
            ) from None

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
    """Check e^2 = e and e = e* at every level-m pullback vertex image,
    m = min(n, 6): the 2**m x 2**m torus grid (i, j) / 2**m, evaluated as a
    (1, 2**m) row of u and a (2**m, 1) column of v."""
    if obs.kind != "matrix":
        raise ValueError("projection check needs a matrix observable")
    m = min(n, _PROJECTION_LEVEL)
    grid = np.arange(1 << m) / float(1 << m)
    e = obs.evaluate(grid[None, :], grid[:, None])
    herm = np.abs(e - np.conj(np.swapaxes(e, -1, -2))).max()
    idem = np.abs(e @ e - e).max()
    if herm > _PROJECTION_TOL or idem > _PROJECTION_TOL:
        raise ValueError(
            f"observable {obs.name!r} is not a projection at level-{m} vertices "
            f"(|e-e*|={herm:.2e}, |e^2-e|={idem:.2e}, tol={_PROJECTION_TOL:.0e})"
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


def _vertex_lattice(source, n, w_lo, w_hi, ws):
    """Vertex lattice of the image cells of words or cells [w_lo, w_hi).

    Returns the lattice that spans the bounding box of the cells (H - 1 rows
    of W - 1 cells) as a (1, W) row of u and an (H, 1) column of v, and where
    each square's cell sits in that box, in word order: flat row-major
    indices for pullback words (Morton order), a slice for subdivision cells
    (already row-major).  Every pullback task, at every level, is one aligned
    tile of 4**m words, m = min(n, 8), whose squares are the tile of its
    first word's image cell: the source ``("pullback", order)`` carries the
    in-tile Morton order, ``K.dust_tile_order(m)``, and only the first word
    is digit-mapped; any other pullback range raises ValueError.
    Coordinates are the same floats as the per-square corners: pullback
    columns and rows wrap with ``& mask`` (the periodic torus), subdivision
    cells keep their far edge at coordinate value 1, so plain
    (non-periodized) coordinate functions keep their Riemann sums.
    """
    side = 1 << n
    mask = side - 1
    if source[0] == "pullback":
        order = source[1]
        cols = rows = 1 << min(n, _TILE_LEVEL)
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
    return (x * inv)[None, :], (y * inv)[:, None], order


def _corner_points(c0, c1, d0, d1):
    """Vertex evaluation points in order v0, v1, v2, v3."""
    return ((c0, d0), (c1, d0), (c1, d1), (c0, d1))


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


def _bloch(obs, e, ws, name):
    """The Bloch vectors of ``obs``'s (..., 2, 2) vertex values
    e = (I + n . sigma) / 2, as a (3, ...) float64 array held in buffer
    ``name`` of ``ws`` (see :func:`_kernels.bloch_vectors`).

    A value that is not Hermitian, or whose trace is not 1, to within
    ``_PROJECTION_TOL`` (a NaN included) raises ValueError naming ``obs``.
    """
    n = ws.take(name, (3,) + e.shape[:-2], np.float64)
    herm, trace = K.bloch_vectors(e, out=n)
    if not (herm <= _PROJECTION_TOL and trace <= _PROJECTION_TOL):
        raise ValueError(
            f"observable {obs.name!r} is not 2 x 2 Hermitian with unit trace at every "
            f"vertex (|e-e*|={herm:.2e}, |Tr e-1|={trace:.2e}, tol={_PROJECTION_TOL:.0e})"
        )
    return n


def _leaf_sums_for_range(source, n, w_lo, w_hi, observables, ws=None):
    """Leaf sums of the kernel over word/cell indices [w_lo, w_hi).

    ``source`` is ``("direct", offx, offy)``, ``("pullback", order)`` or
    ``("cells",)``, as for :func:`_vertex_lattice`.  ``ws`` is the calling
    thread's :class:`_kernels.Workspace` (default: a fresh one); the
    returned leaf sums never live in it.  Each distinct matrix observable's
    values are converted to Bloch vectors once, into ``ws``.
    """
    ws = K.Workspace() if ws is None else ws
    matrix = observables[0].kind == "matrix"
    # A matrix rule's own values live as long as the task: freed right after
    # the conversion, a 4 MB array on top of the heap made glibc give its
    # pages back, and the next task faulted them in again (25k page faults
    # per 1-worker n = 10 pairing instead of 4k, a fifth of its time).
    evaluated = []

    def values(obs, u, v, slot):
        a = obs.evaluate(u, v)
        if not matrix:
            return a
        evaluated.append(a)
        return _bloch(obs, a, ws, f"bloch.{slot}")

    cache = {}
    if source[0] == "direct":
        _, offx, offy = source
        idx = np.arange(w_lo, w_hi, dtype=np.int64)
        pts = _corner_points(*_direct_coords(idx, n, offx, offy, ws))
        for obs in observables:
            if id(obs) not in cache:
                cache[id(obs)] = [values(obs, u, v, f"{len(cache)}.{i}")
                                  for i, (u, v) in enumerate(pts)]
    else:
        u, v, order = _vertex_lattice(source, n, w_lo, w_hi, ws)
        for obs in observables:
            if id(obs) not in cache:
                a = values(obs, u, v, len(cache))
                cache[id(obs)] = [a[..., :-1, :-1], a[..., :-1, 1:],
                                  a[..., 1:, 1:], a[..., 1:, :-1]]
    fv, gv, hv = (cache[id(o)] for o in observables)

    kernel = K.matrix_kernel if matrix else K.scalar_kernel
    vals = kernel(*fv, *gv, *hv, out=ws)
    if source[0] != "direct":
        cells = vals.reshape(-1)
        if isinstance(order, slice):
            vals = cells[order]
        else:
            vals = np.take(cells, order, out=ws.take("reordered", order.shape))
    return K.leaf_sums(vals, LEAF)


def _sum_kernel(source, n, total, f, g, h, workers):
    observables = (f, g, h)
    nleaves = (total + LEAF - 1) // LEAF
    leafsums = np.empty(nleaves, dtype=np.complex128)
    span = TASK_LEAVES * LEAF
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


def _budget_check(total, kind, allow_large):
    cap = MAX_SQUARES_SCALAR if kind == "scalar" else MAX_SQUARES_MATRIX
    if total > cap and not allow_large:
        raise BudgetError(
            f"{total} squares exceed the {kind} budget of {cap}; "
            "pass allow_large=True (CLI: --override-budget) to proceed"
        )


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
    _budget_check(total, kind, allow_large)
    workers = resolve_workers(workers)
    if mode == "pullback":
        if preset.name != CANTOR_DUST.name:
            raise ValueError("pullback mode is defined through the dust digit map only")
        # one Morton order for every task of the sum; it dies with the call
        source = ("pullback", K.dust_tile_order(min(n, _TILE_LEVEL)))
    else:
        offx, offy = preset.offset_arrays()
        source = ("direct", offx, offy)
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
    _budget_check(total, "scalar", allow_large)
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
    over the four edges of every level-n square, the same differences the
    kernel consumes.
    """
    if obs.kind != "scalar" or obs.mode != "direct":
        raise ValueError("Lipschitz estimation applies to direct scalar observables")
    total = _word_count(preset.nmaps, n)
    offx, offy = preset.offset_arrays()
    edge = 3.0**-n
    sup = 0.0
    lip = 0.0
    span = TASK_LEAVES * LEAF
    ws = K.Workspace()
    for lo in range(0, total, span):
        hi = min(total, lo + span)
        idx = np.arange(lo, hi, dtype=np.int64)
        x0, x1, y0, y1 = _direct_coords(idx, n, offx, offy, ws)
        vals = [obs.evaluate(u, v) for (u, v) in _corner_points(x0, x1, y0, y1)]
        sup = max(sup, max(np.abs(v).max() for v in vals))
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            lip = max(lip, np.abs(vals[b] - vals[a]).max() / edge)
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
