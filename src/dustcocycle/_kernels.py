"""Hot array kernels: digit maps, the per-square trace kernel, leaf summation.

The engine in :mod:`dustcocycle.cocycle` looks each kernel up as a module
attribute at call time, so a tracer can wrap them from outside.

The digit maps are one loop over a word's n digits, least significant
first, vectorised over the words: each step splits off a digit and adds its
symbol's offsets, scaled by base**(digit place).  The engine calls them once
per sum, on the first words of all the sum's tiles, and once per process on
each tile layout's words.  They allocate their own results and scratch, and
nothing is built at import.

The engine's vertex values are of two kinds.  Scalar values are real or
complex.  Matrix values are 2 x 2 Hermitian with unit trace, the form of the
rank-1 projections and Bott fields the pairing is defined on:
e = (I + n . sigma) / 2, given by its real Bloch vector n, not necessarily
of unit length.  The matrix kernel is real 3-vector arithmetic on n in
float64: for differences X = x . sigma / 2 and Y = y . sigma / 2 of such
values, Tr(e X Y) = (x . y + i n . cross(x, y)) / 4.
General N x N values, non-Hermitian triples and products of matrix values
are not in the engine; :func:`dustcocycle.fredholm.kernel_trace` keeps the
general N x N formula as the reference.

Both trace kernels take flat vertex lattices, shape (N,) for scalar values
and (3, N) for Bloch vectors (the scalar kernel also a compact row g and
column h, see Zero edges), and ``cells = ((o0, o1, o2, o3), count)``:
the flat offsets of the corners v0..v3 of cell 0, and the number of cells.
Cell k's corners sit at k + o0, k + o1, k + o2 and k + o3, so the corners,
edge differences, temporaries and results of a run of cells are each one
contiguous 1-D slice.  The engine passes two layouts:

* a shifted lattice, H x W vertices in row-major order, offsets
  (0, 1, W + 1, W) and (H - 1) W - 1 cells.  The last cell of each row is a
  padded cell whose x-edge wraps into the next row; the callers drop its
  value.  The last row's padded cell is left out, so no cell reads past the
  lattice;
* the dust's direct tiles, whose squares share no vertices, a (2, 2, h, w)
  lattice whose corners are four contiguous h w blocks, offsets
  (0, hw, 3hw, 2hw) and hw cells.

The tests also feed corner arrays v0, v1, v2, v3 of B squares,
concatenated: offsets (0, B, 2B, 3B) and B cells.

The kernels work through the cells in runs of consecutive cells,
:data:`BLOCK` (scalar) or :data:`MATRIX_BLOCK` (matrix) at a time, reading
f at the four corners and g and h only as edge differences (:func:`edges`):
the x-edges v1 - v0 and v2 - v3 and the y-edges v3 - v0 and v2 - v1.
Where a run's two x-edge slices overlap or touch (a shifted lattice:
Dx[k] = a[k + 1] - a[k], read at k and k + W), they are one
difference read at two offsets, and likewise the y-edges
(Dy[k] = a[k + W] - a[k], read at k and k + 1), so every shared edge is
subtracted once; where they lie apart (the quadrant tiles, concatenated
corners), each of the four is its own difference.
The kernel's other four vertex differences per function are exact
negations of these, and a negated operand rounds exactly like the original,
so the signs fold into the terms and every value is bitwise that of the
eight-difference corner form the tests keep (up to the sign of an exact
zero).  Edges are formed per block, from the lattice, never for a whole
lattice at once: whole-lattice edges kept every value but raised the peak
RSS of the lipschitz-direct benchmark by 8%, 4 MB of edges per worker on
the dust's direct lattice of 4**8-word tiles, then 512 x 512.  Temporaries
and the result go into a :class:`Workspace` passed as ``out=``.  Every
product names its operands and its ``out=`` buffer: on arrays of 256 KB
and more, numpy's temporary elision swaps the operands of a product with
a temporary, and a complex product (fused multiply-add) is not bitwise
commutative.  So a square's value
depends only on its own inputs, never on the task or array layout it
arrives in, and only in one case on its block: numpy rounds an in-place
complex product of a one-element array unlike its vector loop, so the
scalar kernel's value of a complex square alone in its block can differ in
the last bit from the same square in a longer block.  A trailing cell that
would be alone is joined to the block before it (:func:`_blocks`), so only
a call of one cell (every n = 0 sum) has such a block.  Real scalar values
are not affected, nor is the matrix kernel, which is real float64
arithmetic throughout, so its values do not depend on its block length
either.  The matrix kernel agrees with the batched complex matmul formula
to 1e-13 (rtol and atol), not to the last ulp.

Zero edges.  A scalar rule of one coordinate gives a lattice whose edges
along the other are exact zeros: the y-edges of a row (values that vary
along x only, such as g = sin 2 pi u in bott-flux) and the x-edges of a
column (h = sin 2 pi v).  The engine reads this from the shape of the
rule's compact values, that of the tile's row of u or column of v.  A row
g with a column h reaches the scalar kernel compact, (1, W) and (H, 1) on
a shifted lattice, (1, 2, 1, w) and (2, 1, h, 1) on the quadrants.  Then X' Y' = gy hx vanishes, a row's two
x-edges at a cell are the same difference d[j] of its column and a
column's two y-edges the same e[i] of its row, so every term's X Y is
d[j] e[i]: the kernel's separable path forms d and e once per call (a
shifted lattice's padded column gets a finite d = 0) and each block's X Y
once, as their outer product over the rows the block touches, d the first
operand as in X Y.  A call of one cell takes the general path instead (see
below: numpy rounds a lone complex product of broadcast operands like an
in-place one).
Every other operand shape runs the general path on flat lattices: a row or
column whose partner is not the matching column or row, a row with a row,
a constant.  It forms every product, also one that zero edges make an exact
zero, so a term 0 * F whose f is not finite keeps its NaN.  The separable
path's values are the general path's on the same values materialized flat,
up to the sign of an exact zero: a zero edge is x - x of a finite x, +0, so
the X' Y' it does not form is an exact zero (of either sign) and p - 0 = p,
and every other operation keeps its operands and order.  Two provisos:

* a value that is not finite: inf - inf is NaN, not 0, so the paths may
  differ at a square with such a vertex of g or h, but neither value is
  finite there, and the engine refuses a sum that is not finite;
* a shifted lattice's padded cell is not a square: a column's x-edge there
  wraps into the next row and is not zero, so its value differs; the
  callers drop it.

The matrix kernel has one block (:func:`_block`), which does less work when
h is g, as in every pairing, phi_n(p, p, p), for the same bits as on a copy
of g.  The real part per component, (gxn + gxf) (hyf + hyn) -
(gyn + gyf) (hxf + hxn), is then A B - B A, and float addition and
multiplication commute bit for bit, so it is +0 and is written as such,
without the 7 ufunc calls that compute it.  Terms 1 and 3 read the operands
of terms 0 and 2 as (Y', X', Y, X), so their four cross-product halves are
the same products in reverse order, which they take from terms 0 and 2: 4
products per pair of terms, not 8.  Each term keeps its own order of
subtraction, and the terms are added in the same order either way.  The one
difference: where a product A B overflows (edge differences of Bloch vectors
of about 1e154 and more) or an input is not finite, the real part is NaN on
a copy of g and +0 when h is g.

Dtypes: the scalar kernel's temporaries and result take the dtype
``np.result_type`` of the three lattices, so real vertex values (every
preset triple) run as float64, at half the bytes and a quarter of the
multiplies of complex ones, and stay float64 through the gather in word
order.  For real inputs the result is bitwise the real part of the same
inputs cast to complex (up to the sign of an exact zero), whose imaginary
part is +0, because a complex product or difference of values with zero
imaginary parts rounds its real part exactly as the real operation does.
Leaf sums still add complex values, which matters: numpy groups the
pairwise sums of a real and of a complex array differently, so a float64
leaf sum would change the last bits.  :func:`leaf_sums` casts each real
leaf to complex128 inside the reduction, in one pass of numpy's ufunc
buffer as long as a leaf fits it, which gives the complex sum's bits.  A
leaf sum depends only on its own <= 4096 values, which is what makes
results bit-identical across worker counts.
"""

from __future__ import annotations

import math

import numpy as np

# Cells per block of the scalar kernel and the Lipschitz maxima: a run of
# consecutive cells, a quarter of a 256 x 256 pullback tile and the whole
# of a dust direct tile, (2, 2, 128, 128) quadrants.  The scalar
# kernel's float64 temporaries for one block (the x- and y-edges of g and h,
# three accumulators) are 0.9 MB (1.4 MB on the dust's quadrants, whose
# edges are not shared; 0.4 MB for a compact row g and column h, the outer
# product of their edges and two accumulators).  Each block makes about 25
# ufunc calls (9 for a compact row g and column h), and the Python between
# them holds the GIL, so the block size sets how well two workers overlap.
# On a 2-core VM, bott-flux phi_n at n = 11 took 0.23 s on one worker and
# 0.32 s on two with 4096-square scalar blocks, 0.19 s and 0.15 s with
# 16384.  65536-square blocks gained little more (0.13 s on two workers) but
# raised the peak RSS of the lipschitz-direct benchmark by 7% and of
# pullback-converge by 14%.  Cutting a tile's 65791 cells into near-equal
# blocks instead of 4 x 16384 + 255 kept every bit but raised
# pullback-converge's peak RSS by 3.5 MB (5 blocks) or 5.3 MB (4), and with
# 5 blocks its one-worker time by 15%.  Blocks of 8192 for both kernels
# made 1-worker bott-flux pullback passes (n = 4..11) 6% slower.
BLOCK = 16384

# Cells per block of the matrix kernel.  Its temporaries per block (the
# edges in four rows, twelve rows of cross products and three of
# accumulators) are 2.05 MB, or 1.5 MB when h is g as in a pairing (g's
# edges only).  At 16384 cells a pairing's were 3.0 MB, more than a core's
# 2 MB of L2 on the 2-core VM, so the block's 37 ufunc calls (60 when h is
# not g) streamed their operands from L3.  At 8192 cells a 257 x 257
# pairing tile took 4.4 ms, against 4.9 ms.  Alternating 1-worker pairing
# passes (n = 6..10) in one process took 0.91 of their 16384-cell time
# with 8192-cell blocks, 0.90 with 6144 and 1.05 with 4096, where the
# Python between the blocks outweighs the cache; 2-worker passes did not
# move.
MATRIX_BLOCK = BLOCK // 2


class Workspace:
    """Named scratch arrays that one thread reuses from call to call.

    The engine makes one per thread that runs a sum's tasks, for the
    duration of the sum, so a task's temporaries are allocated once, not
    once per task: freshly
    allocated multi-MB arrays made glibc hand their pages back to the system
    between tasks and fault them in again, which cost about half of a
    pullback task's time.  Buffers only grow, to the largest request, so their
    size is what bounds memory: peak RSS follows the largest block a worker
    holds (with one 16 MB corner block per task, the pairing benchmark's peak
    RSS rose by a third), which is why the kernels work in blocks of
    :data:`BLOCK` or :data:`MATRIX_BLOCK` squares and nothing larger than
    one task's values is sized here: a task's lattice holds at most 2**16
    vertices (``cocycle.TASK_VERTICES``), 512 KB per real scalar value.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype=np.complex128):
        """A C-contiguous ``shape`` array backed by buffer ``name``; its
        contents are whatever the last user of that buffer left there."""
        size = math.prod(shape)
        key = (name, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


# ---------------------------------------------------------------------------
# digit maps
# ---------------------------------------------------------------------------


def _digit_map(words, n, offx, offy, base):
    """(kx, ky) of the n-digit base-nmaps words ``words``, nmaps = len(offx):
    kx = sum_j offx[s_j] base**j over the digits s_j of a word, least
    significant first, and ky likewise, one vectorised step per digit."""
    w = np.asarray(words, dtype=np.int64)
    ox = np.asarray(offx, dtype=np.int64)
    oy = np.asarray(offy, dtype=np.int64)
    nmaps = ox.size
    kx = np.zeros(w.shape, dtype=np.int64)
    ky = np.zeros(w.shape, dtype=np.int64)
    scale = 1
    for _ in range(n):
        # on 65536 words this step's //, product and difference took 0.13 ms,
        # np.divmod 0.7 ms and a % alone 0.27 ms (numpy 2.4)
        q = w // nmaps
        d = w - q * nmaps
        kx += ox[d] * scale
        ky += oy[d] * scale
        w = q
        scale *= base
    return kx, ky


def corner_numerators(words, n, offx, offy):
    """Base-3 corner numerators (kx, ky) of the level-n squares with word
    indices ``words`` (lexicographic word order = numeric index order).

    ``offx``/``offy`` are the per-symbol offset digits of the IFS preset; the
    word symbol at depth j scales 3**(n-1-j), so the least significant index
    digit is the finest one.
    """
    return _digit_map(words, n, offx, offy, 3)


def dust_image_bits(words, n):
    """Dyadic image-corner numerators (mx, my) of Cantor-dust squares.

    Symbol s in {0..3} contributes offset bit pair (s>>1, s&1); the ternary
    digit 2 of the corner maps to the binary digit 1 of the image corner.
    """
    return _digit_map(words, n, (0, 0, 1, 1), (0, 1, 0, 1), 2)


# ---------------------------------------------------------------------------
# trace kernels
# ---------------------------------------------------------------------------


def _blocks(count, length=BLOCK):
    """(lo, hi) of the kernel blocks: runs of ``length`` consecutive cells
    of ``count``, a trailing run of one cell joined to the block before it,
    so that only a call of one cell has a block of one cell."""
    last = count - 1 if count > 1 and count % length == 1 else count
    for lo in range(0, last, length):
        yield lo, lo + length if lo + length < last else count


def corners(a, cells, lo, hi):
    """The values v0, v1, v2, v3 of flat lattice ``a`` at the corners of
    cells [lo, hi), as contiguous 1-D views."""
    return tuple(a[..., lo + o : hi + o] for o in cells[0])


def edges(a, cells, diff, lo, hi):
    """The edge differences of flat lattice ``a`` along cells [lo, hi):
    (xn, xf, yn, yf) = (v1 - v0, v2 - v3, v3 - v0, v2 - v1),
    the x-edges at the cells' near and far rows and the y-edges at their
    near and far columns.  The other four corner differences are their
    exact negations.

    ``diff(name, x, y)`` returns x - y.  Where the cells' two x-edges are
    one shift apart (v2 - v3 = v1 - v0 moved by o3 - o0) and the two slices
    overlap or touch, it is called once, on the x-edges
    Dx[k] = a[k + o1 - o0] - a[k] spanning both, which are read at two
    offsets, so an edge two cells share is subtracted once; likewise the
    y-edges.  Otherwise each edge is its own difference.
    """
    o0, o1, o2, o3 = cells[0]
    m = hi - lo

    def pair(name, near, far, other):
        # the edges a[k + far] - a[k + near] and a[k + o2] - a[k + other]
        if far - near == o2 - other and 0 <= other - near <= m:
            d = diff("d" + name, a[..., lo + far : hi + o2], a[..., lo + near : hi + other])
            return d[..., :m], d[..., other - near : other - near + m]
        return (diff(name + "n", a[..., lo + far : hi + far], a[..., lo + near : hi + near]),
                diff(name + "f", a[..., lo + o2 : hi + o2], a[..., lo + other : hi + other]))

    return pair("x", o0, o1, o3) + pair("y", o0, o3, o1)


def _terms(f, g, h, cells, lo, hi, diff):
    """The four terms (F, X, Y, X', Y') of the kernel on cells [lo, hi),
    each F (X Y - X' Y') added: f at the corners v0, v2, v1, v3 and the edge
    differences of g and h (h = g shares them, see :func:`edges`).

    The eight vertex differences of the corner form are these edges or
    their exact negations, and a product or difference of negated operands
    rounds to the negation of the original, so folding the signs into the
    terms keeps every value (up to the sign of an exact zero).
    """
    f0, f1, f2, f3 = corners(f, cells, lo, hi)
    gxn, gxf, gyn, gyf = edges(g, cells, lambda name, x, y: diff("g" + name, x, y), lo, hi)
    hxn, hxf, hyn, hyf = (gxn, gxf, gyn, gyf) if h is g else edges(
        h, cells, lambda name, x, y: diff("h" + name, x, y), lo, hi)
    return (
        (f0, gxn, hyf, gyn, hxf),
        (f2, gxf, hyn, gyf, hxn),
        (f1, gxn, hyn, gyf, hxf),
        (f3, gxf, hyf, gyn, hxn),
    )


def near_far(a):
    """The values of a compact row or column ``a`` at the near and far ends
    of each of its edges, as two 1-D views: ``a[0, :-1]`` and ``a[0, 1:]``
    of a shifted lattice's (1, W) row, likewise of its (H, 1) column, and
    the near and far halves of the dust quadrants' (1, 2, 1, w) row or
    (2, 1, h, 1) column."""
    if a.ndim == 2:
        a = a.reshape(-1)
        return a[:-1], a[1:]
    a = a.reshape(2, -1)
    return a[0], a[1]


def _edge_vectors(g, h, dtype, ws):
    """d, the x-edges of a compact row g, and e, the y-edges of a compact
    column h, so that cell k = i W + j, W = d.size, has X Y = d[j] e[i]: a
    shifted lattice's padded last column gets the finite d = 0, whose value
    the callers drop; the quadrants have none."""
    gn, gf = near_far(g)
    hn, hf = near_far(h)
    d = ws.take("kernel.d", (gn.size + (g.ndim == 2),), dtype)
    np.subtract(gf, gn, out=d[: gn.size])
    d[gn.size :] = 0
    return d, np.subtract(hf, hn, out=ws.take("kernel.e", hn.shape, dtype))


def scalar_kernel(f, g, h, *, cells, out=None):
    """Per-square trace kernel for scalar vertex values.

    ``f``, ``g`` and ``h`` are flat (N,) vertex lattices, real or complex;
    ``cells = ((o0, o1, o2, o3), count)`` puts the corners v0..v3 of cell k
    at k + o0, ..., k + o3 (see the module docstring).  The result, an
    array of ``count`` values in the dtype of the temporaries (float64 for
    real f, g and h, else complex128), is
    0.5 * (f0 b1 + f2 b2 - f1 b3 - f3 b4) with b1 = (g1-g0)(h2-h1) -
    (g3-g0)(h2-h3) and b2..b4 its rotations, computed on the x- and y-edge
    differences of g and h.  ``out`` is the :class:`Workspace` that holds the
    result and the temporaries (the result is overwritten by the next kernel
    call on it); by default a fresh one.  A float64 result keeps the bits of
    its complex sums: :func:`leaf_sums` casts it leaf by leaf, which holds
    while numpy's ufunc buffer (``np.getbufsize()``) holds a whole leaf.

    A row g (values of x only) and a column h (of y only) may instead come
    compact, in the shapes the engine evaluates them in: (1, W) and (H, 1)
    on a shifted H x W lattice, (1, 2, 1, w) and (2, 1, h, 1) on the dust's
    quadrants, with ``cells`` all of the lattice's.  Each block then forms
    X Y once, as the outer product of g's x-edges and h's y-edges, and
    X' Y' not at all (:func:`_separable`, see the module docstring).  Every
    other operand runs the general path on flat lattices.
    """
    ws = Workspace() if out is None else out
    dtype = np.result_type(f, g, h)
    result = ws.take("kernel.result", (cells[1],), dtype)
    if g.ndim > 1:
        if cells[1] > 1:
            _separable(f, g, h, cells, dtype, ws, result)
            return result
        # one square: numpy rounds a lone complex product of broadcast
        # operands, as of in-place ones, unlike its vector loop, so it takes
        # the general path on the four vertex values of g and of h
        shape = np.broadcast_shapes(g.shape, h.shape)
        g, h = (np.broadcast_to(a, shape).reshape(-1) for a in (g, h))
    for lo, hi in _blocks(cells[1]):

        def diff(name, a, b):
            return np.subtract(a, b, out=ws.take(f"kernel.{name}", a.shape, dtype))

        terms = _terms(f, g, h, cells, lo, hi, diff)
        acc = ws.take("kernel.acc", (hi - lo,), dtype)
        s = ws.take("kernel.s", (hi - lo,), dtype)
        prod = ws.take("kernel.prod", (hi - lo,), dtype)
        for k, (F, X, Y, X2, Y2) in enumerate(terms):
            t = s if k else acc
            np.multiply(X, Y, out=t)
            t -= np.multiply(X2, Y2, out=prod)
            t *= F
            if k:
                acc += t
        np.multiply(0.5, acc, out=result[lo:hi])
    return result


def _separable(f, g, h, cells, dtype, ws, result):
    """:func:`scalar_kernel` on a compact row g and column h, into
    ``result``.  A row's two x-edges at a cell are the same difference
    d[j], a column's two y-edges the same e[i], so every term's X Y is
    P = d[j] e[i], taken per block as one outer product over the rows the
    block touches, and X' Y' = 0 is not formed."""
    d, e = _edge_vectors(g, h, dtype, ws)
    width = d.size
    m = min(cells[1], BLOCK + 1)  # the longest block
    # a block of m cells touches at most (m - 1) // width + 2 rows
    prod = ws.take("kernel.prod", (m - 1 + 2 * width,), dtype)
    accs = ws.take("kernel.acc", (m,), dtype)
    sums = ws.take("kernel.s", (m,), dtype)
    for lo, hi in _blocks(cells[1]):
        i0, i1 = lo // width, (hi - 1) // width + 1
        p = prod[: (i1 - i0) * width]
        np.multiply(d, e[i0:i1, None], out=p.reshape(i1 - i0, width))  # X Y, d first
        P = p[lo - i0 * width : hi - i0 * width]
        f0, f1, f2, f3 = corners(f, cells, lo, hi)
        acc, s = accs[: hi - lo], sums[: hi - lo]
        for t, F in ((acc, f0), (s, f2), (s, f1), (s, f3)):
            np.multiply(P, F, out=t)
            if t is s:
                acc += s
        np.multiply(0.5, acc, out=result[lo:hi])


def matrix_kernel(f, g, h, *, cells, out=None):
    """Per-square trace kernel for 2 x 2 Hermitian unit-trace vertex values,
    read as their real Bloch vectors.

    ``f``, ``g`` and ``h`` are float64 (3, N) flat lattices: the vertex
    value e = (I + n . sigma) / 2 with n = (n1, n2, n3) along axis 0;
    ``cells`` as for :func:`scalar_kernel`.  The result, a complex128 array
    of ``count`` values, is the matrix form of the scalar kernel,
    0.5 * (Tr f0 b1 + Tr f2 b2 - Tr f1 b3 - Tr f3 b4).  A difference of two vertex values is
    X = x . sigma / 2, and the Pauli algebra gives
    Tr(e X Y) = (x . y + i n . cross(x, y)) / 4, so the result is the sum of
    (x . y - x' . y' + i F . (cross(x, y) - cross(x', y'))) / 8 over the four
    terms F (X Y - X' Y'), on the same edge differences as the scalar
    kernel.  By bilinearity the four real parts add up to
    (gxn + gxf) . (hyf + hyn) - (gyn + gyf) . (hxf + hxn), with gxn, gxf the
    Bloch vectors of g's x-edges at the near and far rows and gyn, gyf of its
    y-edges at the near and far columns.  ``out`` as for
    :func:`scalar_kernel`.

    Each block is :func:`_block`.  When ``h is g`` it forms half the cross
    products and writes the real part, A . B - B . A, as +0: the bits of the
    same call on a copy of g (see the module docstring; only where A . B
    overflows, at Bloch edge differences of about 1e154, or on non-finite
    inputs is the copy's real part NaN instead).
    """
    ws = Workspace() if out is None else out
    result = ws.take("kernel.result", (cells[1],))
    # (real, imaginary) of the result as a (2, count) float64 view
    parts = result.view(np.float64).reshape(-1, 2).T
    for lo, hi in _blocks(cells[1], MATRIX_BLOCK):

        def diff(name, a, b):
            # rows (x2, x3, x1, x2): rows 0:3 and 1:4 are the components
            # turned by one and by two, so cross(x, y) =
            # x[0:3] y[1:4] - x[1:4] y[0:3] in the order (c1, c2, c3), and a
            # dot product may read rows 0:3 of both factors
            d = ws.take(f"kernel.{name}", (4,) + a.shape[1:], np.float64)
            np.subtract(a[1:], b[1:], out=d[:2])
            np.subtract(a[0], b[0], out=d[2])
            np.copyto(d[3], d[0])
            return d

        _block(_terms(f, g, h, cells, lo, hi, diff), h is g, ws, parts[:, lo:hi])
    return result


def _block(terms, symmetric, ws, parts):
    """One block of :func:`matrix_kernel`, written into the (real,
    imaginary) rows ``parts``.

    Each term's four cross-product halves are formed and combined in the
    order of its formula.  When ``symmetric`` (h is g), term k + 1
    (k = 0, 2) reads term k's operands as (Y', X', Y, X), so it takes term
    k's products in reverse order, formed in place, and term 2's sum is
    written into g's x-edges, which no product reads after its own; the real
    part, A . B - B . A, is written as +0.  Otherwise no edge is written:
    on a shifted lattice g's two x-edges are views of one difference.
    """
    m = parts.shape[1]
    im = ws.take("kernel.acc", (3, m), np.float64)
    p = ws.take("kernel.cross", (4, 3, m), np.float64)
    for k, (F, X, Y, X2, Y2) in enumerate(terms):
        if symmetric and k % 2:
            t = p[3]  # ((p3 - p2) - p1) + p0
            t -= p[2]
            t -= p[1]
            t += p[0]
        else:
            np.multiply(X[0:3], Y[1:4], out=p[0])
            np.multiply(X[1:4], Y[0:3], out=p[1])
            np.multiply(X2[0:3], Y2[1:4], out=p[2])
            np.multiply(X2[1:4], Y2[0:3], out=p[3])
            t = im if k == 0 else X[0:3] if symmetric else p[0]
            np.subtract(p[0], p[1], out=t)
            t -= p[2]
            t += p[3]
        t *= F
        if k:
            im += t
    total = im[0]  # the sum over the three components
    total += im[1]
    total += im[2]
    np.multiply(total, 0.125, out=parts[1])
    if symmetric:
        parts[0] = 0.0
        return
    (_, gxn, hyf, gyn, hxf), (_, gxf, hyn, gyf, hxn) = terms[:2]
    re = np.add(gxn[:3], gxf[:3], out=p[0])
    re *= np.add(hyf[:3], hyn[:3], out=p[1])
    t = np.add(gyn[:3], gyf[:3], out=p[2])
    t *= np.add(hxf[:3], hxn[:3], out=p[1])
    re -= t
    total = re[0]
    total += re[1]
    total += re[2]
    np.multiply(total, 0.125, out=parts[0])


def leaf_sums(vals, leaf):
    """Complex sums of ``vals`` in fixed blocks of ``leaf`` consecutive
    entries.

    Each block is reduced independently (numpy pairwise row sums), so the
    output never depends on how the caller chunked the value stream.  Real
    ``vals`` are cast to complex128 inside the reduction, which numpy does
    in one pass of its ufunc buffer for a block that fits the buffer, so
    each sum is bit for bit that of the block cast to complex first.  A
    buffer smaller than ``leaf`` (``np.setbufsize``, per thread; the
    default is 8192) would cast in pieces and change the bits, so it raises
    ValueError.
    """
    if np.getbufsize() < leaf:
        raise ValueError(f"numpy's buffer size {np.getbufsize()} is smaller than a leaf of {leaf} "
                         "values, so leaf sums would not keep their bits; see np.setbufsize")
    m = vals.shape[0]
    nfull = m // leaf
    out = np.empty(nfull + (1 if m % leaf else 0), dtype=np.complex128)
    if nfull:
        np.add.reduce(vals[: nfull * leaf].reshape(nfull, leaf), axis=1, dtype=np.complex128,
                      out=out[:nfull])
    if m % leaf:
        out[nfull] = vals[nfull * leaf :].sum(dtype=np.complex128)
    return out


# HAVE_NUMBA and _VARIANTS are read only by perfbench; BACKEND also labels reports.
BACKEND = "numpy"
HAVE_NUMBA = False
_VARIANTS = {BACKEND: {"scalar_kernel": scalar_kernel}}
