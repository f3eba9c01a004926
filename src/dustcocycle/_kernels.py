"""Hot array kernels: digit maps, the per-square trace kernel, leaf summation.

The engine in :mod:`dustcocycle.cocycle` looks each kernel up as a module
attribute at call time, so a tracer can wrap them from outside.

Digit maps are table-driven: a word is split into chunks of k digits, the
largest k with nmaps**k <= 2**16, and each chunk's contribution to the corner
numerators is one lookup in a table of all k-digit words.  The Cantor-dust
image map's base-4 -> binary table (k = 8) is built at import; the triadic
tables are built once per preset's offsets.  The integers are those of the
digit-by-digit loop, which the tests keep as the reference.

Both trace kernels run one body, :func:`_trace`.  It takes its inputs with any
leading shape -- (B,) corner arrays, or (H-1, W-1) shifted views of a vertex
lattice, with no corner gather -- works through them in blocks of
:data:`MATRIX_BLOCK` squares along axis 0, and writes its temporaries and its
result into a :class:`Workspace` passed as ``out=``.  The matrix kernel copies
each distinct input once per block into an (N, N, block) component layout;
the scalar kernel reads its inputs in place.  Every product names its
operands and its ``out=`` buffer: on arrays of 256 KB and more, numpy's
temporary elision swaps the operands of a product with a temporary, and a
complex product (fused multiply-add) is not bitwise commutative.  So a
square's value depends only on its own inputs, never on the block, task or
array layout it arrives in.  The matrix kernel agrees with the
batched-matmul formula to 1e-13 (rtol and atol, tested at N = 2 and 3), not
to the last ulp.  A leaf sum depends only on its own <= 4096 values, which
is what makes results bit-identical across worker counts.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Squares per block of the trace kernels, the size of one cocycle.LEAF leaf.
# A block's scalar temporaries (0.7 MB) stay in a core's L2 cache, and its
# matrix temporaries are 3 MB at N = 2 (four block copies, eight
# differences).  8192-square blocks made two workers up to 10% faster on
# pullback sums (fewer ufunc calls holding the GIL) but raised the peak RSS
# of the direct and pairing benchmarks by 5-20%.
MATRIX_BLOCK = 4096

# Entries in one digit table: chunks of k digits with nmaps**k <= 2**16.
_TABLE_ENTRIES = 1 << 16


class Workspace:
    """Named scratch arrays that one thread reuses from call to call.

    The engine makes one per worker thread for the duration of one sum, so a
    task's temporaries are allocated once, not once per task: freshly
    allocated multi-MB arrays made glibc hand their pages back to the system
    between tasks and fault them in again, which cost about half of a
    pullback task's time.  Buffers only grow, to the largest request, so their
    size is what bounds memory: peak RSS follows the largest block a worker
    holds (with one 16 MB corner block per task, the pairing benchmark's peak
    RSS rose by a third), which is why the kernels work in blocks of
    :data:`MATRIX_BLOCK` squares and nothing larger than one task's values is
    sized here.
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


def _digit_tables(offx, offy, base):
    """Tables [(tx, ty) for r = 0..k]: tx[d] = sum_j offx[s_j] base**j over the
    r base-nmaps digits s_j of d, least significant first; ty likewise.

    k is the largest chunk with nmaps**k <= 2**16.  A table of r digits is the
    table of r - 1 digits scaled by ``base`` plus the offsets of one new least
    significant digit.
    """
    ox = np.asarray(offx, dtype=np.int64)
    oy = np.asarray(offy, dtype=np.int64)
    k = 1
    while ox.size > 1 and ox.size ** (k + 1) <= _TABLE_ENTRIES:
        k += 1
    tables = [(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))]
    for _ in range(k):
        tx, ty = tables[-1]
        tables.append(((tx[:, None] * base + ox).ravel(), (ty[:, None] * base + oy).ravel()))
    for tx, ty in tables:
        tx.flags.writeable = ty.flags.writeable = False
    return tables


@lru_cache(maxsize=16)
def _triadic_tables(offx, offy):
    return _digit_tables(offx, offy, 3)


# Cantor dust symbol s -> image bits (s >> 1, s & 1), 8 symbols per lookup.
_MORTON_TABLES = _digit_tables((0, 0, 1, 1), (0, 1, 0, 1), 2)


def _digit_map(words, n, tables, base, ws):
    """(kx, ky) of the n-digit words ``words`` from chunked table lookups."""
    words = np.asarray(words, dtype=np.int64)
    ws = Workspace() if ws is None else ws
    kx = ws.take("digits.x", words.shape, np.int64)
    ky = ws.take("digits.y", words.shape, np.int64)
    if n == 0:
        kx[...] = ky[...] = 0
        return kx, ky
    k = len(tables) - 1
    chunk = tables[k][0].size
    shift = chunk.bit_length() - 1 if chunk & (chunk - 1) == 0 else None
    d = ws.take("digits.d", words.shape, np.int64)
    rest = words
    for lo in range(0, n, k):
        r = min(k, n - lo)
        if lo + r == n:
            d = rest
        elif shift is not None:
            np.bitwise_and(rest, chunk - 1, out=d)
            rest = np.right_shift(rest, shift, out=ws.take("digits.rest", words.shape, np.int64))
        else:
            rest = np.divmod(rest, chunk, out=(ws.take("digits.rest", words.shape, np.int64), d))[0]
        tx, ty = tables[r]
        if lo == 0:
            np.take(tx, d, out=kx)
            np.take(ty, d, out=ky)
        else:
            part = ws.take("digits.part", words.shape, np.int64)
            scale = base**lo
            kx += np.multiply(np.take(tx, d, out=part), scale, out=part)
            ky += np.multiply(np.take(ty, d, out=part), scale, out=part)
    return kx, ky


def corner_numerators(words, n, offx, offy, *, out=None):
    """Base-3 corner numerators (kx, ky) of the level-n squares with word
    indices ``words`` (lexicographic word order = numeric index order).

    ``offx``/``offy`` are the per-symbol offset digits of the IFS preset; the
    word symbol at depth j scales 3**(n-1-j), so the least significant index
    digit is the finest one.  ``out`` is the :class:`Workspace` that holds
    the results and the scratch; by default a fresh one.
    """
    tables = _triadic_tables(tuple(int(x) for x in offx), tuple(int(y) for y in offy))
    return _digit_map(words, n, tables, 3, out)


def dust_image_bits(words, n, *, out=None):
    """Dyadic image-corner numerators (mx, my) of Cantor-dust squares.

    Symbol s in {0..3} contributes offset bit pair (s>>1, s&1); the ternary
    digit 2 of the corner maps to the binary digit 1 of the image corner.
    ``out`` as for :func:`corner_numerators`.
    """
    return _digit_map(words, n, _MORTON_TABLES, 2, out)


# ---------------------------------------------------------------------------
# trace kernels
# ---------------------------------------------------------------------------


def scalar_kernel(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3, *, out=None):
    """Per-square trace kernel for scalar vertex values.

    Index i is the vertex number: v0 corner, v1 right, v2 opposite, v3 up.
    The inputs share one shape, that of the result.  ``out`` is the
    :class:`Workspace` that holds the result and the temporaries (the result
    is overwritten by the next kernel call on it); by default a fresh one.
    """
    inputs = (f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3)
    ws = Workspace() if out is None else out
    return _trace(f0.shape, 1, lambda lo, hi: [x[lo:hi][None, None] for x in inputs], ws)


def matrix_kernel(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3, *, out=None):
    """Per-square trace kernel for (..., N, N) matrix vertex values.

    The result, of the inputs' leading shape, is
    0.5 * (Tr f0 b1 + Tr f2 b2 - Tr f1 b3 - Tr f3 b4) with
    b1 = (g1-g0)(h2-h1) - (g3-g0)(h2-h3) and b2..b4 its rotations.  Each
    distinct input array is copied once per block into (N, N, block) layout,
    so a pairing (f, g and h the same projection) makes four copies, not
    twelve.  ``out`` as for :func:`scalar_kernel`.
    """
    inputs = (f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3)
    lead, nn = f0.shape[:-2], f0.shape[-1]
    ws = Workspace() if out is None else out

    def components(lo, hi):
        copies = {}
        for x in inputs:
            if id(x) not in copies:
                buf = ws.take(f"kernel.in{len(copies)}", (nn, nn, hi - lo) + lead[1:])
                np.copyto(buf, np.moveaxis(x[lo:hi], (-2, -1), (0, 1)))
                copies[id(x)] = buf
        return [copies[id(x)] for x in inputs]

    return _trace(lead, nn, components, ws)


def _trace(lead, nn, components, ws):
    """The body of both trace kernels, block by block along axis 0.

    ``components(lo, hi)`` gives the twelve inputs of rows [lo, hi) with the
    (N, N) component axes in front.
    """
    result = ws.take("kernel.result", lead)
    rows = max(1, MATRIX_BLOCK // math.prod(lead[1:]))

    def diff(name, a, b):
        return np.subtract(a, b, out=ws.take(f"kernel.{name}", a.shape))

    for lo in range(0, lead[0], rows):
        hi = min(lead[0], lo + rows)
        block = (hi - lo,) + lead[1:]
        F0, F1, F2, F3, G0, G1, G2, G3, H0, H1, H2, H3 = components(lo, hi)
        # The twelve per-term vertex differences are four of g and four of h,
        # or their exact negations.
        g10, g30, g32, g12 = (diff("g10", G1, G0), diff("g30", G3, G0),
                              diff("g32", G3, G2), diff("g12", G1, G2))
        h21, h23, h03, h01 = (diff("h21", H2, H1), diff("h23", H2, H3),
                              diff("h03", H0, H3), diff("h01", H0, H1))
        # (accumulate, F, X, Y, X', Y'): the term F (X Y - X' Y') of b1..b4
        terms = (
            (np.add, F0, g10, h21, g30, h23),
            (np.add, F2, g32, h03, g12, h01),
            (np.subtract, F1, g10, h03, g12, h23),
            (np.subtract, F3, g32, h21, g30, h01),
        )
        acc = ws.take("kernel.acc", block)
        s = ws.take("kernel.s", block)
        prod = ws.take("kernel.prod", block)
        first = True
        for accumulate, F, X, Y, X2, Y2 in terms:
            for i in range(nn):
                for j in range(nn):
                    t = acc if first else s
                    np.multiply(X[j, 0], Y[0, i], out=t)
                    t -= np.multiply(X2[j, 0], Y2[0, i], out=prod)
                    for k in range(1, nn):
                        t += np.multiply(X[j, k], Y[k, i], out=prod)
                        t -= np.multiply(X2[j, k], Y2[k, i], out=prod)
                    t *= F[i, j]
                    if not first:
                        accumulate(acc, s, out=acc)
                    first = False
        np.multiply(0.5, acc, out=result[lo:hi])
    return result


def leaf_sums(vals, leaf):
    """Sum ``vals`` in fixed blocks of ``leaf`` consecutive entries.

    Each block is reduced independently (numpy pairwise row sums), so the
    output never depends on how the caller chunked the value stream.
    """
    m = vals.shape[0]
    nfull = m // leaf
    out = np.empty(nfull + (1 if m % leaf else 0), dtype=np.complex128)
    if nfull:
        out[:nfull] = vals[: nfull * leaf].reshape(nfull, leaf).sum(axis=1)
    if m % leaf:
        out[nfull] = vals[nfull * leaf :].sum()
    return out


# HAVE_NUMBA and _VARIANTS are read only by perfbench; BACKEND also labels reports.
BACKEND = "numpy"
HAVE_NUMBA = False
_VARIANTS = {BACKEND: {"scalar_kernel": scalar_kernel}}
