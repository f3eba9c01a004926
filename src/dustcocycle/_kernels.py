"""Hot array kernels: digit maps, the per-square trace kernel, leaf summation.

The engine in :mod:`dustcocycle.cocycle` looks each kernel up as a module
attribute at call time, so a tracer can wrap them from outside.

The matrix kernel works through the squares in blocks of :data:`MATRIX_BLOCK`,
copies each distinct input once per block into an (N, N, block) component
layout and accumulates the trace with one ufunc call per component product.
It agrees with the batched-matmul formula to 1e-13 (rtol and atol, tested at
N = 2 and 3), not to the last ulp.  Its values depend only on each square's
own inputs, never on the block or task boundaries.  A leaf sum depends only
on its own <= 4096 values, which is what makes results bit-identical across
worker counts.
"""

from __future__ import annotations

import numpy as np

# Squares per block of the matrix kernel, the size of one cocycle.LEAF leaf.
# It bounds the block's component copies and differences to about 5 MB at
# N = 2, where whole-task copies would take tens of MB per worker.
MATRIX_BLOCK = 4096


def corner_numerators(words, n, offx, offy):
    """Base-3 corner numerators (kx, ky) of the level-n squares with word
    indices ``words`` (lexicographic word order = numeric index order).

    ``offx``/``offy`` are the per-symbol offset digits of the IFS preset; the
    word symbol at depth j scales 3**(n-1-j), so the least significant index
    digit is the finest one.
    """
    nmaps = np.int64(len(offx))
    w = words.astype(np.int64, copy=True)
    kx = np.zeros(w.shape, dtype=np.int64)
    ky = np.zeros(w.shape, dtype=np.int64)
    pow3 = np.int64(1)
    for _ in range(n):
        d = w % nmaps
        w //= nmaps
        kx += offx[d] * pow3
        ky += offy[d] * pow3
        pow3 *= 3
    return kx, ky


def dust_image_bits(words, n):
    """Dyadic image-corner numerators (mx, my) of Cantor-dust squares.

    Symbol s in {0..3} contributes offset bit pair (s>>1, s&1); the ternary
    digit 2 of the corner maps to the binary digit 1 of the image corner.
    """
    w = words.astype(np.int64, copy=True)
    mx = np.zeros(w.shape, dtype=np.int64)
    my = np.zeros(w.shape, dtype=np.int64)
    bit = np.int64(1)
    for _ in range(n):
        s = w & 3
        w >>= 2
        mx += (s >> 1) * bit
        my += (s & 1) * bit
        bit <<= 1
    return mx, my


def scalar_kernel(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    """Per-square trace kernel for scalar vertex values (batched).

    Index i is the vertex number: v0 corner, v1 right, v2 opposite, v3 up.
    """
    t = f0 * ((g1 - g0) * (h2 - h1) - (g3 - g0) * (h2 - h3))
    t += f2 * ((g3 - g2) * (h0 - h3) - (g1 - g2) * (h0 - h1))
    t -= f1 * ((g0 - g1) * (h3 - h0) - (g2 - g1) * (h3 - h2))
    t -= f3 * ((g2 - g3) * (h1 - h2) - (g0 - g3) * (h1 - h0))
    return 0.5 * t


def matrix_kernel(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    """Per-square trace kernel for (B, N, N) matrix vertex values.

    The result is 0.5 * (Tr f0 b1 + Tr f2 b2 - Tr f1 b3 - Tr f3 b4) with
    b1 = (g1-g0)(h2-h1) - (g3-g0)(h2-h3) and b2..b4 its rotations, evaluated
    component-wise on blocks of :data:`MATRIX_BLOCK` squares.  Each distinct
    input array is copied once per block into (N, N, block) layout, so a
    pairing (f, g and h the same projection) makes four copies, not twelve.
    The twelve per-term vertex differences are four of g and four of h, or
    their exact negations.
    """
    inputs = (f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3)
    distinct = {id(x): x for x in inputs}
    m, nn = f0.shape[:2]
    out = np.empty(m, dtype=np.complex128)
    for lo in range(0, m, MATRIX_BLOCK):
        hi = min(m, lo + MATRIX_BLOCK)
        soa = {
            key: np.ascontiguousarray(x[lo:hi].transpose(1, 2, 0))
            for key, x in distinct.items()
        }
        F0, F1, F2, F3, G0, G1, G2, G3, H0, H1, H2, H3 = (soa[id(x)] for x in inputs)
        g10, g30, g32, g12 = G1 - G0, G3 - G0, G3 - G2, G1 - G2
        h21, h23, h03, h01 = H2 - H1, H2 - H3, H0 - H3, H0 - H1
        # (accumulate, F, X, Y, X', Y'): the term F (X Y - X' Y') of b1..b4
        terms = (
            (np.add, F0, g10, h21, g30, h23),
            (np.add, F2, g32, h03, g12, h01),
            (np.subtract, F1, g10, h03, g12, h23),
            (np.subtract, F3, g32, h21, g30, h01),
        )
        acc = np.zeros(hi - lo, dtype=np.complex128)
        s = np.empty_like(acc)
        prod = np.empty_like(acc)
        for accumulate, F, X, Y, X2, Y2 in terms:
            for i in range(nn):
                for j in range(nn):
                    s.fill(0.0)
                    for k in range(nn):
                        s += np.multiply(X[j, k], Y[k, i], out=prod)
                        s -= np.multiply(X2[j, k], Y2[k, i], out=prod)
                    s *= F[i, j]
                    accumulate(acc, s, out=acc)
        out[lo:hi] = 0.5 * acc
    return out


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
