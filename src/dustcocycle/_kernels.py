"""Hot array kernels: digit maps, the per-square trace kernel, leaf summation.

Every kernel exists in two variants: a numba ``@njit`` build and a pure-numpy
fallback.  The active backend is chosen at import time from the environment
variable ``DUSTCOCYCLE_BACKEND`` (``auto`` | ``numba`` | ``numpy``; default
``auto`` = numba when importable) and can be switched at runtime with
:func:`use_backend`, which is what the benchmark and the backend-parity tests
do.

The digit maps and the scalar kernel are written as the same expression tree
in both variants, so their values agree to the last ulp between backends
(bitwise for real-valued data).  The numpy matrix kernel is laid out
differently from the numba loop: it works through the squares in blocks of
:data:`MATRIX_BLOCK`, copies each distinct input once per block into an
(N, N, block) component layout and accumulates the trace with one ufunc call
per component product.  It agrees with the batched-matmul formula to 1e-13
(rtol and atol, tested at N = 2 and 3; the parity test against the numba
variant uses the same tolerance), not to the last ulp.  Its values depend
only on each square's own inputs, never on the block or task boundaries.  The
leaf reduction differs too (compensated scalar loop vs numpy row sums).
Either way a leaf sum depends only on its own <= 4096 values, which is what
makes results bit-identical across worker counts.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

_ENV_FLAG = "DUSTCOCYCLE_BACKEND"

# Squares per block of the numpy matrix kernel, the size of one cocycle.LEAF
# leaf.  It bounds the block's component copies and differences to about 5 MB
# at N = 2, where whole-task copies would take tens of MB per worker.
MATRIX_BLOCK = 4096

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


# ---------------------------------------------------------------------------
# numpy variants
# ---------------------------------------------------------------------------

def corner_numerators_np(words, n, offx, offy):
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


def dust_image_bits_np(words, n):
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


def scalar_kernel_np(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    """Per-square trace kernel for scalar vertex values (batched).

    Index i is the vertex number: v0 corner, v1 right, v2 opposite, v3 up.
    """
    t = f0 * ((g1 - g0) * (h2 - h1) - (g3 - g0) * (h2 - h3))
    t += f2 * ((g3 - g2) * (h0 - h3) - (g1 - g2) * (h0 - h1))
    t -= f1 * ((g0 - g1) * (h3 - h0) - (g2 - g1) * (h3 - h2))
    t -= f3 * ((g2 - g3) * (h1 - h2) - (g0 - g3) * (h1 - h0))
    return 0.5 * t


def matrix_kernel_np(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
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


def leaf_sums_np(vals, leaf):
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


# ---------------------------------------------------------------------------
# numba variants (compiled lazily on first call; nogil so thread pools scale)
# ---------------------------------------------------------------------------

@njit(cache=True, nogil=True)
def _corner_numerators_jit(words, n, offx, offy):
    nmaps = np.int64(len(offx))
    m = words.shape[0]
    kx = np.zeros(m, dtype=np.int64)
    ky = np.zeros(m, dtype=np.int64)
    for i in range(m):
        w = words[i]
        pow3 = np.int64(1)
        for _ in range(n):
            d = w % nmaps
            w //= nmaps
            kx[i] += offx[d] * pow3
            ky[i] += offy[d] * pow3
            pow3 *= 3
    return kx, ky


@njit(cache=True, nogil=True)
def _dust_image_bits_jit(words, n):
    m = words.shape[0]
    mx = np.zeros(m, dtype=np.int64)
    my = np.zeros(m, dtype=np.int64)
    for i in range(m):
        w = words[i]
        bit = np.int64(1)
        for _ in range(n):
            s = w & 3
            w >>= 2
            mx[i] += (s >> 1) * bit
            my[i] += (s & 1) * bit
            bit <<= 1
    return mx, my


@njit(cache=True, nogil=True)
def _scalar_kernel_jit(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    m = f0.shape[0]
    out = np.empty(m, dtype=np.complex128)
    for i in range(m):
        t = f0[i] * ((g1[i] - g0[i]) * (h2[i] - h1[i]) - (g3[i] - g0[i]) * (h2[i] - h3[i]))
        t += f2[i] * ((g3[i] - g2[i]) * (h0[i] - h3[i]) - (g1[i] - g2[i]) * (h0[i] - h1[i]))
        t -= f1[i] * ((g0[i] - g1[i]) * (h3[i] - h0[i]) - (g2[i] - g1[i]) * (h3[i] - h2[i]))
        t -= f3[i] * ((g2[i] - g3[i]) * (h1[i] - h2[i]) - (g0[i] - g3[i]) * (h1[i] - h0[i]))
        out[i] = 0.5 * t
    return out


@njit(cache=True, nogil=True)
def _matrix_kernel_jit(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    m = f0.shape[0]
    nn = f0.shape[1]
    out = np.empty(m, dtype=np.complex128)
    for b in range(m):
        t = 0.0 + 0.0j
        for i in range(nn):
            for j in range(nn):
                a0 = f0[b, i, j]
                a1 = f1[b, i, j]
                a2 = f2[b, i, j]
                a3 = f3[b, i, j]
                for k in range(nn):
                    t += a0 * ((g1[b, j, k] - g0[b, j, k]) * (h2[b, k, i] - h1[b, k, i])
                               - (g3[b, j, k] - g0[b, j, k]) * (h2[b, k, i] - h3[b, k, i]))
                    t += a2 * ((g3[b, j, k] - g2[b, j, k]) * (h0[b, k, i] - h3[b, k, i])
                               - (g1[b, j, k] - g2[b, j, k]) * (h0[b, k, i] - h1[b, k, i]))
                    t -= a1 * ((g0[b, j, k] - g1[b, j, k]) * (h3[b, k, i] - h0[b, k, i])
                               - (g2[b, j, k] - g1[b, j, k]) * (h3[b, k, i] - h2[b, k, i]))
                    t -= a3 * ((g2[b, j, k] - g3[b, j, k]) * (h1[b, k, i] - h2[b, k, i])
                               - (g0[b, j, k] - g3[b, j, k]) * (h1[b, k, i] - h0[b, k, i]))
        out[b] = 0.5 * t
    return out


@njit(cache=True, nogil=True)
def _leaf_sums_jit(vals, leaf):
    m = vals.shape[0]
    nleaf = (m + leaf - 1) // leaf
    out = np.empty(nleaf, dtype=np.complex128)
    for L in range(nleaf):
        lo = L * leaf
        hi = min(m, lo + leaf)
        # Neumaier-compensated accumulation, real and imaginary tracked apart
        sr = 0.0
        si = 0.0
        cr = 0.0
        ci = 0.0
        for i in range(lo, hi):
            xr = vals[i].real
            xi = vals[i].imag
            tr = sr + xr
            if abs(sr) >= abs(xr):
                cr += (sr - tr) + xr
            else:
                cr += (xr - tr) + sr
            sr = tr
            ti = si + xi
            if abs(si) >= abs(xi):
                ci += (si - ti) + xi
            else:
                ci += (xi - ti) + si
            si = ti
        out[L] = complex(sr + cr, si + ci)
    return out


_VARIANTS = {
    "numpy": {
        "corner_numerators": corner_numerators_np,
        "dust_image_bits": dust_image_bits_np,
        "scalar_kernel": scalar_kernel_np,
        "matrix_kernel": matrix_kernel_np,
        "leaf_sums": leaf_sums_np,
    },
    "numba": {
        "corner_numerators": _corner_numerators_jit,
        "dust_image_bits": _dust_image_bits_jit,
        "scalar_kernel": _scalar_kernel_jit,
        "matrix_kernel": _matrix_kernel_jit,
        "leaf_sums": lambda vals, leaf: _leaf_sums_jit(vals, np.int64(leaf)),
    },
}

corner_numerators = None
dust_image_bits = None
scalar_kernel = None
matrix_kernel = None
leaf_sums = None
BACKEND = None


def use_backend(name):
    """Bind the module-level kernel names to one variant set.

    ``name``: ``numba``, ``numpy`` or ``auto``. Returns the backend in effect.
    """
    name = name.lower()
    if name == "auto":
        name = "numba" if HAVE_NUMBA else "numpy"
    if name not in _VARIANTS:
        raise ValueError(f"unknown kernel backend {name!r} (use numba|numpy|auto)")
    if name == "numba" and not HAVE_NUMBA:
        warnings.warn("numba not importable; falling back to numpy kernels")
        name = "numpy"
    g = globals()
    for key, fn in _VARIANTS[name].items():
        g[key] = fn
    g["BACKEND"] = name
    return name


use_backend(os.environ.get(_ENV_FLAG, "auto"))
