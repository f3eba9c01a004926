"""Digit-map semantics and the digit maps against the reference digit loop,
the edge-difference trace kernels on flat lattices against the corner form
they replaced (bitwise) and the Bloch-vector matrix kernel against the
complex matmul formula, that the matrix kernel's bits do not depend on its
block length, that no kernel reads outside its lattice, and leaf-summation
determinism of the hot kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dustcocycle import _kernels as K
from dustcocycle import cocycle
from dustcocycle.cocycle import LEAF
from dustcocycle.geometry import IfsPreset, get_preset
from dustcocycle.oracle import bott_projection

DUST, CARPET, FULL = (get_preset(name) for name in ("cantor-dust", "sierpinski-carpet",
                                                    "full-subdivision-3"))
# a complex pullback triple with a u-only rule, a real direct triple with an
# x-only and a y-only rule, and a Bloch projection
PULLBACK = (
    cocycle.Observable("uv", "pullback", "scalar", lambda u, v: 0.5 + u * v),
    cocycle.Observable("u^2", "pullback", "scalar", lambda u, v: u * u),
    cocycle.Observable("v+iu", "pullback", "scalar", lambda u, v: v - 1j * u),
)
DIRECT = cocycle.resolve_functions("const-xy")[:3]
BOTT = cocycle.pullback_projection(bott_projection(1))


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDigitKernelParity:
    def test_image_bits_match_digit_semantics(self):
        # word symbols contribute x-bit s>>1 and y-bit s&1, coarse digit first
        words = np.array([0b1110, 0], dtype=np.int64)  # symbols (3, 2) and (0, 0)
        mx, my = K.dust_image_bits(words, 2)
        assert (mx[0], my[0]) == (0b11, 0b10)
        assert (mx[1], my[1]) == (0, 0)


def matmul_reference(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    """The batched matmul/einsum form of the matrix kernel, on (B, N, N)
    complex matrices."""
    b1 = (g1 - g0) @ (h2 - h1) - (g3 - g0) @ (h2 - h3)
    b2 = (g3 - g2) @ (h0 - h3) - (g1 - g2) @ (h0 - h1)
    b3 = (g0 - g1) @ (h3 - h0) - (g2 - g1) @ (h3 - h2)
    b4 = (g2 - g3) @ (h1 - h2) - (g0 - g3) @ (h1 - h0)
    t = np.einsum("bij,bji->b", f0, b1)
    t += np.einsum("bij,bji->b", f2, b2)
    t -= np.einsum("bij,bji->b", f1, b3)
    t -= np.einsum("bij,bji->b", f3, b4)
    return 0.5 * t


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bloch_matrices(n):
    """(I + n . sigma) / 2 for Bloch vectors n along axis 0, as (B, 2, 2)."""
    n = np.asarray(n).reshape(3, -1)
    return 0.5 * (np.eye(2) + np.einsum("kb,kij->bij", n, PAULI))


def bloch_reference(*ns):
    """matmul_reference of the Hermitian unit-trace matrices of Bloch inputs."""
    return matmul_reference(*(bloch_matrices(n) for n in ns))


def shifted_cells(h, w):
    """The flat cells of a plain h x w lattice, flattened row-major: corners
    at k, k + 1, k + w + 1 and k + w, and (h - 1) w - 1 cells, the last of
    each row a padded one."""
    return (0, 1, w + 1, w), (h - 1) * w - 1


def quadrant_cells(h, w):
    """The cells of a (2, 2, h, w) lattice of near and far rows, near and far
    columns, then h rows and w columns: the dust's direct tiles."""
    return (0, h * w, 3 * h * w, 2 * h * w), h * w


def corner_cells(b):
    """The cells of B squares' corner arrays concatenated as (v0, v1, v2, v3):
    the per-square references' layout."""
    return (0, b, 2 * b, 3 * b), b


def corner_arrays(a, cells):
    """The values of flat lattice ``a`` (scalar (N,) or Bloch (3, N)) at the
    corners v0..v3 of its cells, indexed here apart from the kernels."""
    offsets, count = cells
    k = np.arange(count)
    return [a[..., k + o] for o in offsets]


def cell_range(cells, lo, hi):
    """The cells [lo, hi) of ``cells``, as cells of their own."""
    offsets, _ = cells
    return tuple(o + lo for o in offsets), hi - lo


def reference_scalar_kernel(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    """The corner form of the scalar kernel that the edge form replaced:
    four vertex differences of g and four of h, each term F (X Y - X' Y')
    added or subtracted, in the kernel's dtype and operand order."""
    dtype = np.result_type(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3)

    def diff(a, b):
        return np.subtract(a, b, out=np.empty(np.shape(a), dtype))

    g10, g30, g32, g12 = diff(g1, g0), diff(g3, g0), diff(g3, g2), diff(g1, g2)
    h21, h23, h03, h01 = diff(h2, h1), diff(h2, h3), diff(h0, h3), diff(h0, h1)
    acc = None
    for accumulate, F, X, Y, X2, Y2 in (
        (np.add, f0, g10, h21, g30, h23),
        (np.add, f2, g32, h03, g12, h01),
        (np.subtract, f1, g10, h03, g12, h23),
        (np.subtract, f3, g32, h21, g30, h01),
    ):
        t = np.multiply(X, Y)
        t -= np.multiply(X2, Y2)
        t *= F
        acc = t if acc is None else accumulate(acc, t, out=acc)
    return np.multiply(0.5, acc, out=np.empty(acc.shape, np.complex128))


def reference_matrix_kernel(f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3):
    """The corner form of the Bloch-vector matrix kernel that the edge form
    replaced, on (3, ...) inputs: eight vertex differences in the 4-row
    (x2, x3, x1, x2) layout."""
    def diff(a, b):
        return np.subtract(a, b)[[1, 2, 0, 1]]

    g10, g30, g32, g12 = diff(g1, g0), diff(g3, g0), diff(g3, g2), diff(g1, g2)
    h21, h23, h03, h01 = diff(h2, h1), diff(h2, h3), diff(h0, h3), diff(h0, h1)
    re = np.subtract(g10[:3], g32[:3])
    re *= np.subtract(h21[:3], h03[:3])
    t = np.subtract(g30[:3], g12[:3])
    t *= np.subtract(h23[:3], h01[:3])
    re -= t
    im = None
    for accumulate, F, X, Y, X2, Y2 in (
        (np.add, f0, g10, h21, g30, h23),
        (np.add, f2, g32, h03, g12, h01),
        (np.subtract, f1, g10, h03, g12, h23),
        (np.subtract, f3, g32, h21, g30, h01),
    ):
        s = np.multiply(X[0:3], Y[1:4])
        s -= np.multiply(X[1:4], Y[0:3])
        s -= np.multiply(X2[0:3], Y2[1:4])
        s += np.multiply(X2[1:4], Y2[0:3])
        s *= F
        im = s if im is None else accumulate(im, s, out=im)
    out = np.empty(re.shape[1:], np.complex128)
    for part, acc in ((out.real, re), (out.imag, im)):
        total = acc[0]
        total += acc[1]
        total += acc[2]
        np.multiply(total, 0.125, out=part)
    return out


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


def assert_corner_form_bits(got, want):
    """A kernel's values ``got`` are the corner form's ``want`` bit for bit,
    where +0.0 and -0.0 may trade places at an exact zero.  The corner form
    casts its result to complex128: a real call's float64 values are then
    its real part, and its imaginary part is +0.0 everywhere."""
    if got.dtype == np.float64:
        assert not want.imag.view(np.uint64).any()
        want = want.real
    assert_bits_equal(got + 0.0, want + 0.0)


@st.composite
def _lattice_cases(draw):
    """(kind, f, g, h, cells): flat lattices of every layout the engine
    passes -- shifted, quadrant (both with the two edge slices of a block
    apart, and touching) and corner lattices -- of real or complex scalars or
    of distinct or shared Bloch vectors, each ending in a short block, and at
    times only a range of their cells that starts and ends off a block
    boundary."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = draw(st.sampled_from(["real", "complex", "matrix", "matrix f=g=h"]), label="kind")
    layout = draw(st.sampled_from(["shifted", "quadrant", "corners"]), label="layout")
    if layout == "corners":
        squares = draw(st.integers(1, 2 * K.BLOCK + 99).filter(lambda m: m % K.BLOCK),
                       label="squares")
        size, cells = 4 * squares, corner_cells(squares)
    else:
        cols = draw(st.integers(1, 300), label="cells per row")
        block = K.BLOCK // cols
        rows = draw(st.sampled_from([block // 2 + 1, 2 * block + block // 3]), label="cell rows")
        if layout == "shifted":
            size, cells = (rows + 1) * (cols + 1), shifted_cells(rows + 1, cols + 1)
        else:
            size, cells = 4 * rows * cols, quadrant_cells(rows, cols)
    count = cells[1]
    if count > 2 and draw(st.booleans(), label="a range of cells"):
        lo = draw(st.integers(1, count // 2), label="first cell")
        hi = draw(st.integers(lo + 1, count - 1), label="end cell")
        cells = cell_range(cells, lo, hi)
    nfun = 1 if kind == "matrix f=g=h" else 3
    head = (3,) if kind.startswith("matrix") else ()
    lattices = [rng.standard_normal(head + (size,)) for _ in range(nfun)]
    if kind == "complex":
        lattices = [a + 1j * rng.standard_normal(size) for a in lattices]
    return (kind, *(lattices * (3 // nfun)), cells)


class TestEdgeKernelsMatchCornerForm:
    """The edge-difference kernels are bitwise the corner form they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(_lattice_cases())
    def test_bitwise_equal_to_corner_form(self, case):
        kind, f, g, h, cells = case
        kernel, reference = ((K.matrix_kernel, reference_matrix_kernel) if kind.startswith("matrix")
                             else (K.scalar_kernel, reference_scalar_kernel))
        got = kernel(f, g, h, cells=cells, out=K.Workspace())
        want = reference(*(c for a in (f, g, h) for c in corner_arrays(a, cells)))
        assert got.dtype == (np.float64 if kind == "real" else np.complex128)
        assert want.dtype == np.complex128
        assert_corner_form_bits(got, want)

    @pytest.mark.parametrize("layout", ["shifted", "corners"])
    def test_complex_tail_cell_is_not_a_block_of_its_own(self, layout):
        """A call of BLOCK + 1 cells (a shifted lattice of one column of
        cells, or concatenated corners) runs its last cell in a longer
        block: numpy rounds an in-place complex product of a one-element
        array unlike its vector loop, and a block of that one cell could
        differ from the corner form in the last bit."""
        draw = np.random.default_rng(16385)
        for _ in range(8):
            if layout == "shifted":
                size, cells = (K.BLOCK // 2 + 2) * 2, shifted_cells(K.BLOCK // 2 + 2, 2)
            else:
                size, cells = 4 * (K.BLOCK + 1), corner_cells(K.BLOCK + 1)
            assert cells[1] == K.BLOCK + 1
            f, g, h = (random_complex(draw, size) for _ in range(3))
            got = K.scalar_kernel(f, g, h, cells=cells)
            want = reference_scalar_kernel(*(c for a in (f, g, h) for c in corner_arrays(a, cells)))
            assert_bits_equal(got + 0.0, want + 0.0)

    @pytest.mark.parametrize("layout", ["shifted", "quadrant", "corners"])
    def test_edges_are_the_corner_differences(self, rng, layout):
        a = rng.standard_normal(4 * 70 * 50)
        cells = {"shifted": shifted_cells(4 * 70, 50), "quadrant": quadrant_cells(70, 50),
                 "corners": corner_cells(70 * 50)}[layout]
        v0, v1, v2, v3 = corner_arrays(a, cells)
        for lo, hi in ((3, 61), (5, 3000), (0, cells[1])):
            got = K.edges(a, cells, lambda _, x, y: x - y, lo, hi)
            for x, want in zip(got, (v1 - v0, v2 - v3, v3 - v0, v2 - v1)):
                assert np.array_equal(x, want[lo:hi])
            for x, want in zip(K.corners(a, cells, lo, hi), (v0, v1, v2, v3)):
                assert np.array_equal(x, want[lo:hi])

    def test_shifted_cells_are_the_lattice_squares(self, rng):
        """On a plain lattice, the corners of cell i w + j, j < w - 1, are
        those of the square at row i and column j; cell i w + w - 1 is a
        padded one."""
        h, w = 7, 5
        a = rng.standard_normal((h, w))
        v0, v1, v2, v3 = corner_arrays(a.reshape(-1), shifted_cells(h, w))
        square = np.arange((h - 1) * w - 1) % w < w - 1
        for x, want in ((v0, a[:-1, :-1]), (v1, a[:-1, 1:]), (v2, a[1:, 1:]), (v3, a[1:, :-1])):
            assert np.array_equal(x[square], want.reshape(-1))


class TestPaddedCellsNeverLeak:
    """A kernel reads nothing outside its lattice: on a lattice that is a
    view into a buffer of NaN, every value is finite."""

    LAYOUTS = [("shifted", shifted_cells(h, w), h * w) for h, w in
               ((2, 2), (3, 3), (2, 7), (7, 2), (129, 130))]
    LAYOUTS += [("quadrant", quadrant_cells(h, w), 4 * h * w) for h, w in
                ((1, 1), (2, 2), (3, 5), (128, 128))]
    LAYOUTS += [("corners", corner_cells(b), 4 * b) for b in (1, 2, K.BLOCK + 3)]

    @pytest.mark.parametrize("kind", ["real", "complex", "matrix", "matrix f=g=h"])
    @pytest.mark.parametrize("layout, cells, size", LAYOUTS,
                             ids=lambda x: x if isinstance(x, str) else None)
    def test_finite_inside_nan(self, rng, kind, layout, cells, size):
        head = (3,) if kind.startswith("matrix") else ()
        dtype = np.complex128 if kind == "complex" else np.float64
        pad = 17
        lattices = []
        for _ in range(1 if kind == "matrix f=g=h" else 3):
            buf = np.full(head + (size + 2 * pad,), np.nan, dtype)
            a = buf[..., pad : pad + size]
            a[...] = rng.standard_normal(a.shape)
            if kind == "complex":
                a.imag = rng.standard_normal(a.shape)
            lattices.append(a)
        f, g, h = lattices * (3 // len(lattices))
        kernel = K.matrix_kernel if head else K.scalar_kernel
        got = kernel(f, g, h, cells=cells)
        assert got.shape == (cells[1],)
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    def test_engine_lattices_finite_inside_nan(self, monkeypatch, n):
        """The cells the engine passes stay inside its lattices, from 1 x 1
        cell (n = 0) up: every kernel call of every layout, on copies of its
        lattices inside NaN, gives finite values, and the sums the same
        bits."""
        calls = []

        def padded(kernel):
            def run(*lattices, cells, out=None, **kw):
                inside = []
                for a in lattices:
                    buf = np.full(a.shape[:-1] + (a.shape[-1] + 34,), np.nan, a.dtype)
                    inside.append(buf[..., 17:-17])
                    inside[-1][...] = a
                got = kernel(*inside, cells=cells, out=out, **kw)
                calls.append(bool(np.isfinite(got).all()))
                return got

            return run

        sums = {
            "pullback": lambda: cocycle.phi_n(DUST, n, *PULLBACK, workers=1),
            "subdivision": lambda: cocycle.phi_subdivision(n, *(o.rule for o in PULLBACK),
                                                           workers=1),
            "dust": lambda: cocycle.phi_n(DUST, n, *DIRECT, workers=1),
            "carpet": lambda: cocycle.phi_n(CARPET, min(n, 6), *DIRECT, workers=1),
            "full-subdivision-3": lambda: cocycle.phi_n(FULL, min(n, 5), *DIRECT, workers=1),
            "pairing": lambda: cocycle.pairing_n(DUST, n, BOTT, workers=1),
        }
        want = {name: fn() for name, fn in sums.items()}
        monkeypatch.setattr(K, "scalar_kernel", padded(K.scalar_kernel))
        monkeypatch.setattr(K, "matrix_kernel", padded(K.matrix_kernel))
        for name, fn in sums.items():
            assert fn() == want[name], name
        assert calls and all(calls)


def bloch_lattices(quads):
    """Flat lattices of (3, B) Bloch quadruples v0..v3, one per function,
    the corner arrays concatenated, and their cells."""
    return [np.concatenate(q, axis=-1) for q in quads], corner_cells(quads[0][0].shape[-1])


@st.composite
def _bloch_inputs(draw):
    """(f, g, h, cells): (3, N) Bloch lattices, shifted or corner lattices,
    of distinct or shared (f = g = h) functions, always ending in a short
    block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = draw(st.sampled_from([1e-3, 1.0, 3.0]), label="scale")
    nfun = 1 if draw(st.booleans(), label="f=g=h") else 3
    if draw(st.booleans(), label="lattice"):
        cols = draw(st.integers(3, 300), label="cells per row")
        rows = K.BLOCK // cols
        h, w = 2 * rows + rows // 3 + 1, cols + 1
        lattices = [scale * rng.standard_normal((3, h * w)) for _ in range(nfun)]
        cells = shifted_cells(h, w)
    else:
        size = draw(st.integers(1, 2 * K.BLOCK + 99).filter(lambda m: m % K.BLOCK), label="squares")
        lattices, cells = bloch_lattices(
            [[scale * rng.standard_normal((3, size)) for _ in range(4)] for _ in range(nfun)])
    return (*(lattices * (3 // nfun)), cells)


class TestMatrixKernelNumpy:
    @settings(max_examples=25, deadline=None)
    @given(_bloch_inputs())
    def test_matches_matmul_reference(self, args):
        f, g, h, cells = args
        got = K.matrix_kernel(f, g, h, cells=cells)
        corners = [c for a in (f, g, h) for c in corner_arrays(a, cells)]
        assert got.shape == corners[0].shape[1:] and got.dtype == np.complex128
        assert np.allclose(got, bloch_reference(*corners), rtol=1e-13, atol=1e-13)

    def test_shared_inputs_match_matmul_reference(self, rng):
        # a pairing passes the same lattice as f, g and h; unit Bloch
        # vectors are rank-1 projections
        p = [rng.standard_normal((3, K.BLOCK + 321)) for _ in range(4)]
        p = [x / np.sqrt((x * x).sum(axis=0)) for x in p]
        (a,), cells = bloch_lattices([p])
        got = K.matrix_kernel(a, a, a, cells=cells)
        assert np.allclose(got, bloch_reference(*p, *p, *p), rtol=1e-13, atol=1e-13)

    def test_values_independent_of_chunking(self, rng):
        size = 3 * K.BLOCK + 500
        (f, g, h), cells = bloch_lattices(
            [[rng.standard_normal((3, size)) for _ in range(4)] for _ in range(3)])
        whole = K.matrix_kernel(f, g, h, cells=cells).copy()
        lo, hi = 1234, size - 77  # neither end on a block boundary
        part = K.matrix_kernel(f, g, h, cells=cell_range(cells, lo, hi))
        assert np.array_equal(part.view(np.float64), whole[lo:hi].view(np.float64))


def cells_of(layout, count):
    """(lattice size, cells) of ``count`` cells in a shifted, quadrant or
    corner layout; the shifted lattice is at most 300 vertices wide."""
    if layout == "shifted":
        w = max(d for d in range(2, 301) if (count + 1) % d == 0)
        h = (count + 1) // w + 1
        return h * w, shifted_cells(h, w)
    if layout == "quadrant":
        return 4 * count, quadrant_cells(1, count)
    return 4 * count, corner_cells(count)


class TestSymmetricMatrixBlock:
    """matrix_kernel(a, a, a) runs the symmetric block; with copies of a as g
    and h it runs the general one, and the two agree bit for bit."""

    @pytest.mark.parametrize("layout", ["shifted", "quadrant", "corners"])
    @pytest.mark.parametrize("count", [1, 2, K.BLOCK + 1, 2 * K.BLOCK + 99])
    def test_bitwise_equal_to_general_path(self, rng, layout, count):
        size, cells = cells_of(layout, count)
        assert cells[1] == count
        a = rng.standard_normal((3, size))
        ranges = [cells]
        if count > 2 * K.BLOCK:
            ranges.append(cell_range(cells, 1234, count - 77))  # off block boundaries
        for c in ranges:
            got = K.matrix_kernel(a, a, a, cells=c, out=K.Workspace()).copy()
            want = K.matrix_kernel(a, a.copy(), a.copy(), cells=c, out=K.Workspace())
            assert_bits_equal(got, want)
            assert not np.signbit(got.real).any() and not got.real.any()  # +0 throughout


class TestMatrixBlockLength:
    """The matrix kernel is real float64 arithmetic cell by cell, so its
    values do not depend on the block length: at each length, the symmetric
    block (a, a, a) and the general block (f, g, h) give the bits of one
    block for the whole call."""

    @staticmethod
    def lattices(rng):
        """(f, g, h, cells) of a 257 x 257 pullback tile of the degree-1 Bott
        field, then of random Bloch lattices, shifted and corner."""
        pts = np.arange(257) / 256
        tile = bott_projection(1)(pts[:, None], pts[None, :]).reshape(3, -1)
        yield tile, tile.copy(), tile.copy(), shifted_cells(257, 257)
        size, cells = cells_of("shifted", 2 * K.BLOCK + 99)
        yield *(rng.standard_normal((3, size)) for _ in range(3)), cells
        quads = [[rng.standard_normal((3, K.BLOCK + 321)) for _ in range(4)] for _ in range(3)]
        lattices, cells = bloch_lattices(quads)
        yield *lattices, cells

    @pytest.mark.parametrize("length", [1000, 4097, K.BLOCK // 2, K.BLOCK])
    def test_bits_independent_of_block_length(self, monkeypatch, rng, length):
        for f, g, h, cells in self.lattices(rng):
            runs = {}
            for key, block in (("whole", cells[1]), ("blocked", length)):
                monkeypatch.setattr(K, "MATRIX_BLOCK", block)
                runs[key] = [K.matrix_kernel(*args, cells=cells, out=K.Workspace())
                             for args in ((f, f, f), (f, g, h))]
            for got, want in zip(runs["blocked"], runs["whole"]):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def patterned_lattice(rng, layout, size, cells, zero, dtype):
    """A flat ``dtype`` lattice of ``size`` values in ``layout`` whose cell
    edges along ``zero`` are exact zeros: a row for "y" (values that vary
    along x only), a column for "x", a constant for "xy"."""
    def draw(shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if dtype == np.complex128 else a

    if layout == "corners":
        p, q = draw(size // 4), draw(size // 4)
        return np.concatenate({"": (p, q, draw(size // 4), draw(size // 4)),
                               "y": (p, q, q, p), "x": (p, p, q, q), "xy": (p, p, p, p)}[zero])
    if layout == "shifted":
        w = cells[0][3]
        shape, row, col = (size // w, w), (1, w), (size // w, 1)
    else:
        hw = size // 4
        shape, row, col = (2, 2, 1, hw), (1, 2, 1, hw), (2, 1, 1, 1)
    part = {"": shape, "y": row, "x": col, "xy": (1,) * len(shape)}[zero]
    return np.broadcast_to(draw(part), shape).reshape(-1)


def real_cells(layout, cells):
    """Which of ``cells`` are squares: all but a shifted lattice's padded
    cells, whose x-edge wraps into the next row."""
    (o0, _, _, o3), count = cells
    w = o3 - o0
    return (o0 + np.arange(count)) % w != w - 1 if layout == "shifted" else np.ones(count, bool)


class TestSeparablePair:
    """Given a row g and a column h compact, scalar_kernel forms each
    block's X Y as one outer product of their edge vectors, and gives the
    bits of the same values as flat lattices on every square (a shifted
    lattice's padded cells aside), also for a lone complex square."""

    @staticmethod
    def lattices(rng, layout, rows, cols, gtype, htype):
        """(f, g, h, cells): a flat f, a compact row g and column h on a
        shifted rows x cols lattice or on rows x cols quadrant cells."""
        def draw(shape, dtype):
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if dtype == np.complex128 else a

        if layout == "shifted":
            full, row, col = (rows, cols), (1, cols), (rows, 1)
            cells = shifted_cells(rows, cols)
        else:
            full, row, col = (2, 2, rows, cols), (1, 2, 1, cols), (2, 1, rows, 1)
            cells = quadrant_cells(rows, cols)
        return draw(full, htype).reshape(-1), draw(row, gtype), draw(col, htype), cells

    @pytest.mark.parametrize("layout, rows, cols", [
        ("shifted", 2, 2), ("shifted", 2, 3), ("shifted", 70, 257), ("shifted", 300, 120),
        ("quadrant", 1, 1), ("quadrant", 1, 2), ("quadrant", 64, 300), ("quadrant", 129, 257),
    ])
    def test_bitwise_equal_to_materialized(self, rng, layout, rows, cols):
        for gtype, htype in ((np.float64,) * 2, (np.complex128,) * 2,
                             (np.float64, np.complex128)):
            for _ in range(20 if rows * cols < 10 else 1):  # a lone square rounds by chance
                f, g, h, cells = self.lattices(rng, layout, rows, cols, gtype, htype)
                full = (2, 2, rows, cols) if layout == "quadrant" else (rows, cols)
                got = K.scalar_kernel(f, g, h, cells=cells, out=K.Workspace())
                want = K.scalar_kernel(f, *(np.broadcast_to(a, full).reshape(-1) for a in (g, h)),
                                       cells=cells, out=K.Workspace())
                keep = real_cells(layout, cells)
                assert_bits_equal(got[keep] + 0.0, want[keep] + 0.0)

    def test_one_outer_product_per_block(self, monkeypatch, rng):
        """Per call, one difference for each edge vector; per block, the
        outer product, a product per term and the final scale."""
        f, g, h, cells = self.lattices(rng, "shifted", 300, 120, np.float64, np.float64)
        calls = {"multiply": 0, "subtract": 0}
        for name in calls:
            ufunc = getattr(np, name)

            def counted(*args, _ufunc=ufunc, _name=name, **kwargs):
                calls[_name] += 1
                return _ufunc(*args, **kwargs)

            monkeypatch.setattr(K.np, name, counted)
        K.scalar_kernel(f, g, h, cells=cells)
        blocks = len(list(K._blocks(cells[1])))
        assert blocks > 2
        assert calls == {"multiply": 6 * blocks, "subtract": 2}

    @pytest.mark.parametrize("layout, rows, cols", [("shifted", 40, 31), ("quadrant", 20, 15)])
    def test_non_finite_f_stays_non_finite(self, rng, layout, rows, cols):
        """Where f is NaN or inf at a corner, a square is not finite, as on
        the general path: the same squares are finite on both (a shifted
        lattice's padded cells aside)."""
        f, g, h, cells = self.lattices(rng, layout, rows, cols, np.float64, np.float64)
        f = f.astype(np.complex128)
        f[::7] = np.nan
        f[3::11] = np.inf
        full = (2, 2, rows, cols) if layout == "quadrant" else (rows, cols)
        with np.errstate(invalid="ignore"):
            got = K.scalar_kernel(f, g, h, cells=cells, out=K.Workspace())
            want = K.scalar_kernel(f, *(np.broadcast_to(a, full).reshape(-1) for a in (g, h)),
                                   cells=cells, out=K.Workspace())
        keep = real_cells(layout, cells)
        assert not np.isfinite(want[keep]).all()
        assert np.array_equal(np.isfinite(got[keep]), np.isfinite(want[keep]))


class TestZeroEdgeElision:
    """Flat lattices with zero edges, a row, column or constant g or h:
    the scalar kernel elides nothing on them.  Every pattern runs the
    general path, with the corner form's bits (up to the sign of an exact
    zero), all of its edges and products, and a square not finite where an
    f corner is not.  A compact row g with a compact column h, the one
    shape that skips a product, is TestSeparablePair's."""

    PATTERNS = [("y", ""), ("x", ""), ("", "y"), ("", "x"), ("y", "x"), ("x", "y"),
                ("y", "y"), ("x", "x"), ("xy", ""), ("", "xy"), ("h is g", "y"),
                ("h is g", "x")]

    @staticmethod
    def triple(rng, layout, size, cells, zg, zh, gtype=np.float64, htype=np.float64):
        """Flat f, g and h in ``layout``, g's and h's edges along ``zg`` and
        ``zh`` exact zeros, h the very array g for ``zg == "h is g"``."""
        f = patterned_lattice(rng, layout, size, cells, "", htype)
        if zg == "h is g":
            g = h = patterned_lattice(rng, layout, size, cells, zh, gtype)
        else:
            g = patterned_lattice(rng, layout, size, cells, zg, gtype)
            h = patterned_lattice(rng, layout, size, cells, zh, htype)
        return f, g, h

    @pytest.mark.parametrize("layout", ["shifted", "quadrant", "corners"])
    @pytest.mark.parametrize("count", [1, 2, K.BLOCK + 1, 2 * K.BLOCK + 99])
    @pytest.mark.parametrize("zg, zh", PATTERNS, ids=lambda z: z.replace(" ", "-") or "full")
    def test_bitwise_equal_to_general_path(self, rng, layout, count, zg, zh):
        """The general path's corner form, bit for bit, on every cell (a
        shifted lattice's padded ones too), with real, complex and mixed
        values and, for h is g, its shared edges."""
        size, cells = cells_of(layout, count)
        ranges = [cells]
        if count > 2 * K.BLOCK:
            ranges.append(cell_range(cells, 1234, count - 77))  # off block boundaries
        for gtype, htype in ((np.float64,) * 2, (np.complex128,) * 2,
                             (np.float64, np.complex128)):
            f, g, h = self.triple(rng, layout, size, cells, zg, zh, gtype, htype)
            for c in ranges:
                got = K.scalar_kernel(f, g, h, cells=c, out=K.Workspace())
                want = reference_scalar_kernel(*(x for a in (f, g, h) for x in corner_arrays(a, c)))
                assert_corner_form_bits(got, want)

    @pytest.mark.parametrize("zg, zh, multiply, subtract", [
        ("y", "x", 9, 4), ("y", "", 9, 4), ("", "x", 9, 4),
        ("x", "y", 9, 4), ("x", "", 9, 4), ("y", "y", 9, 4), ("", "", 9, 4),
    ])
    def test_products_not_formed(self, monkeypatch, rng, zg, zh, multiply, subtract):
        """No product is left out on flat lattices, also where the zero
        edges make X' Y' vanish (a row g, a column h: bott-flux's, flat):
        every pattern forms the general path's 4 edges and 8 products."""
        size, cells = cells_of("shifted", 2 * K.BLOCK)  # blocks wider than a row
        f, g, h = self.triple(rng, "shifted", size, cells, zg, zh)
        calls = {"multiply": 0, "subtract": 0}
        for name in calls:
            ufunc = getattr(np, name)

            def counted(*args, _ufunc=ufunc, _name=name, **kwargs):
                calls[_name] += 1
                return _ufunc(*args, **kwargs)

            monkeypatch.setattr(K.np, name, counted)
        K.scalar_kernel(f, g, h, cells=cells)
        blocks = len(list(K._blocks(cells[1])))
        # per block: one shared difference per edge, a product per term and
        # product, and the final scale
        assert calls == {"multiply": multiply * blocks, "subtract": subtract * blocks}

    @pytest.mark.parametrize("zg, zh", [("y", "x"), ("x", "y"), ("y", "y"), ("xy", "")])
    def test_non_finite_f_stays_non_finite(self, rng, zg, zh):
        """A square is finite exactly where f is finite at its four corners,
        also where both products vanish (a row g with a row h, a constant
        g): every term is then 0 * F, NaN where F is not finite."""
        size, cells = cells_of("quadrant", 300)
        f, g, h = self.triple(rng, "quadrant", size, cells, zg, zh, htype=np.complex128)
        f = f.copy()
        f[::7] = np.nan
        f[3::11] = np.inf
        with np.errstate(invalid="ignore"):
            got = K.scalar_kernel(f, g, h, cells=cells, out=K.Workspace())
        finite = np.logical_and.reduce([np.isfinite(c) for c in corner_arrays(f, cells)])
        assert not finite.all()
        assert np.array_equal(np.isfinite(got), finite)


class TestLeafSums:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_numpy_leaves_independent_of_chunking(self, data):
        # any split on leaf boundaries gives the same leaves, bit for bit
        m = data.draw(st.integers(1, 10 * LEAF), label="length")
        cuts = data.draw(st.lists(st.integers(0, m // LEAF), max_size=6), label="cuts")
        edges = sorted({0, m, *(c * LEAF for c in cuts)})
        vals = random_complex(np.random.default_rng(m), m)
        whole = K.leaf_sums(vals, LEAF)
        split = np.concatenate([K.leaf_sums(vals[a:b], LEAF) for a, b in zip(edges, edges[1:])])
        assert np.array_equal(whole.view(np.float64), split.view(np.float64))

    @pytest.mark.parametrize("m", [LEAF, 3 * LEAF, 1000, 2 * LEAF + 77, 3**10],
                             ids=["leaf", "leaves", "tail", "leaves+tail", "59049"])
    def test_real_values_sum_as_complex(self, m):
        """Float64 values sum, leaf by leaf, to the bits of the same values
        cast to complex128: whole leaves, a short tail, and the 3**10 words
        of a full-subdivision-3 tile.  Magnitudes spread over 16 decades, so
        a float64 pairwise sum, grouped unlike the complex one, would show."""
        draw = np.random.default_rng(m)
        vals = draw.standard_normal(m) * 10.0 ** draw.uniform(-8, 8, m)
        got = K.leaf_sums(vals, LEAF)
        assert got.dtype == np.complex128
        assert_bits_equal(got, K.leaf_sums(vals.astype(np.complex128), LEAF))

    def test_buffer_smaller_than_a_leaf_refused(self):
        """numpy casts a real leaf in pieces when its ufunc buffer is smaller
        than the leaf, which changes the bits (at 4080 values, numpy 2.4), so
        a 1-worker sum on a thread with such a buffer raises before it
        returns a value."""
        f, g, h, _, _ = cocycle.resolve_functions("bott-flux")
        old = np.getbufsize()
        np.setbufsize(4080)
        try:
            with pytest.raises(ValueError, match="buffer size 4080 is smaller than a leaf of 4096"):
                cocycle.phi_n(DUST, 6, f, g, h, workers=1)
        finally:
            np.setbufsize(old)


def reference_corner_numerators(words, n, offx, offy):
    """The digit-by-digit loop: one divmod, lookup and shift-and-add per digit."""
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


def reference_image_bits(words, n):
    """The digit-by-digit Morton de-interleave of dust words."""
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


# the shipped presets, plus one whose symbol 0 has nonzero offsets, so a
# digit map that stopped short of a word's n digits would show
_DIGIT_PRESETS = [get_preset(name) for name in ("cantor-dust", "sierpinski-carpet",
                                                "full-subdivision-3")]
_DIGIT_PRESETS.append(IfsPreset("shifted-3", ((2, 1), (0, 0), (1, 2))))


@st.composite
def _words(draw, nmaps, max_n):
    """(n, words): n up to int64 word indices, words always holding the
    first and the last of the nmaps**n words."""
    n = draw(st.integers(0, max_n))
    last = nmaps**n - 1
    words = draw(st.lists(st.integers(0, last), max_size=40))
    return n, np.array([0, *words, last], dtype=np.int64)


def _arrays(value):
    """The arrays ``value`` is or holds in its lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _arrays(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v)


class TestDigitTables:
    """The digit maps, one loop over a word's digits, against the reference
    loops above, and the tile orders read from them."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_corner_numerators_match_digit_loop(self, data):
        preset = data.draw(st.sampled_from(_DIGIT_PRESETS), label="preset")
        max_n = int(62 / np.log2(preset.nmaps))  # nmaps**n < 2**63
        n, words = data.draw(_words(preset.nmaps, max_n), label="n, words")
        offx, offy = preset.offset_arrays()
        want = reference_corner_numerators(words, n, offx, offy)
        got = K.corner_numerators(words, n, offx, offy)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=80, deadline=None)
    @given(_words(4, 31))
    def test_image_bits_match_digit_loop(self, case):
        n, words = case
        want = reference_image_bits(words, n)
        got = K.dust_image_bits(words, n)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("level", [0, 1, 5, 8])
    def test_tile_order_matches_digit_loop(self, level):
        # the pullback tile's cells in a (2**level + 1)-vertex-wide lattice
        mx, my = reference_image_bits(np.arange(4**level, dtype=np.int64), level)
        order = cocycle._pullback_tile(level).order
        assert np.array_equal(order, my * ((1 << level) + 1) + mx)

    @pytest.mark.parametrize("preset", _DIGIT_PRESETS, ids=lambda p: p.name)
    def test_every_word_of_a_level(self, preset):
        # the first level of more than 2**16 words
        n = 1 + max(k for k in range(1, 17) if preset.nmaps**k <= 1 << 16)
        words = np.arange(preset.nmaps**n, dtype=np.int64)
        offx, offy = preset.offset_arrays()
        got = K.corner_numerators(words, n, offx, offy)
        want = reference_corner_numerators(words, n, offx, offy)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_import_builds_no_array(self):
        """The digit maps need no tables: no module-level value of
        ``_kernels`` is, or holds, an array."""
        held = [name for name, v in vars(K).items()
                if not name.startswith("__") and any(True for _ in _arrays(v))]
        assert held == []
