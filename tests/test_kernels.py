"""Digit-map semantics and the digit tables against the digit-by-digit loop,
the Bloch-vector matrix kernel against the complex matmul formula, and
leaf-summation determinism of the hot kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dustcocycle import _kernels as K
from dustcocycle.cocycle import LEAF
from dustcocycle.geometry import IfsPreset, get_preset


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


def corner_views(a):
    """Corners v0..v3 of every cell of a (3, H, W) Bloch lattice."""
    return [a[:, :-1, :-1], a[:, :-1, 1:], a[:, 1:, 1:], a[:, 1:, :-1]]


@st.composite
def _bloch_inputs(draw):
    """Twelve (3, ...) Bloch inputs: corner arrays or lattice views, of
    distinct or shared (f = g = h) functions, always ending in a short block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = draw(st.sampled_from([1e-3, 1.0, 3.0]), label="scale")
    nfun = 1 if draw(st.booleans(), label="f=g=h") else 3
    if draw(st.booleans(), label="lattice"):
        cols = draw(st.integers(3, 300), label="cells per row")
        rows = K.BLOCK // cols
        quads = [corner_views(scale * rng.standard_normal((3, 2 * rows + rows // 3 + 1, cols + 1)))
                 for _ in range(nfun)]
    else:
        size = draw(st.integers(1, 2 * K.BLOCK + 99).filter(lambda m: m % K.BLOCK), label="squares")
        quads = [[scale * rng.standard_normal((3, size)) for _ in range(4)] for _ in range(nfun)]
    return [x for q in quads * (3 // nfun) for x in q]


class TestMatrixKernelNumpy:
    @settings(max_examples=25, deadline=None)
    @given(_bloch_inputs())
    def test_matches_matmul_reference(self, args):
        got = K.matrix_kernel(*args)
        assert got.shape == args[0].shape[1:] and got.dtype == np.complex128
        assert np.allclose(got.ravel(), bloch_reference(*args), rtol=1e-13, atol=1e-13)

    def test_shared_inputs_match_matmul_reference(self, rng):
        # a pairing passes the same four arrays as f, g and h; unit Bloch
        # vectors are rank-1 projections
        p = [rng.standard_normal((3, K.BLOCK + 321)) for _ in range(4)]
        p = [x / np.sqrt((x * x).sum(axis=0)) for x in p]
        got = K.matrix_kernel(*p, *p, *p)
        assert np.allclose(got, bloch_reference(*p, *p, *p), rtol=1e-13, atol=1e-13)

    def test_values_independent_of_chunking(self, rng):
        size = 3 * K.BLOCK + 500
        args = [rng.standard_normal((3, size)) for _ in range(12)]
        whole = K.matrix_kernel(*args).copy()
        lo, hi = 1234, size - 77  # neither end on a block boundary
        part = K.matrix_kernel(*(x[:, lo:hi] for x in args))
        assert np.array_equal(part.view(np.float64), whole[lo:hi].view(np.float64))


class TestBlochVectors:
    def test_inverts_the_pauli_form(self, rng):
        n = rng.standard_normal((3, 5, 7))
        e = bloch_matrices(n).reshape(5, 7, 2, 2)
        out = np.empty((3, 5, 7))
        herm, trace = K.bloch_vectors(e, out=out)
        np.testing.assert_allclose(out, n, rtol=0, atol=1e-15)
        assert herm <= 1e-15 and trace <= 1e-15

    @pytest.mark.parametrize("entry, delta, defect", [
        ((0, 1), 1e-6, "herm"), ((1, 0), 1e-6j, "herm"), ((0, 0), 1e-6j, "herm"),
        ((1, 1), 1e-6, "trace"), ((0, 0), np.nan, "trace"),
    ])
    def test_defects_seen_at_any_vertex(self, rng, entry, delta, defect):
        e = bloch_matrices(rng.standard_normal((3, 2 * K.BLOCK + 5))).copy()
        e[K.BLOCK + 3][entry] += delta  # in the second block
        herm, trace = K.bloch_vectors(e, out=np.empty((3, len(e))))
        got = {"herm": herm, "trace": trace}
        assert not got[defect] < 1e-7
        assert got["trace" if defect == "herm" else "herm"] < 1e-12 or np.isnan(delta)


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


# the shipped presets, plus one whose symbol 0 has nonzero offsets, so the
# zero digits above a word's last chunk would show if they were looked up
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


class TestDigitTables:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_corner_numerators_match_digit_loop(self, data):
        preset = data.draw(st.sampled_from(_DIGIT_PRESETS), label="preset")
        max_n = int(62 / np.log2(preset.nmaps))  # nmaps**n < 2**63
        n, words = data.draw(_words(preset.nmaps, max_n), label="n, words")
        offx, offy = preset.offset_arrays()
        want = reference_corner_numerators(words, n, offx, offy)
        ws = K.Workspace()
        K.corner_numerators(np.arange(70000, dtype=np.int64) % preset.nmaps, 1, offx, offy, out=ws)
        for got in (K.corner_numerators(words, n, offx, offy),
                    K.corner_numerators(words, n, offx, offy, out=ws)):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=80, deadline=None)
    @given(_words(4, 31))
    def test_image_bits_match_digit_loop(self, case):
        n, words = case
        want = reference_image_bits(words, n)
        ws = K.Workspace()
        K.dust_image_bits(np.arange(70000, dtype=np.int64), 9, out=ws)
        for got in (K.dust_image_bits(words, n), K.dust_image_bits(words, n, out=ws)):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("level", [0, 1, 5, 8])
    def test_tile_order_matches_digit_loop(self, level):
        mx, my = reference_image_bits(np.arange(4**level, dtype=np.int64), level)
        assert np.array_equal(K.dust_tile_order(level), my * (1 << level) + mx)

    @pytest.mark.parametrize("preset", _DIGIT_PRESETS, ids=lambda p: p.name)
    def test_every_word_of_a_level(self, preset):
        # one full chunk of k digits (nmaps**k <= 2**16) and one digit above it
        n = 1 + max(k for k in range(1, 17) if preset.nmaps**k <= 1 << 16)
        words = np.arange(preset.nmaps**n, dtype=np.int64)
        offx, offy = preset.offset_arrays()
        got = K.corner_numerators(words, n, offx, offy)
        want = reference_corner_numerators(words, n, offx, offy)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
