"""Digit-map semantics, the matrix kernel against the matmul formula, and
leaf-summation determinism of the hot kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dustcocycle import _kernels as K
from dustcocycle.cocycle import LEAF


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
    """The batched matmul/einsum form of the matrix kernel."""
    b1 = (g1 - g0) @ (h2 - h1) - (g3 - g0) @ (h2 - h3)
    b2 = (g3 - g2) @ (h0 - h3) - (g1 - g2) @ (h0 - h1)
    b3 = (g0 - g1) @ (h3 - h0) - (g2 - g1) @ (h3 - h2)
    b4 = (g2 - g3) @ (h1 - h2) - (g0 - g3) @ (h1 - h0)
    t = np.einsum("bij,bji->b", f0, b1)
    t += np.einsum("bij,bji->b", f2, b2)
    t -= np.einsum("bij,bji->b", f1, b3)
    t -= np.einsum("bij,bji->b", f3, b4)
    return 0.5 * t


class TestMatrixKernelNumpy:
    # B is never a multiple of the block, so every run has a short last block
    @pytest.mark.parametrize("nn, size", [(2, 2 * K.MATRIX_BLOCK + 123), (3, K.MATRIX_BLOCK + 57)])
    def test_matches_matmul_reference(self, rng, nn, size):
        args = [random_complex(rng, (size, nn, nn)) for _ in range(12)]
        got = K.matrix_kernel(*args)
        assert got.shape == (size,)
        assert np.allclose(got, matmul_reference(*args), rtol=1e-13, atol=1e-13)

    def test_shared_inputs_match_matmul_reference(self, rng):
        # a pairing passes the same four arrays as f, g and h
        p = [random_complex(rng, (K.MATRIX_BLOCK + 321, 2, 2)) for _ in range(4)]
        got = K.matrix_kernel(*p, *p, *p)
        assert np.allclose(got, matmul_reference(*p, *p, *p), rtol=1e-13, atol=1e-13)

    def test_values_independent_of_chunking(self, rng):
        size = 3 * K.MATRIX_BLOCK + 500
        args = [random_complex(rng, (size, 2, 2)) for _ in range(12)]
        whole = K.matrix_kernel(*args)
        lo, hi = 1234, size - 77  # neither end on a block boundary
        part = K.matrix_kernel(*(x[lo:hi] for x in args))
        assert np.array_equal(part.view(np.float64), whole[lo:hi].view(np.float64))


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
