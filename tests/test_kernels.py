"""Backend parity, the numpy matrix kernel against the matmul formula, and
leaf-summation determinism of the hot kernels."""

import numpy as np
import pytest

from dustcocycle import _kernels as K

needs_numba = pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba not installed")


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDigitKernelParity:
    @needs_numba
    def test_corner_numerators(self, rng):
        offx = np.array([0, 0, 2, 2], dtype=np.int64)
        offy = np.array([0, 2, 0, 2], dtype=np.int64)
        words = rng.integers(0, 4**9, size=5000).astype(np.int64)
        a = K._corner_numerators_jit(words, 9, offx, offy)
        b = K.corner_numerators_np(words, 9, offx, offy)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @needs_numba
    def test_image_bits(self, rng):
        words = rng.integers(0, 4**9, size=5000).astype(np.int64)
        a = K._dust_image_bits_jit(words, 9)
        b = K.dust_image_bits_np(words, 9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_image_bits_match_digit_semantics(self):
        # word symbols contribute x-bit s>>1 and y-bit s&1, coarse digit first
        words = np.array([0b1110, 0], dtype=np.int64)  # symbols (3, 2) and (0, 0)
        mx, my = K.dust_image_bits_np(words, 2)
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
        got = K.matrix_kernel_np(*args)
        assert got.shape == (size,)
        assert np.allclose(got, matmul_reference(*args), rtol=1e-13, atol=1e-13)

    def test_shared_inputs_match_matmul_reference(self, rng):
        # a pairing passes the same four arrays as f, g and h
        p = [random_complex(rng, (K.MATRIX_BLOCK + 321, 2, 2)) for _ in range(4)]
        got = K.matrix_kernel_np(*p, *p, *p)
        assert np.allclose(got, matmul_reference(*p, *p, *p), rtol=1e-13, atol=1e-13)

    def test_values_independent_of_chunking(self, rng):
        size = 3 * K.MATRIX_BLOCK + 500
        args = [random_complex(rng, (size, 2, 2)) for _ in range(12)]
        whole = K.matrix_kernel_np(*args)
        lo, hi = 1234, size - 77  # neither end on a block boundary
        part = K.matrix_kernel_np(*(x[lo:hi] for x in args))
        assert np.array_equal(part.view(np.float64), whole[lo:hi].view(np.float64))


@needs_numba
class TestTraceKernelParity:
    def test_scalar_complex_values_close(self, rng):
        # complex multiply rounds differently between the two code paths
        args = [random_complex(rng, 4096) for _ in range(12)]
        a = K._scalar_kernel_jit(*args)
        b = K.scalar_kernel_np(*args)
        assert np.allclose(a, b, rtol=1e-13, atol=1e-13)

    def test_scalar_real_values_bitwise_equal(self, rng):
        # real-valued observables (the hot path) evaluate identically
        args = [rng.standard_normal(4096).astype(np.complex128) for _ in range(12)]
        a = K._scalar_kernel_jit(*args)
        b = K.scalar_kernel_np(*args)
        assert np.array_equal(a.view(np.float64), b.view(np.float64))

    def test_matrix_values_close(self, rng):
        args = [np.ascontiguousarray(random_complex(rng, (512, 2, 2))) for _ in range(12)]
        a = K._matrix_kernel_jit(*args)
        b = K.matrix_kernel_np(*args)
        assert np.allclose(a, b, rtol=1e-13, atol=1e-13)

    def test_matrix_kernel_supports_other_dims(self, rng):
        args = [np.ascontiguousarray(random_complex(rng, (64, 3, 3))) for _ in range(12)]
        a = K._matrix_kernel_jit(*args)
        b = K.matrix_kernel_np(*args)
        assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


class TestLeafSums:
    @needs_numba
    def test_variants_agree(self, rng):
        vals = random_complex(rng, 4096 * 7 + 123)
        a = K._leaf_sums_jit(vals, np.int64(4096))
        b = K.leaf_sums_np(vals, 4096)
        assert a.shape == b.shape == (8,)
        assert np.allclose(a, b, rtol=1e-13)

    def test_numpy_leaves_independent_of_chunking(self, rng):
        vals = random_complex(rng, 4096 * 8)
        whole = K.leaf_sums_np(vals, 4096)
        split = np.concatenate(
            [K.leaf_sums_np(vals[i * 4096 * 2 : (i + 1) * 4096 * 2], 4096) for i in range(4)]
        )
        assert np.array_equal(whole.view(np.float64), split.view(np.float64))

    @needs_numba
    def test_numba_leaves_independent_of_chunking(self, rng):
        vals = random_complex(rng, 4096 * 8)
        whole = K._leaf_sums_jit(vals, np.int64(4096))
        split = np.concatenate(
            [
                K._leaf_sums_jit(vals[i * 4096 * 2 : (i + 1) * 4096 * 2], np.int64(4096))
                for i in range(4)
            ]
        )
        assert np.array_equal(whole.view(np.float64), split.view(np.float64))

    @needs_numba
    def test_compensation_beats_naive_on_adversarial_input(self):
        vals = np.tile([1e16, 1.0, -1e16, -1.0], 1024).astype(np.complex128)
        exact = 0.0
        got = K._leaf_sums_jit(vals, np.int64(4096))
        assert got[0].real == exact


class TestBackendSwitch:
    @needs_numba
    def test_use_backend_rebinds(self):
        try:
            K.use_backend("numpy")
            assert K.BACKEND == "numpy"
            assert K.scalar_kernel is K.scalar_kernel_np
            K.use_backend("numba")
            assert K.BACKEND == "numba"
            assert K.scalar_kernel is K._scalar_kernel_jit
        finally:
            K.use_backend("auto")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            K.use_backend("fortran")
