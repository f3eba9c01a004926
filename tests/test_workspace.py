"""Trace kernels on vertex lattices, real inputs, and the per-worker
workspace.

The engine hands the kernels each task's flat vertex lattice and the
corner offsets of its cells, not gathered corner arrays, real values as
float64 (the matrix kernel's Bloch vectors always), and every worker thread
reuses one workspace for the temporaries of all its tasks.  None of these
may change a value: a lattice must give what the concatenated contiguous
copies of its cells' corners give, real scalar inputs the real part of the
same values cast to complex, bit for bit, and a task's leaf sums must not
depend on what its thread's workspace held before.  The scalar kernel is
also checked to be linear in each of f, g and h, the matrix kernel linear in
the Bloch vectors of g and h and affine in those of f.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustcocycle import _kernels as K
from dustcocycle.cocycle import (
    TASK_LEAVES, LEAF, Observable, _leaf_sums_for_range, _pullback_source, _subdivision_source,
    phi_n, pullback_projection,
)
from dustcocycle.geometry import get_preset
from dustcocycle.oracle import bott_projection
from test_kernels import corner_arrays, corner_cells, shifted_cells

DUST = get_preset("cantor-dust")
TWO_PI = 2.0 * np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def copied_corners(a, cells):
    """Contiguous copies of the corners of every cell of the flat lattice
    ``a`` (scalar (N,) or Bloch (3, N)), concatenated, and their cells."""
    v = corner_arrays(a, cells)
    return np.concatenate(v, axis=-1), corner_cells(v[0].shape[-1])


def lattice_shape(cols, block):
    """(H, W) of a lattice with ``cols`` cells per row whose row count leaves
    a short last kernel block of ``block`` squares."""
    rows_per_block = block // cols
    return 2 * rows_per_block + rows_per_block // 3 + 1, cols + 1


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


class TestLatticeViews:
    def test_scalar_kernel_views_equal_contiguous_copies(self, rng):
        h, w = lattice_shape(90, K.BLOCK)
        lattices = [random_complex(rng, h * w) for _ in range(3)]
        got = K.scalar_kernel(*lattices, cells=shifted_cells(h, w))
        copies = [copied_corners(a, shifted_cells(h, w)) for a in lattices]
        want = K.scalar_kernel(*(a for a, _ in copies), cells=copies[0][1])
        assert got.shape == ((h - 1) * w - 1,)
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("shared", [False, True], ids=["distinct", "f=g=h"])
    def test_matrix_kernel_views_equal_contiguous_copies(self, rng, shared):
        h, w = lattice_shape(70, K.BLOCK)
        lattices = [rng.standard_normal((3, h * w)) for _ in range(1 if shared else 3)]
        got = K.matrix_kernel(*lattices * (3 if shared else 1), cells=shifted_cells(h, w))
        # keep the sharing: f, g and h are the same corner lattice, so both
        # sides run the symmetric block (test_kernels checks it against the
        # general one)
        copies = [copied_corners(a, shifted_cells(h, w)) for a in lattices] * (3 if shared else 1)
        want = K.matrix_kernel(*(a for a, _ in copies), cells=copies[0][1])
        assert got.shape == ((h - 1) * w - 1,)
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("kernel", [K.scalar_kernel, K.matrix_kernel])
    def test_reused_workspace_gives_fresh_values(self, rng, kernel):
        ws = K.Workspace()
        big, big_cells = _vertex_values(rng, kernel, "corners", 3 * K.BLOCK + 5)
        small, small_cells = _vertex_values(rng, kernel, "lattice", (41, 34))
        kernel(*big, cells=big_cells, out=ws)
        got = kernel(*small, cells=small_cells, out=ws).copy()
        assert_bits_equal(got, kernel(*small, cells=small_cells))


def _vertex_values(rng, kernel, shape, size):
    """Three complex scalar or Bloch flat lattices and their cells: corner
    arrays of ``size`` squares, or plain lattices of shape ``size``."""
    def draw(n):
        if kernel is K.matrix_kernel:
            return rng.standard_normal((3, n))
        return random_complex(rng, n)

    if shape == "corners":
        return [draw(4 * size) for _ in range(3)], corner_cells(size)
    return [draw(size[0] * size[1]) for _ in range(3)], shifted_cells(*size)


def _kernel_inputs(rng, kind, shape, nn):
    """Three float64 flat kernel lattices (f, g and h) and their cells:
    concatenated corner arrays, or plain lattices; a matrix input has its
    three Bloch components in front."""
    head = (3,) if kind == "matrix" else ()
    if shape == "corners":
        return [rng.standard_normal(head + (4 * nn,)) for _ in range(3)], corner_cells(nn)
    h, w = lattice_shape(nn, K.BLOCK)
    return [rng.standard_normal(head + (h * w,)) for _ in range(3)], shifted_cells(h, w)


_KERNELS = {"scalar": K.scalar_kernel, "matrix": K.matrix_kernel}


@st.composite
def _kernel_cases(draw, kinds=tuple(sorted(_KERNELS))):
    kind = draw(st.sampled_from(kinds))
    shape = draw(st.sampled_from(["corners", "lattice"]))
    # corners: a square count up to two and a bit blocks; lattice: cells per row
    nn = draw(st.integers(1, 2 * K.BLOCK + 99) if shape == "corners" else st.integers(3, 300))
    return kind, shape, nn, draw(st.integers(0, 2**32 - 1))


class TestRealKernels:
    """Float64 inputs run float64 temporaries into the complex result."""

    @settings(max_examples=30, deadline=None)
    @given(_kernel_cases(kinds=("scalar",)))
    def test_real_part_bitwise_equal_to_complex_inputs(self, case):
        kind, shape, nn, seed = case
        kernel = _KERNELS[kind]
        real, cells = _kernel_inputs(np.random.default_rng(seed), kind, shape, nn)
        ws = K.Workspace()
        got = kernel(*real, cells=cells, out=ws)
        want = kernel(*(x.astype(np.complex128) for x in real), cells=cells)
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.real.view(np.uint64), want.real.view(np.uint64))
        assert not got.imag.view(np.uint64).any()  # +0.0 everywhere
        # every temporary of a real call is real
        kinds = {name: dtype for name, dtype in ws._buffers if name.startswith("kernel.")}
        assert kinds.pop("kernel.result") == np.complex128
        assert set(kinds.values()) == {np.dtype(np.float64)}

    @settings(max_examples=30, deadline=None)
    @given(case=_kernel_cases(), slot=st.sampled_from([0, 1, 2]), real=st.booleans(),
           a=st.complex_numbers(max_magnitude=3.0), b=st.complex_numbers(max_magnitude=3.0))
    def test_linear_in_each_of_f_g_h(self, case, slot, real, a, b):
        """K(.., a x + b y, ..) = a K(.., x, ..) + b K(.., y, ..), with x and y
        the vertex lattices of f (slot 0), g (1) or h (2).  Bloch vectors
        are real, and e = (I + n . sigma) / 2 is affine in n: the matrix
        kernel takes real a and b, with b = 1 - a in the f slot."""
        kind, shape, nn, seed = case
        kernel = _KERNELS[kind]
        rng = np.random.default_rng(seed)
        args, cells = _kernel_inputs(rng, kind, shape, nn)
        if kind == "matrix":
            a, b = a.real, (1.0 - a.real if slot == 0 else b.real)
        elif not real:
            args = [x + 1j * y for x, y in zip(args, _kernel_inputs(rng, kind, shape, nn)[0])]
        other = args[slot][..., ::-1]  # a second, different lattice

        def with_slot(x):
            return kernel(*args[:slot], x, *args[slot + 1:], cells=cells).copy()

        kx, ky = with_slot(args[slot]), with_slot(other)
        got = with_slot(a * args[slot] + b * other)
        scale = np.max(abs(a) * np.abs(kx) + abs(b) * np.abs(ky), initial=1.0)
        np.testing.assert_allclose(got, a * kx + b * ky, rtol=1e-12, atol=1e-12 * scale)


def _trig(a, b):
    def fn(u, v):
        t = TWO_PI * (a * u + b * v)
        return np.cos(t) + 0.5j * np.sin(2.0 * t)

    return fn


def _observables(kind):
    if kind == "matrix":
        p = pullback_projection(bott_projection(1))
        return p, p, p
    return tuple(Observable("trig", "pullback", "scalar", _trig(a, b))
                 for a, b in ((1, 0), (0, 1), (2, -1)))


class TestWorkspaceReuse:
    @pytest.mark.parametrize("kind", ["scalar", "matrix"])
    def test_task_leaf_sums_independent_of_workspace_history(self, kind):
        span = TASK_LEAVES * LEAF
        task_a = (_pullback_source(9), span, _observables(kind))
        # another level, lattice shape and kind
        task_b = (_subdivision_source(5), 0, _observables("scalar"))
        ws = K.Workspace()
        first = _leaf_sums_for_range(*task_a, ws)
        other = _leaf_sums_for_range(*task_b, ws)
        again = _leaf_sums_for_range(*task_a, ws)
        assert_bits_equal(again, first)
        assert_bits_equal(first, _leaf_sums_for_range(*task_a))
        assert_bits_equal(other, _leaf_sums_for_range(*task_b))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_workspace_per_thread_released_on_return(self, monkeypatch, workers):
        made = []

        class Tracked(K.Workspace):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(K, "Workspace", Tracked)
        f = _observables("scalar")[0]
        phi_n(DUST, 10, f, f, f, workers=workers)  # 16 tasks
        gc.collect()
        assert 1 <= len(made) <= workers
        assert all(ref() is None for ref in made)
