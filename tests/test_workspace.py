"""Trace kernels on vertex-lattice views, and the per-worker workspace.

The engine hands the kernels shifted views of each task's vertex lattice, not
gathered corner arrays, and every worker thread reuses one workspace for the
temporaries of all its tasks.  Neither may change a value: views must give
what contiguous copies give, bit for bit, and a task's leaf sums must not
depend on what its thread's workspace held before.
"""

import gc
import weakref

import numpy as np
import pytest

from dustcocycle import _kernels as K
from dustcocycle.cocycle import (
    TASK_LEAVES, LEAF, Observable, _leaf_sums_for_range, phi_n, pullback_projection,
)
from dustcocycle.geometry import get_preset
from dustcocycle.oracle import bott_projection

DUST = get_preset("cantor-dust")
TWO_PI = 2.0 * np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def corner_views(a):
    """Corners v0..v3 of every cell of lattice ``a``, as shifted views."""
    return [a[:-1, :-1], a[:-1, 1:], a[1:, 1:], a[1:, :-1]]


def lattice_shape(cols):
    """(H, W) of a lattice with ``cols`` cells per row whose row count leaves
    a short last kernel block."""
    rows_per_block = K.MATRIX_BLOCK // cols
    return 2 * rows_per_block + rows_per_block // 3 + 1, cols + 1


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.float64), b.view(np.float64))


class TestLatticeViews:
    def test_scalar_kernel_views_equal_contiguous_copies(self, rng):
        h, w = lattice_shape(90)
        views = [c for _ in range(3) for c in corner_views(random_complex(rng, (h, w)))]
        got = K.scalar_kernel(*views)
        want = K.scalar_kernel(*(np.ascontiguousarray(v).ravel() for v in views))
        assert got.shape == (h - 1, w - 1)
        assert_bits_equal(got.ravel(), want)

    @pytest.mark.parametrize("shared", [False, True], ids=["distinct", "f=g=h"])
    def test_matrix_kernel_views_equal_contiguous_copies(self, rng, shared):
        h, w = lattice_shape(70)
        lattices = [random_complex(rng, (h, w, 2, 2)) for _ in range(1 if shared else 3)]
        views = [c for a in lattices * (3 if shared else 1) for c in corner_views(a)]
        got = K.matrix_kernel(*views)
        copies = [np.ascontiguousarray(v).reshape(-1, 2, 2) for v in views]
        if shared:  # keep the sharing, which decides how many block copies are made
            copies = copies[:4] * 3
        want = K.matrix_kernel(*copies)
        assert got.shape == (h - 1, w - 1)
        assert_bits_equal(got.ravel(), want)

    @pytest.mark.parametrize("kernel, tail", [(K.scalar_kernel, ()), (K.matrix_kernel, (2, 2))])
    def test_reused_workspace_gives_fresh_values(self, rng, kernel, tail):
        ws = K.Workspace()
        big = [random_complex(rng, (3 * K.MATRIX_BLOCK + 5,) + tail) for _ in range(12)]
        small = [random_complex(rng, (40, 33) + tail) for _ in range(12)]
        kernel(*big, out=ws)
        got = kernel(*small, out=ws).copy()
        assert_bits_equal(got, kernel(*small))


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
        task_a = (("pullback",), 9, span, 2 * span, _observables(kind))
        task_b = (("cells",), 5, 0, 4**5, _observables("scalar"))  # other n, shape and kind
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
