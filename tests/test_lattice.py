"""Per-tile vertex-lattice evaluation against the four-corner reference.

The engine evaluates pullback and subdivision observables once per vertex of
each task's lattice and gathers the four corners of every square from it.
The reference below is the per-square path it replaced: float corner
coordinates of each square, four ``evaluate`` calls per observable, then the
same kernel and leaf sums.  The two must agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustcocycle import _kernels as K
from dustcocycle import cocycle
from dustcocycle.cocycle import LEAF, TASK_LEAVES, Observable, _leaf_sums_for_range, phi_n
from dustcocycle.geometry import get_preset

DUST = get_preset("cantor-dust")
TWO_PI = 2.0 * math.pi


def _cell_coords(cells, n):
    """Row-major subdivision cell corners; the far edge stays at 1."""
    side = np.int64(1) << n
    i = cells & (side - 1)
    j = cells >> n
    inv = 1.0 / float(side)
    return i * inv, (i + 1) * inv, j * inv, (j + 1) * inv


def reference_leaf_sums(source, n, w_lo, w_hi, observables):
    """Leaf sums over [w_lo, w_hi) with every square's corners evaluated apart."""
    idx = np.arange(w_lo, w_hi, dtype=np.int64)
    if source[0] == "pullback":
        c0, c1, d0, d1 = cocycle._pullback_coords(idx, n)
    else:
        c0, c1, d0, d1 = _cell_coords(idx, n)
    pts = ((c0, d0), (c1, d0), (c1, d1), (c0, d1))
    fv, gv, hv = ([o.evaluate(u, v) for (u, v) in pts] for o in observables)
    kernel = K.scalar_kernel if observables[0].kind == "scalar" else K.matrix_kernel
    return K.leaf_sums(np.ascontiguousarray(kernel(*fv, *gv, *hv)), LEAF)


# a trig polynomial: terms (a, b, c, s) -> c cos 2pi(au+bv) + i s sin 2pi(au+bv)
_coef = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_terms = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), _coef, _coef), min_size=1, max_size=3
)


def _trig(terms):
    def fn(u, v):
        out = np.zeros(np.shape(u), dtype=np.complex128)
        for a, b, c, s in terms:
            t = TWO_PI * (a * u + b * v)
            out = out + (c * np.cos(t) + 1j * s * np.sin(t))
        return out

    return fn


def _scalar(terms):
    return Observable("trig", "pullback", "scalar", _trig(terms))


def _matrix(entries):
    fns = [_trig(t) for t in entries]

    def rule(u, v):
        e = [fn(u, v) for fn in fns]
        return np.stack([np.stack(e[:2], axis=-1), np.stack(e[2:], axis=-1)], axis=-2)

    return Observable("trig-2x2", "pullback", "matrix", rule, dim=2)


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["scalar", "matrix"]))
    source = (draw(st.sampled_from(["pullback", "cells"])),)
    n = draw(st.integers(0, 9))
    total = 4**n
    w_lo = draw(st.integers(0, total - 1))
    w_hi = w_lo + draw(st.integers(1, min(total - w_lo, 3 * LEAF + 17)))
    make = _scalar if kind == "scalar" else _matrix
    size = 1 if kind == "scalar" else 4
    f, g, h = (make(draw(st.lists(_terms, min_size=size, max_size=size)))
               if size > 1 else make(draw(_terms)) for _ in range(3))
    share = draw(st.sampled_from(["distinct", "f=g", "f=g=h"]))
    if share != "distinct":
        g = f
        h = f if share == "f=g=h" else h
    return source, n, w_lo, w_hi, (f, g, h)


class TestLatticeMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(_cases())
    def test_leaf_sums_bit_identical(self, case):
        source, n, w_lo, w_hi, obs = case
        got = _leaf_sums_for_range(source, n, w_lo, w_hi, obs)
        want = reference_leaf_sums(source, n, w_lo, w_hi, obs)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("source", [("pullback",), ("cells",)])
    @pytest.mark.parametrize("n", [8, 9])
    def test_whole_tasks_bit_identical(self, source, n):
        obs = tuple(_scalar(t) for t in (
            [(1, 0, 1.0, 0.5)], [(0, 1, 0.3, -1.0), (2, -1, 0.7, 0.2)], [(1, 1, -0.4, 0.9)],
        ))
        span = TASK_LEAVES * LEAF
        for w_lo in range(0, 4**n, span):
            got = _leaf_sums_for_range(source, n, w_lo, w_lo + span, obs)
            want = reference_leaf_sums(source, n, w_lo, w_lo + span, obs)
            np.testing.assert_array_equal(got, want)


class TestVertexCount:
    def test_each_vertex_once_per_tile(self):
        """n=9 is four aligned 256 x 256 Morton tiles of 257 x 257 vertices."""
        sizes = []

        def rule(u, v):
            sizes.append(u.size)
            return np.cos(TWO_PI * u) * np.sin(TWO_PI * v)

        f = Observable("counted", "pullback", "scalar", rule)
        phi_n(DUST, 9, f, f, f, workers=1)
        assert sizes == [257 * 257] * 4
