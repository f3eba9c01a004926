"""Per-tile vertex-lattice evaluation against the four-corner reference.

The engine evaluates pullback, subdivision and direct observables on the
dust and the carpet once per vertex of each task's lattice, handed to the
rule as a row of u and a column of v, and reads the four corners of every
square from it.  A pullback or direct task is always one aligned tile,
placed from its first word's digit map.  ``full-subdivision-3`` keeps the
word path, which digit-maps every word.
The reference below is the per-square path the lattices replaced: float
corner coordinates of each square from every word's digit map, four
``evaluate`` calls per observable, then the same scalar kernel and leaf
sums, which must agree bit for bit.  For 2 x 2 Hermitian unit-trace
observables, whose rules return Bloch vectors, the reference forms the
matrices and runs the complex batched-matmul formula on them, where the
engine runs the real 3-vector kernel; the two agree to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustcocycle import _kernels as K
from dustcocycle import cocycle
from dustcocycle.cocycle import (
    LEAF,
    TASK_LEAVES,
    Observable,
    _direct_source,
    _leaf_sums_for_range,
    _task_span,
    phi_n,
    resolve_functions,
)
from dustcocycle.geometry import get_preset
from test_kernels import bloch_matrices, matmul_reference

DUST = get_preset("cantor-dust")
CARPET = get_preset("sierpinski-carpet")
FULL = get_preset("full-subdivision-3")
TWO_PI = 2.0 * math.pi


def _pullback_coords(words, n):
    """Exact dyadic torus coordinates of the image cell corners (u0, u1, v0, v1)."""
    mx, my = K.dust_image_bits(words, n)
    side = np.int64(1) << n
    mask = side - 1
    inv = 1.0 / float(side)
    return mx * inv, ((mx + 1) & mask) * inv, my * inv, ((my + 1) & mask) * inv


def _cell_coords(cells, n):
    """Row-major subdivision cell corners; the far edge stays at 1."""
    side = np.int64(1) << n
    i = cells & (side - 1)
    j = cells >> n
    inv = 1.0 / float(side)
    return i * inv, (i + 1) * inv, j * inv, (j + 1) * inv


def _direct_coords(words, n, offx, offy):
    """Triadic corners (x0, x1, y0, y1) of every word's own square."""
    kx, ky = K.corner_numerators(words, n, offx, offy)
    den = float(3**n)
    return kx / den, (kx + 1) / den, ky / den, (ky + 1) / den


def _corner_values(source, n, w_lo, w_hi, observables):
    """Each observable's values at the corners v0..v3 of every square of
    [w_lo, w_hi), evaluated square by square."""
    idx = np.arange(w_lo, w_hi, dtype=np.int64)
    if source[0] in ("direct", "words"):
        c0, c1, d0, d1 = _direct_coords(idx, n, source[1], source[2])
    elif source[0] == "pullback":
        c0, c1, d0, d1 = _pullback_coords(idx, n)
    else:
        c0, c1, d0, d1 = _cell_coords(idx, n)
    pts = ((c0, d0), (c1, d0), (c1, d1), (c0, d1))
    return [[o.evaluate(u, v) for (u, v) in pts] for o in observables]


def rounding_scale(f, g, h):
    """Per square, the sum over the kernel's eight products F X Y of
    |F| (|X| |Y| + e (|X| + |Y|)), with |.| the largest entry modulus and e
    the largest of all the vertex values: the size of the rounding of either
    kernel form.  The e terms are the rounding of matrix entries such as
    (1 + n3) / 2, which a difference of nearly equal vertex values keeps."""
    def m(a):
        return np.abs(a).max(axis=(-2, -1))

    e = max(np.abs(x).max() for x in (*f, *g, *h))
    g10, g30, g32, g12 = m(g[1] - g[0]), m(g[3] - g[0]), m(g[3] - g[2]), m(g[1] - g[2])
    h21, h23, h03, h01 = m(h[2] - h[1]), m(h[2] - h[3]), m(h[0] - h[3]), m(h[0] - h[1])
    products = ((0, g10, h21), (0, g30, h23), (2, g32, h03), (2, g12, h01),
                (1, g10, h03), (1, g12, h23), (3, g32, h21), (3, g30, h01))
    return sum(m(f[k]) * (x * y + e * (x + y)) for k, x, y in products)


def reference_leaf_sums(source, n, w_lo, w_hi, observables):
    """Leaf sums of the scalar kernel over [w_lo, w_hi) with every square's
    corners evaluated apart, passed concatenated as (v0, v1, v2, v3)."""
    f, g, h = (np.concatenate(c) for c in _corner_values(source, n, w_lo, w_hi, observables))
    b = w_hi - w_lo
    return K.leaf_sums(K.scalar_kernel(f, g, h, cells=((0, b, 2 * b, 3 * b), b)), LEAF)


def _pullback(n):
    """The pullback source of a level-n sum, as ``phi_n`` builds it."""
    return cocycle._pullback_source(n)


def _draw_range(draw, source, n, total):
    """A pullback or direct tile range is one whole aligned tile at a random
    task index; a subdivision or word range is any nonempty range of up to 3
    leaves."""
    if source[0] in ("pullback", "direct"):
        tile = _task_span(source) if source[0] == "direct" else source[1].size
        w_lo = tile * draw(st.integers(0, total // tile - 1))
        return w_lo, w_lo + tile
    w_lo = draw(st.integers(0, total - 1))
    return w_lo, w_lo + draw(st.integers(1, min(total - w_lo, 3 * LEAF + 17)))


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
    """(I + n . sigma) / 2 for a field n of three real trig polynomials, not
    of unit length: a Hermitian unit-trace 2 x 2 field, given by n."""
    fns = [_real_trig(t) for t in entries]

    def rule(u, v):
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        return np.stack([np.broadcast_to(fn(u, v), shape) for fn in fns])

    return Observable("trig-bloch", "pullback", "matrix", rule, dim=2)


@st.composite
def _cases(draw, matrix=False):
    """A range of a pullback or subdivision sum and a scalar (or 2 x 2
    Hermitian unit-trace) triple, of distinct or shared observables."""
    n = draw(st.integers(0, 9))
    source = _pullback(n) if draw(st.booleans()) else ("cells",)
    w_lo, w_hi = _draw_range(draw, source, n, 4**n)
    if matrix:
        f, g, h = (_matrix(draw(st.lists(_terms, min_size=3, max_size=3))) for _ in range(3))
    else:
        f, g, h = (_scalar(draw(_terms)) for _ in range(3))
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

    @settings(max_examples=30, deadline=None)
    @given(_cases(matrix=True))
    def test_matrix_leaf_sums_match_matmul_reference(self, case):
        """Each leaf within 1e-13 of the sum of its squares' rounding scales."""
        source, n, w_lo, w_hi, obs = case
        got = _leaf_sums_for_range(source, n, w_lo, w_hi, obs)
        corners = [[bloch_matrices(x) for x in c]
                   for c in _corner_values(source, n, w_lo, w_hi, obs)]
        want = K.leaf_sums(matmul_reference(*corners[0], *corners[1], *corners[2]), LEAF)
        scale = K.leaf_sums(rounding_scale(*corners), LEAF).real
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("source", [("pullback",), ("cells",)])
    @pytest.mark.parametrize("n", [8, 9])
    def test_whole_tasks_bit_identical(self, source, n):
        obs = tuple(_scalar(t) for t in (
            [(1, 0, 1.0, 0.5)], [(0, 1, 0.3, -1.0), (2, -1, 0.7, 0.2)], [(1, 1, -0.4, 0.9)],
        ))
        source = _pullback(n) if source[0] == "pullback" else source
        span = TASK_LEAVES * LEAF
        for w_lo in range(0, 4**n, span):
            got = _leaf_sums_for_range(source, n, w_lo, w_lo + span, obs)
            want = reference_leaf_sums(source, n, w_lo, w_lo + span, obs)
            np.testing.assert_array_equal(got, want)

    def test_tile_order_needs_one_full_aligned_task(self):
        obs = (_scalar([(1, 0, 1.0, 0.5)]),) * 3
        span = TASK_LEAVES * LEAF
        for n, lo, hi in ((9, 1, span + 1), (9, 0, LEAF), (9, span, 3 * span), (5, 0, 1023),
                          (5, 1, 1025), (0, 0, 0)):
            with pytest.raises(ValueError, match="full aligned"):
                _leaf_sums_for_range(_pullback(n), n, lo, hi, obs)
        with pytest.raises(ValueError, match="full aligned"):  # an order of the wrong level
            _leaf_sums_for_range(_pullback(5), 9, 0, 1024, obs)


def _count_mapped_words(monkeypatch, name):
    """The word count of every later call to the digit map ``K.<name>``."""
    mapped = []
    digit_map = getattr(K, name)

    def counting(w, *args, **kw):
        mapped.append(np.size(w))
        return digit_map(w, *args, **kw)

    monkeypatch.setattr(K, name, counting)
    return mapped


class TestVertexCount:
    def test_each_vertex_once_per_tile(self):
        """n=9 is four aligned 256 x 256 Morton tiles of 257 x 257 vertices,
        handed to the rule as a row of 257 u and a column of 257 v."""
        shapes = []

        def rule(u, v):
            shapes.append((u.shape, v.shape))
            return np.cos(TWO_PI * u) * np.sin(TWO_PI * v)

        f = Observable("counted", "pullback", "scalar", rule)
        phi_n(DUST, 9, f, f, f, workers=1)
        assert shapes == [((1, 257), (257, 1))] * 4

    @pytest.mark.parametrize("n, words", [(0, 1), (5, 1), (8, 1), (9, 4)])
    def test_one_digit_mapped_word_per_tile(self, monkeypatch, n, words):
        """Only each tile's first word is digit-mapped, at every level."""
        mapped = _count_mapped_words(monkeypatch, "dust_image_bits")
        f = Observable("trig", "pullback", "scalar", lambda u, v: np.cos(TWO_PI * (u - v)))
        phi_n(DUST, n, f, f, f, workers=2)
        assert mapped == [1] * words


class TestDirectTiles:
    """Direct tasks on the dust and the carpet are lattice tiles placed from
    their first word; the reference takes every word's corners from its own
    digit map."""

    @pytest.mark.parametrize("name", ["linear-xy", "sine-xy"])
    @pytest.mark.parametrize("preset, n", [(DUST, 3), (DUST, 8), (DUST, 9),
                                           (CARPET, 3), (CARPET, 5), (CARPET, 6)])
    def test_tile_leaf_sums_equal_per_square_reference(self, preset, n, name):
        obs = resolve_functions(name)[:3]
        source = _direct_source(preset, n)
        assert source[0] == "direct"
        span = _task_span(source)
        assert span == preset.nmaps ** min(n, {4: 8, 8: 5}[preset.nmaps])
        for w_lo in range(0, preset.nmaps**n, span):
            got = _leaf_sums_for_range(source, n, w_lo, w_lo + span, obs)
            want = reference_leaf_sums(source, n, w_lo, w_lo + span, obs)
            np.testing.assert_array_equal(got, want)

    def test_dust_tile_cells_come_in_morton_order(self):
        for n in (0, 1, 5, 8, 9):
            tile = _direct_source(DUST, n)[3]
            np.testing.assert_array_equal(tile.order, K.dust_tile_order(min(n, 8)))
            assert tile.dx.size == tile.dy.size == 2 << min(n, 8)

    def test_tile_needs_one_full_aligned_task(self):
        obs = resolve_functions("sine-xy")[:3]
        for preset, n in ((DUST, 9), (CARPET, 6), (DUST, 3), (CARPET, 2)):
            source = _direct_source(preset, n)
            span = _task_span(source)
            for lo, hi in ((0, span - 1), (1, span + 1), (0, 2 * span), (span // 2, span)):
                with pytest.raises(ValueError, match="full aligned direct task"):
                    _leaf_sums_for_range(source, n, lo, hi, obs)

    @pytest.mark.parametrize("preset, n, tasks", [(DUST, 0, 1), (DUST, 9, 4),
                                                  (CARPET, 4, 1), (CARPET, 6, 8)])
    def test_one_digit_mapped_word_per_tile(self, monkeypatch, preset, n, tasks):
        _direct_source(preset, n)  # the tile itself is built once per level
        mapped = _count_mapped_words(monkeypatch, "corner_numerators")
        obs = resolve_functions("sine-xy")[:3]
        phi_n(preset, n, *obs, workers=2)
        assert mapped == [1] * tasks

    def test_full_subdivision_keeps_the_word_path(self, monkeypatch):
        """9**k words are never whole leaves: every word is digit-mapped, and
        the leaf sums are the per-square reference's."""
        obs = resolve_functions("sine-xy")[:3]
        for n in (0, 3, 6):
            source = _direct_source(FULL, n)
            assert source[0] == "words"
            span = _task_span(source)
            for w_lo in range(0, 9**n, span):
                w_hi = min(9**n, w_lo + span)
                np.testing.assert_array_equal(
                    _leaf_sums_for_range(source, n, w_lo, w_hi, obs),
                    reference_leaf_sums(source, n, w_lo, w_hi, obs))
        mapped = _count_mapped_words(monkeypatch, "corner_numerators")
        phi_n(FULL, 6, *obs, workers=1)
        assert sum(mapped) == 9**6


# a real trig rule: terms (a, b, c, s) -> c cos 2pi au cos 2pi bv + s sin 2pi(au+bv)
def _real_trig(terms):
    def fn(u, v):
        out = 0.0
        for a, b, c, s in terms:
            out = out + c * np.cos(TWO_PI * a * u) * np.cos(TWO_PI * b * v)
            out = out + s * np.sin(TWO_PI * (a * u + b * v))
        return out

    return fn


def _as_complex(fn):
    return lambda u, v: np.asarray(fn(u, v)).astype(np.complex128)


_DIRECT = {p.name: p for p in (DUST, CARPET, FULL)}


@st.composite
def _real_cases(draw):
    mode = draw(st.sampled_from(["pullback", "cells", "direct"]))
    n = draw(st.integers(0, 9))
    if mode == "direct":
        preset = _DIRECT[draw(st.sampled_from(sorted(_DIRECT)))]
        source = _direct_source(preset, n)
        nmaps = preset.nmaps
    else:
        source = _pullback(n) if mode == "pullback" else ("cells",)
        nmaps = 4
    total = nmaps**n
    span = _task_span(source)
    if draw(st.booleans()):  # one aligned task, as the engine makes them
        w_lo = span * draw(st.integers(0, (total - 1) // span))
        w_hi = min(total, w_lo + span)
    else:
        w_lo, w_hi = _draw_range(draw, source, n, total)
    rules = [_real_trig(draw(_terms)) for _ in range(3)]
    return source, n, w_lo, w_hi, rules


class TestRealValuesStayReal:
    """Real rules run float64 temporaries; their leaf sums must equal those of
    the same rules cast to complex, which run the complex path throughout."""

    @settings(max_examples=60, deadline=None)
    @given(_real_cases())
    def test_leaf_sums_equal_complex_cast(self, case):
        source, n, w_lo, w_hi, rules = case
        mode = "direct" if source[0] == "direct" else "pullback"
        real = tuple(Observable("re", mode, "scalar", r) for r in rules)
        cplx = tuple(Observable("c", mode, "scalar", _as_complex(r)) for r in rules)
        assert real[0].evaluate(np.zeros(3), np.zeros(3)).dtype == np.float64
        got = _leaf_sums_for_range(source, n, w_lo, w_hi, real)
        want = _leaf_sums_for_range(source, n, w_lo, w_hi, cplx)
        assert got.dtype == np.complex128
        np.testing.assert_array_equal(got, want)


class TestObservableContract:
    def test_u_only_rule_row_is_broadcast(self):
        f = Observable("u-only", "pullback", "scalar", lambda u, v: np.sin(TWO_PI * u))
        u, v = np.linspace(0, 1, 7)[None, :], np.linspace(0, 1, 5)[:, None]
        got = f.evaluate(u, v)
        assert got.shape == (5, 7) and got.dtype == np.float64
        np.testing.assert_array_equal(got, np.broadcast_to(np.sin(TWO_PI * u), (5, 7)))
        full = Observable("u-full", "pullback", "scalar",
                          lambda u, v: np.sin(TWO_PI * u) * np.ones_like(v))
        g = Observable("y", "pullback", "scalar", lambda u, v: np.cos(TWO_PI * v))
        for n in (3, 9):
            assert phi_n(DUST, n, f, g, f, workers=2) == phi_n(DUST, n, full, g, full, workers=1)

    def test_flattened_result_raises(self):
        flat = Observable("flat", "pullback", "scalar",
                          lambda u, v: (np.cos(TWO_PI * u) * np.cos(TWO_PI * v)).ravel())
        with pytest.raises(ValueError, match="does not broadcast"):
            flat.evaluate(np.zeros((1, 7)), np.zeros((5, 1)))
        with pytest.raises(ValueError, match="does not broadcast"):
            phi_n(DUST, 3, flat, flat, flat, workers=1)

    def test_matrix_result_of_the_wrong_size_raises(self):
        """A matrix rule returns (3, ...) Bloch vectors: neither (..., 2, 2)
        matrices nor a (3,) vector that would broadcast along the last axis
        are accepted."""
        for name, rule in (("2x2", lambda u, v: np.zeros(np.shape(u) + (2, 2))),
                           ("3-vector", lambda u, v: np.array([0.0, 0.0, 1.0]))):
            p = Observable(name, "pullback", "matrix", rule, dim=2)
            with pytest.raises(ValueError, match=f"'{name}'.*does not broadcast"):
                p.evaluate(np.zeros(3), np.zeros(3))

    def test_complex_matrix_result_refused(self):
        """A rule returning complex matrices, the Hermitian form of e itself,
        is refused by name, on the engine path and in the projection check."""
        def rule(u, v):
            shape = np.broadcast_shapes(np.shape(u), np.shape(v))
            return np.broadcast_to(np.diag([1.0 + 0j, 0.0]), shape + (2, 2))

        p = Observable("complex-e", "pullback", "matrix", rule, dim=2)
        with pytest.raises(ValueError, match="'complex-e': a matrix rule returns real Bloch"):
            phi_n(DUST, 3, p, p, p, workers=1)
        with pytest.raises(ValueError, match="'complex-e': a matrix rule returns real Bloch"):
            cocycle.validate_projection(p, 3)
