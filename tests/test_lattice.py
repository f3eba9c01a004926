"""Per-tile vertex-lattice evaluation against the four-corner reference.

Every sum, pullback, subdivision or direct, is a walk over aligned tiles of
one shape: the engine places each tile's vertex lattice from the tile's
first word, evaluates each observable once per vertex, handed to the rule
as a row of u and a column of v, and reads the four corners of every
square from it.  Each task is one aligned tile, its leaves counted from
its first word.  The reference below is the per-square path the lattices
replaced: float corner coordinates of each square from every word's own
digit map (or, for subdivision cells, its own column and row), four
``evaluate`` calls per observable, then the same scalar kernel and leaf
sums, which must agree bit for bit.  For 2 x 2
Hermitian unit-trace observables, whose rules return Bloch vectors, the
reference forms the matrices and runs the complex batched-matmul formula on
them, where the engine runs the real 3-vector kernel; the two agree to
rounding.
"""

import math
from itertools import count, takewhile
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustcocycle import _kernels as K
from dustcocycle import cocycle
from dustcocycle.cocycle import (
    LEAF,
    TASK_VERTICES,
    Observable,
    _direct_source,
    _leaf_sums_for_range,
    phi_n,
    resolve_functions,
)
from dustcocycle.geometry import MAX_SQUARES_SCALAR, PRESETS, get_preset
from test_kernels import (
    bloch_matrices,
    matmul_reference,
    reference_corner_numerators,
    reference_image_bits,
)

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


class _Sum(NamedTuple):
    """A level-n sum: the engine's source, the reference's corner
    coordinates (x0, x1, y0, y1) of given words, and the word count."""

    source: cocycle._Source
    coords: Callable
    total: int


def _pullback(n):
    return _Sum(cocycle._pullback_source(n), lambda w: _pullback_coords(w, n), 4**n)


def _subdivision(n):
    return _Sum(cocycle._subdivision_source(n), lambda w: _cell_coords(w, n), 4**n)


def _direct(preset, n):
    offx, offy = preset.offset_arrays()
    return _Sum(_direct_source(preset, n), lambda w: _direct_coords(w, n, offx, offy),
                preset.nmaps**n)


def _span(case):
    """The words of one of the sum's tiles."""
    return case.source.tile.order.size


def _corner_values(case, w_lo, observables):
    """Each observable's values at the corners v0..v3 of every square of
    the tile whose first word is ``w_lo``, evaluated square by square."""
    c0, c1, d0, d1 = case.coords(np.arange(w_lo, w_lo + _span(case), dtype=np.int64))
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


def reference_leaf_sums(case, w_lo, observables):
    """Leaf sums of the scalar kernel over the tile whose first word is
    ``w_lo``, with every square's corners evaluated apart, passed
    concatenated as (v0, v1, v2, v3)."""
    f, g, h = (np.concatenate(c) for c in _corner_values(case, w_lo, observables))
    b = _span(case)
    return K.leaf_sums(K.scalar_kernel(f, g, h, cells=((0, b, 2 * b, 3 * b), b)), LEAF)


def _assert_matches_reference(case, w_lo, observables):
    np.testing.assert_array_equal(
        _leaf_sums_for_range(case.source, w_lo, observables, K.Workspace(), None),
        reference_leaf_sums(case, w_lo, observables))


def _draw_tile(draw, case):
    """The first word of any one of the sum's tiles."""
    return _span(case) * draw(st.integers(0, case.total // _span(case) - 1))


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
    """A tile of a pullback or subdivision sum and a scalar (or 2 x 2
    Hermitian unit-trace) triple, of distinct or shared observables."""
    n = draw(st.integers(0, 9))
    case = draw(st.sampled_from([_pullback, _subdivision]))(n)
    w_lo = _draw_tile(draw, case)
    if matrix:
        f, g, h = (_matrix(draw(st.lists(_terms, min_size=3, max_size=3))) for _ in range(3))
    else:
        f, g, h = (_scalar(draw(_terms)) for _ in range(3))
    share = draw(st.sampled_from(["distinct", "f=g", "f=g=h"]))
    if share != "distinct":
        g = f
        h = f if share == "f=g=h" else h
    return case, w_lo, (f, g, h)


_OBS = tuple(_scalar(t) for t in (
    [(1, 0, 1.0, 0.5)], [(0, 1, 0.3, -1.0), (2, -1, 0.7, 0.2)], [(1, 1, -0.4, 0.9)],
))


class TestLatticeMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(_cases())
    def test_leaf_sums_bit_identical(self, case):
        _assert_matches_reference(*case)

    @settings(max_examples=30, deadline=None)
    @given(_cases(matrix=True))
    def test_matrix_leaf_sums_match_matmul_reference(self, case):
        """Each leaf within 1e-13 of the sum of its squares' rounding scales."""
        case, w_lo, obs = case
        got = _leaf_sums_for_range(case.source, w_lo, obs, K.Workspace(), None)
        corners = [[bloch_matrices(x) for x in c] for c in _corner_values(case, w_lo, obs)]
        want = K.leaf_sums(matmul_reference(*corners[0], *corners[1], *corners[2]), LEAF)
        scale = K.leaf_sums(rounding_scale(*corners), LEAF).real
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("source", [_pullback, _subdivision], ids=["source0", "source1"])
    @pytest.mark.parametrize("n", [8, 9])
    def test_whole_tasks_bit_identical(self, source, n):
        case = source(n)
        assert _span(case) == TASK_VERTICES
        for w_lo in range(0, case.total, _span(case)):
            _assert_matches_reference(case, w_lo, _OBS)

    @pytest.mark.parametrize("n", [17, 18])
    def test_subdivision_ranges_on_partial_rows(self, n):
        """From n = 17 on, a subdivision tile is part of one row of 2**n
        cells: the first five tiles, among them the ones that end the first
        row and start the second, and the one that ends at the grid's top
        right cell, whose far edge is at 1, keep every value."""
        case = _subdivision(n)
        span, row = _span(case), 1 << n
        assert span == TASK_VERTICES and row in (2 * span, 4 * span)
        for w_lo in (*range(0, 5 * span, span), case.total - span):
            _assert_matches_reference(case, w_lo, _OBS)


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

    def test_task_lattices_hold_at_most_2_16_vertices(self):
        """Every task, at every level up to the square budget, evaluates a
        lattice of at most 2**16 vertices, a box's far row and column aside:
        pullback and subdivision tiles and every preset's direct tiles.  The
        largest tiles reach it, but for the boxes of 3**5 x 3**5 cells."""
        def levels(nmaps):
            return takewhile(lambda n: nmaps**n <= MAX_SQUARES_SCALAR, count())

        def vertices(tile):
            shape = np.broadcast_shapes(tile.dx.shape, tile.dy.shape)
            if len(shape) == 2:  # a box: its far row and column aside
                return (shape[0] - 1) * (shape[1] - 1)
            return math.prod(shape)

        largest = {}
        sources = [("pullback", 4, lambda n: cocycle._pullback_source(n)),
                   ("subdivision", 4, lambda n: cocycle._subdivision_source(n))]
        sources += [(name, p.nmaps, lambda n, p=p: _direct_source(p, n))
                    for name, p in sorted(PRESETS.items())]
        for name, nmaps, source in sources:
            counts = [vertices(source(n).tile) for n in levels(nmaps)]
            assert max(counts) <= TASK_VERTICES, name
            largest[name] = max(counts)
        assert largest == {"pullback": 1 << 16, "subdivision": 1 << 16, "cantor-dust": 1 << 16,
                           "sierpinski-carpet": 3**10, "full-subdivision-3": 3**10}

    @pytest.mark.parametrize("n, words", [(0, 1), (5, 1), (8, 1), (9, 4), (10, 16)])
    def test_one_digit_mapped_word_per_tile(self, monkeypatch, n, words):
        """Only each tile's first word is digit-mapped, all in one call per
        sum, at every level and worker count."""
        cocycle._pullback_tile(min(n, 8))  # the tile itself is built once per level
        mapped = _count_mapped_words(monkeypatch, "dust_image_bits")
        f = Observable("trig", "pullback", "scalar", lambda u, v: np.cos(TWO_PI * (u - v)))
        for workers in (1, 2):
            mapped.clear()
            phi_n(DUST, n, f, f, f, workers=workers)
            assert mapped == [words]


class TestDirectTiles:
    """Direct sums run on lattice tiles placed from their first word; the
    reference takes every word's corners from its own digit map."""

    @pytest.mark.parametrize("name", ["linear-xy", "sine-xy"])
    @pytest.mark.parametrize("preset, n", [(DUST, 3), (DUST, 8), (DUST, 9),
                                           (CARPET, 3), (CARPET, 5), (CARPET, 6)])
    def test_tile_leaf_sums_equal_per_square_reference(self, preset, n, name):
        obs = resolve_functions(name)[:3]
        case = _direct(preset, n)
        span = _span(case)
        assert span == preset.nmaps ** min(n, {4: 7, 8: 5}[preset.nmaps])
        for w_lo in range(0, case.total, span):
            _assert_matches_reference(case, w_lo, obs)

    def test_dust_tile_cells_come_in_morton_order(self):
        for n in (0, 1, 5, 7, 8, 9):
            k = min(n, 7)
            tile = _direct_source(DUST, n).tile
            mx, my = reference_image_bits(np.arange(4**k, dtype=np.int64), k)
            np.testing.assert_array_equal(tile.order, (my << k) + mx)
            assert tile.dx.size == tile.dy.size == 2 << k

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_quadrants_only_where_no_squares_touch(self, name):
        """A lattice of every square's near and far rows and columns
        evaluates a vertex once per square that has it: only the dust, whose
        squares share no vertices, takes it; the carpet and
        ``full-subdivision-3`` take the plain (3**k + 1)**2 box."""
        preset = PRESETS[name]
        for k in range(1, cocycle._direct_level(preset.offsets) + 1):
            tile = cocycle._direct_tile(preset.offsets, k)
            if preset is DUST:
                assert tile.dx.shape == (1, 2, 1, 1 << k)
            else:
                assert tile.dx.shape == (1, 3**k + 1) and tile.dy.shape == (3**k + 1, 1)

    @pytest.mark.parametrize("preset, n, tiles", [(DUST, 0, 1), (DUST, 9, 16),
                                                  (CARPET, 4, 1), (CARPET, 6, 8)])
    def test_one_digit_mapped_word_per_tile(self, monkeypatch, preset, n, tiles):
        """Only each tile's first word is digit-mapped, all in one call per
        sum, at every worker count."""
        _direct_source(preset, n)  # the tile itself is built once per level
        mapped = _count_mapped_words(monkeypatch, "corner_numerators")
        obs = resolve_functions("sine-xy")[:3]
        for workers in (1, 2):
            mapped.clear()
            phi_n(preset, n, *obs, workers=workers)
            assert mapped == [tiles]

    def test_full_subdivision_runs_on_tiles(self, monkeypatch):
        """9**k words are never whole leaves: each task is one 9**5-word
        tile, placed from its first word, its leaves counted from that word,
        the last one short, and its leaf sums are the per-square
        reference's."""
        obs = resolve_functions("sine-xy")[:3]
        for n in (0, 3, 4, 5, 6):
            case = _direct(FULL, n)
            assert _span(case) == 9 ** min(n, 5)
            for w_lo in range(0, case.total, _span(case)):
                _assert_matches_reference(case, w_lo, obs)
        mapped = _count_mapped_words(monkeypatch, "corner_numerators")
        for workers in (1, 2):
            mapped.clear()
            phi_n(FULL, 6, *obs, workers=workers)
            assert mapped == [9]  # one call on the first words of all 9 tiles

    @pytest.mark.parametrize("n", [6, 7])
    def test_full_subdivision_bits_equal_across_workers(self, n):
        """At n = 6 and 7, ``full-subdivision-3`` sums 9 and 81 tiles of
        9**5 words, none a whole number of leaves, with the same bits on 1,
        2 and 8 workers."""
        obs = resolve_functions("sine-xy")[:3]
        assert FULL.nmaps**n // _span(_direct(FULL, n)) == 9 ** (n - 5)
        bits = [(z.real.hex(), z.imag.hex())
                for z in (phi_n(FULL, n, *obs, workers=w) for w in (1, 2, 8))]
        assert bits[1:] == bits[:1] * 2

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_tasks_start_on_leaves(self, monkeypatch, name):
        """Every direct sum runs on tiles, and each task it builds is
        exactly one aligned tile, whose leaves start on its first word, so
        its leaf sums, and the sum, never depend on how the tasks are spread
        over workers."""
        preset = PRESETS[name]
        starts = []

        def record(source, lo, observables, ws=None, maxima=None):
            assert isinstance(source, cocycle._Source)
            assert maxima is None  # no estimate asked: the sum takes no maxima
            starts.append((lo, source.tile.order.size))
            return np.zeros(-(-source.tile.order.size // LEAF), dtype=np.complex128)

        monkeypatch.setattr(cocycle, "_leaf_sums_for_range", record)
        obs = resolve_functions("const-xy")[:3]
        for n in range(8):
            starts.clear()
            phi_n(preset, n, *obs, workers=1)
            span = preset.nmaps ** min(n, cocycle._direct_level(preset.offsets))
            assert starts == [(lo, span) for lo in range(0, preset.nmaps**n, span)]


class TestPlacement:
    """Every tile of a multi-tile sum is placed at its first word's corner,
    read from the one digit-map call the source makes per sum."""

    @pytest.mark.parametrize("kind, preset, n", [("pullback", DUST, 10), ("direct", DUST, 10),
                                                 ("direct", CARPET, 7), ("direct", FULL, 6)],
                             ids=["pullback-10", "dust-10", "carpet-7", "full-subdivision-3-6"])
    def test_place_matches_reference_loop(self, kind, preset, n):
        if kind == "pullback":
            source, mask = cocycle._pullback_source(n), (1 << n) - 1
        else:
            source, mask = _direct_source(preset, n), -1  # direct corners do not wrap
        tile = source.tile
        span = tile.order.size
        firsts = np.arange(0, preset.nmaps**n, span, dtype=np.int64)
        assert firsts.size > 1
        if kind == "pullback":
            kx, ky = reference_image_bits(firsts, n)
        else:
            kx, ky = reference_corner_numerators(firsts, n, *preset.offset_arrays())
        for t in range(firsts.size):
            x, y = source.place(t * span)
            np.testing.assert_array_equal(x, (kx[t] + tile.dx) & mask)
            np.testing.assert_array_equal(y, (ky[t] + tile.dy) & mask)


def _tiles():
    """(id, tile, words) of every tile a sum can walk: pullback m = 0..8,
    subdivision n = 0..17 and each preset's direct tiles, k = 0 up to its
    tile level."""
    for m in range(9):
        yield f"pullback-{m}", cocycle._pullback_tile(m), 4**m
    for n in range(18):
        yield f"subdivision-{n}", cocycle._subdivision_tile(n), min(4**n, TASK_VERTICES)
    for name, preset in sorted(PRESETS.items()):
        for k in range(cocycle._direct_level(preset.offsets) + 1):
            yield f"{name}-{k}", cocycle._direct_tile(preset.offsets, k), preset.nmaps**k


class TestTileOrders:
    @pytest.mark.parametrize("tile, words", [t[1:] for t in _tiles()],
                             ids=[t[0] for t in _tiles()])
    def test_order_is_safe_to_gather(self, tile, words):
        """The engine gathers each tile's values with ``mode="clip"``, which
        checks no index: every order holds one distinct lattice cell per
        word, none a padded cell, and every cell's corners lie inside the
        lattice."""
        (o0, o1, o2, o3), count = tile.cells
        shape = np.broadcast_shapes(tile.dx.shape, tile.dy.shape)
        order = tile.order
        assert order.shape == (words,) and order.dtype == np.int64
        assert np.unique(order).size == words
        assert order.min() >= 0 and order.max() < count
        assert count + max(o0, o1, o2, o3) <= math.prod(shape)
        if len(shape) == 2:  # a plain lattice: the last cell of each row is padded
            assert not (order % shape[1] == shape[1] - 1).any()
        assert not any(a.flags.writeable for a in (tile.dx, tile.dy, order))

    @pytest.mark.parametrize("tile, words", [t[1:] for t in _tiles()],
                             ids=[t[0] for t in _tiles()])
    def test_own_cells_use_every_column_and_row(self, tile, words):
        """A compact row or column is read whole, every edge of it
        (``cocycle._maxima``): the tile's own cells use every cell
        column and every cell row of its lattice, a box's (W - 1 columns,
        the padded last one aside, and H - 1 rows) and the dust quadrants'
        (w columns and h rows, each cell one of the tile's)."""
        width, height = tile.dx.shape[-1], tile.dy.shape[-2]
        if tile.dx.ndim == 2:
            width, height = width - 1, height - 1
        step = tile.dx.shape[-1]
        np.testing.assert_array_equal(np.unique(tile.order % step), np.arange(width))
        np.testing.assert_array_equal(np.unique(tile.order // step), np.arange(height))

    CACHES = (cocycle._pullback_tile, cocycle._subdivision_tile, cocycle._direct_tile)

    def test_each_tile_kept_once(self):
        """Every tile is kept, in a bounded cache, and handed out again: the
        pullback sums of every level past 8 share one 256 x 256 tile."""
        assert all(isinstance(c.cache_info().maxsize, int) for c in self.CACHES)
        assert cocycle._pullback_source(9).tile is cocycle._pullback_source(12).tile
        for n in (0, 9, 17):
            assert cocycle._subdivision_tile(n) is cocycle._subdivision_tile(n)
            assert cocycle._subdivision_source(n).tile is cocycle._subdivision_tile(n)

    def test_sums_build_each_tile_once(self, monkeypatch):
        """From cold caches, repeated sums of one layout and level, on one and
        two workers, build its tile once: the pullback tile of levels 9 and
        10, the subdivision tile of level 9 and the carpet's level-3 box."""
        built = []

        def box_tile(*args):
            built.append(args[:2])
            return box(*args)

        box = cocycle._box_tile
        monkeypatch.setattr(cocycle, "_box_tile", box_tile)
        for cache in self.CACHES:
            cache.cache_clear()
        f, g, h = resolve_functions("bott-flux")[:3]
        a, b, c = resolve_functions("const-xy")[:3]
        for workers in (1, 2, 1):
            for n in (9, 10):
                phi_n(DUST, n, f, g, h, workers=workers)
            cocycle.phi_subdivision(9, f.rule, g.rule, h.rule, workers=workers)
            phi_n(CARPET, 3, a, b, c, workers=workers)
        assert built == [(256, 256), (512, 128), (27, 27)]


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
    kind = draw(st.sampled_from(["pullback", "subdivision", "direct"]))
    n = draw(st.integers(0, 9))
    if kind == "direct":
        case = _direct(_DIRECT[draw(st.sampled_from(sorted(_DIRECT)))], n)
    else:
        case = (_pullback if kind == "pullback" else _subdivision)(n)
    w_lo = _draw_tile(draw, case)
    rules = [_real_trig(draw(_terms)) for _ in range(3)]
    return case.source, "direct" if kind == "direct" else "pullback", w_lo, rules


class TestRealValuesStayReal:
    """Real rules run float64 temporaries; their leaf sums must equal those of
    the same rules cast to complex, which run the complex path throughout."""

    @settings(max_examples=60, deadline=None)
    @given(_real_cases())
    def test_leaf_sums_equal_complex_cast(self, case):
        source, mode, w_lo, rules = case
        real = tuple(Observable("re", mode, "scalar", r) for r in rules)
        cplx = tuple(Observable("c", mode, "scalar", _as_complex(r)) for r in rules)
        assert real[0].evaluate(np.zeros(3), np.zeros(3)).dtype == np.float64
        got = _leaf_sums_for_range(source, w_lo, real, K.Workspace(), None)
        want = _leaf_sums_for_range(source, w_lo, cplx, K.Workspace(), None)
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


class TestZeroEdgeDetection:
    """A scalar rule of one coordinate reaches the engine compact, as the
    row or column it returned; its shape, that of the tile's ``dx`` or
    ``dy``, names the edges that are exact zeros, a row g and a column h go
    to the kernel as they are, and the sums keep every bit of the same sums
    on materialized flat lattices."""

    RULES = {
        "u only": (lambda u, v: np.sin(TWO_PI * u), "row"),
        "v only": (lambda u, v: np.cos(TWO_PI * v), "column"),
        "complex u only": (lambda u, v: np.exp(1j * TWO_PI * u), "row"),
        "constant": (lambda u, v: np.float64(0.5), "constant"),
        "both": (lambda u, v: u * v, "full"),
        "u only, full": (lambda u, v: np.sin(TWO_PI * u) * np.ones_like(v), "full"),
    }
    SOURCES = {
        "pullback n=3": lambda: cocycle._pullback_source(3),
        "pullback n=9": lambda: cocycle._pullback_source(9),
        "subdivision n=9": lambda: cocycle._subdivision_source(9),
        "dust quadrants": lambda: _direct_source(DUST, 4),
        "carpet box": lambda: _direct_source(CARPET, 3),
    }

    @staticmethod
    def lattice_size(tile):
        return math.prod(np.broadcast_shapes(tile.dx.shape, tile.dy.shape))

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_patterns_read_from_shapes(self, source):
        """Zero edges are read from the shape of the values as the rule
        returned them, which a lone observable (the Lipschitz walk's) keeps
        compact, the rule's own array; a full (C-contiguous) value names
        none and is flattened in place."""
        src = self.SOURCES[source]()
        tile = src.tile
        mode = "direct" if "quadrants" in source or "box" in source else "pullback"
        shapes = {"row": tile.dx.shape, "column": tile.dy.shape,
                  "constant": (1,) * tile.dx.ndim, "full": (self.lattice_size(tile),)}
        returned = {}

        def recorded(name, rule):
            def fn(u, v):
                returned[name] = rule(u, v)
                return returned[name]

            return fn

        for name, (rule, pattern) in self.RULES.items():
            obs = Observable(name, mode, "scalar", recorded(name, rule))
            (a,) = cocycle._operands(src, 0, (obs,), K.Workspace(), None)
            assert a.shape == shapes[pattern], name
            assert np.shares_memory(a, returned[name]) or np.ndim(returned[name]) == 0
            assert a.ndim == (1 if pattern == "full" else tile.dx.ndim)
            assert a.size == np.size(returned[name])

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_only_a_row_g_and_a_column_h_stay_compact(self, source):
        """The kernel takes a finite row g and column h as the rule returned
        them, in the shapes of the tile's coordinates; any other compact
        value is copied into the workspace as a flat lattice, for the
        general path, a repeated one once."""
        src = self.SOURCES[source]()
        tile = src.tile
        mode = "direct" if "quadrants" in source or "box" in source else "pullback"
        returned = {}

        def recorded(name, rule):
            def fn(u, v):
                returned[name] = rule(u, v)
                return returned[name]

            return fn

        obs = {name: Observable(name, mode, "scalar", recorded(name, rule))
               for name, (rule, _) in self.RULES.items()}
        for names, compact in (
            (("both", "u only", "v only"), True),
            (("u only", "u only", "v only"), True),
            (("both", "both", "v only"), False),
            (("both", "u only", "u only"), False),
            (("both", "constant", "v only"), False),
        ):
            ws = K.Workspace()
            f, g, h = cocycle._operands(src, 0, [obs[n] for n in names], ws, None)
            assert f.ndim == 1 and f.size == self.lattice_size(tile)
            if compact:
                assert g.shape == tile.dx.shape and np.shares_memory(g, returned[names[1]])
                assert h.shape == tile.dy.shape and np.shares_memory(h, returned[names[2]])
            else:
                for i, a in enumerate((g, h), 1):
                    assert a.ndim == 1 and a.size == f.size
                    if self.RULES[names[i]][1] != "full":  # a repeated value is copied once
                        first = names.index(names[i])
                        assert np.shares_memory(a, ws.take(f"lattice.{first}", a.shape, a.dtype))
                assert (h is g) == (names[2] == names[1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_stays_compact_and_is_refused(self, monkeypatch, bad):
        """The kernel's path follows its operands' shapes, not their values:
        a row and a column that are not finite at a vertex of a square still
        reach the separable path compact, and the level's sum, not finite
        on either path, is refused, with no warning."""
        src = cocycle._pullback_source(4)
        returned = []

        def recorded(rule):
            return lambda u, v: returned.append(rule(u, v)) or returned[-1]

        row = Observable("u only", "pullback", "scalar", recorded(
            lambda u, v: np.where(u == 0.5, bad, np.sin(TWO_PI * u))))
        col = Observable("v only", "pullback", "scalar", recorded(
            lambda u, v: np.where(v == 0.25, bad, np.cos(TWO_PI * v))))
        f = Observable("uv", "pullback", "scalar", lambda u, v: u * v)
        _, g, h = cocycle._operands(src, 0, (f, row, col), K.Workspace(), None)
        assert g.shape == src.tile.dx.shape and np.shares_memory(g, returned[0])
        assert h.shape == src.tile.dy.shape and np.shares_memory(h, returned[1])
        seen = []
        kernel = K.scalar_kernel

        def recorded_kernel(f, g, h, **kwargs):
            seen.append((g.shape, h.shape))
            return kernel(f, g, h, **kwargs)

        monkeypatch.setattr(K, "scalar_kernel", recorded_kernel)
        refused = r"the level-4 sum over \('uv', 'u only', 'v only'\) is .*, not finite"
        with pytest.raises(ValueError, match=refused):
            phi_n(DUST, 4, f, row, col, workers=1)
        assert seen == [(src.tile.dx.shape, src.tile.dy.shape)]

    SUMS = [(name, "pullback") for name in ("bott-flux", "stokes-null", "mixed-mode",
                                            "double-flux")]
    SUMS += [("bott-flux", "subdivision")]
    SUMS += [(name, preset) for name in ("const-xy", "sine-xy")
             for preset in ("cantor-dust", "sierpinski-carpet", "full-subdivision-3")]

    @staticmethod
    def phi(triple, where, n):
        f, g, h = triple
        if where == "subdivision":
            return cocycle.phi_subdivision(n, f.rule, g.rule, h.rule, workers=1)
        if where == "pullback":
            return phi_n(DUST, n, f, g, h, workers=1)
        return phi_n(get_preset(where), min(n, 5), f, g, h, workers=1)

    @staticmethod
    def materialized(obs):
        """``obs`` with a rule that returns its values at full shape,
        C-contiguous, so the engine reads them as a flat lattice."""
        def rule(u, v):
            shape = np.broadcast_shapes(np.shape(u), np.shape(v))
            return np.ascontiguousarray(np.broadcast_to(obs.rule(u, v), shape))

        return Observable(obs.name, obs.mode, obs.kind, rule)

    @pytest.mark.parametrize("name, where", SUMS)
    def test_sums_equal_general_path(self, monkeypatch, name, where):
        """Every sum of the catalogue's and the direct presets' triples, at
        n = 0..8, equals the same sum on materialized flat lattices; the
        compact ones ran through ``K.scalar_kernel`` with a row g and a
        column h as they are, but mixed-mode's, whose column h has a full
        partner g, copied flat for the general path."""
        triple = resolve_functions(name)[:3]
        flat = tuple(self.materialized(o) for o in triple)
        kernel = K.scalar_kernel
        seen = []

        def recorded(f, g, h, **kwargs):
            seen.append(g.ndim > 1)
            return kernel(f, g, h, **kwargs)

        monkeypatch.setattr(K, "scalar_kernel", recorded)
        for n in range(9):
            want = self.phi(flat, where, n)
            assert not any(seen)
            assert self.phi(triple, where, n) == want, n
            assert seen.pop() == (name != "mixed-mode")
            seen.clear()
