"""The combinatorial integration engine: closed forms, identities, decay."""

import math
import re
import signal
import sys
import threading
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from dustcocycle import cocycle
from dustcocycle.cocycle import (
    Observable,
    convergence_table,
    cyclicity_residual,
    direct_scalar,
    estimate_lipschitz,
    hochschild_residual,
    lipschitz_bound,
    pairing_n,
    phi_n,
    phi_subdivision,
    pullback_projection,
    pullback_scalar,
    resolve_functions,
    validate_projection,
)
from dustcocycle.fredholm import VertexValues, kernel_trace_oracle
from dustcocycle.geometry import BudgetError, IfsPreset, enumerate_squares, get_preset, vertices
from dustcocycle.oracle import SMOOTH_PRESETS, TorusFunction, bott_projection, get_smooth_preset
from reference import dust_image, floats
from test_oracle import bump_mix_phi, pauli_pack

DUST = get_preset("cantor-dust")
CARPET = get_preset("sierpinski-carpet")
FULL = get_preset("full-subdivision-3")


def brute_force_phi(preset, n, fns, pullback):
    """Independent oracle: enumerate squares, evaluate, full matrix trace."""
    total = 0.0 + 0.0j
    for sq in enumerate_squares(preset, n):
        vals = []
        for fn in fns:
            per_vertex = []
            for v in vertices(sq):
                if pullback:
                    u, w = floats(dust_image(v))
                else:
                    u, w = floats(v)
                per_vertex.append(complex(fn(np.float64(u), np.float64(w))))
            vals.append(VertexValues(*per_vertex))
        total += kernel_trace_oracle(*vals)
    return total


class TestClosedForms:
    def test_riemann_triple_closed_form(self):
        f, g, h, _, _ = resolve_functions("const-xy")
        for n in range(1, 7):
            want = 2.0 * (4.0 / 9.0) ** n
            got = phi_n(DUST, n, f, g, h, workers=1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_riemann_triple_matches_brute_force(self):
        f, g, h, _, _ = resolve_functions("const-xy")
        fns = [o.rule for o in (f, g, h)]
        for n in range(0, 4):
            got = phi_n(DUST, n, f, g, h, workers=1)
            want = brute_force_phi(DUST, n, fns, pullback=False)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_pullback_matches_brute_force(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        fns = [o.rule for o in (f, g, h)]
        for n in range(0, 4):
            got = phi_n(DUST, n, f, g, h, workers=1)
            want = brute_force_phi(DUST, n, fns, pullback=True)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matrix_engine_matches_brute_force(self):
        p = pullback_projection(bott_projection(1))
        for n in range(0, 3):
            got = phi_n(DUST, n, p, p, p, workers=1)
            want = 0j
            for sq in enumerate_squares(DUST, n):
                vals = VertexValues(
                    *(pauli_pack(p.rule(*np.asarray(floats(dust_image(v)))))
                      for v in vertices(sq))
                )
                want += kernel_trace_oracle(vals, vals, vals)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_constant_g_vanishes_exactly(self):
        f, _, h, _, _ = resolve_functions("const-xy")
        g = direct_scalar(lambda u, v: np.full_like(np.asarray(u, dtype=np.float64), 7.0), "7")
        assert phi_n(DUST, 5, f, g, h, workers=2) == 0j

    def test_full_subdivision_is_plain_riemann(self):
        # all nine maps tile the square: the (1, x, y) sum is exactly 2 per level
        f, g, h, _, _ = resolve_functions("const-xy")
        for n in range(0, 5):
            got = phi_n(FULL, n, f, g, h, workers=1)
            assert got == pytest.approx(2.0, rel=1e-12)

    def test_carpet_direct_mode_runs(self):
        f, g, h, _, _ = resolve_functions("const-xy")
        got = phi_n(CARPET, 3, f, g, h, workers=1)
        assert got == pytest.approx(2.0 * (8.0 / 9.0) ** 3, rel=1e-12)


def _sinc(x):
    return math.sin(x) / x


# phi_n of the band-limited pullbacks at level n: the engine's sum over the
# level-n dyadic squares is the central-difference stencil of step 1 / 2^n
# (see band_stencil), which scales the derivative of a mode of frequency k by
# sinc(2 pi k / 2^n), while the mean over the 2^n grid of a product of modes
# below 2^n is exact; double-flux aliases at n = 2, so the forms hold from 3
BAND_LIMITED = {
    "bott-flux": lambda n: 2.0 * math.pi**2 * _sinc(2.0 * math.pi / 2**n) ** 2,
    "mixed-mode": lambda n: 2.0 * math.pi**2 * _sinc(2.0 * math.pi / 2**n) ** 2,
    "double-flux": lambda n: 4.0 * math.pi**2 * _sinc(4.0 * math.pi / 2**n)
    * _sinc(2.0 * math.pi / 2**n),
    "stokes-null": lambda n: 0.0,
}
BAND_LEVELS = range(3, 12)
ULPS = 8 * np.finfo(np.float64).eps


def translated_triple(name, seed):
    """A catalogue triple's rules moved on the torus by a seed-drawn (a, b),
    unmoved for seed None; a rule of one coordinate stays a row or column."""
    sp = get_smooth_preset(name)
    a, b = (0.0, 0.0) if seed is None else np.random.default_rng(seed).uniform(0.0, 1.0, 2)
    return tuple((lambda fn: lambda u, v: fn(u + a, v + b))(tf.fn) for tf in (sp.f, sp.g, sp.h))


@lru_cache(maxsize=None)
def band_phi(name, seed, n, workers):
    obs = (pullback_scalar(fn) for fn in translated_triple(name, seed))
    return phi_n(DUST, n, *obs, workers=workers)


def band_stencil(f, g, h, n):
    """2 mean(f (D_u g D_v h - D_v g D_u h)) over the vertices k / 2^n, with
    D the central difference of step 1 / 2^n: what phi_n sums, derived by
    hand rather than through squares, words or digit maps."""
    N = 2**n
    d = 1.0 / N
    u = (np.arange(N) / N)[:, None]
    v = (np.arange(N) / N)[None, :]

    def diff(fn, du, dv):
        return (fn(u + du, v + dv) - fn(u - du, v - dv)) / (2.0 * d)

    w = f(u, v) * (diff(g, d, 0.0) * diff(h, 0.0, d) - diff(g, 0.0, d) * diff(h, d, 0.0))
    return 2.0 * np.mean(np.broadcast_to(w, (N, N)))


def assert_band_close(got, want, n, scale=None):
    """Within 8 ulps of ``scale`` (default ``want``), or 1e-14 when that is 0."""
    scale = want if scale is None else scale
    tol = ULPS * abs(scale) if scale else 1e-14
    assert abs(got - want) <= tol, (n, got, want)


class TestBandLimitedLevels:
    """Every level of a band-limited pullback equals its closed form to
    rounding, at either worker count and wherever the triple sits on the
    torus (n = 11 unmoved only, to keep the suite's time down)."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    @pytest.mark.parametrize("name", sorted(BAND_LIMITED))
    def test_per_level_closed_form(self, name, seed, workers):
        for n in BAND_LEVELS if seed is None else BAND_LEVELS[:-1]:
            got = band_phi(name, seed, n, workers)
            assert got.imag == 0.0
            assert_band_close(got.real, BAND_LIMITED[name](n), n)

    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("name", sorted(BAND_LIMITED))
    def test_stencil_is_the_closed_form_and_phi(self, name, seed):
        for n in range(3, 11):
            st, want = band_stencil(*translated_triple(name, seed), n), BAND_LIMITED[name](n)
            assert_band_close(st, want, n)
            assert_band_close(band_phi(name, seed, n, 1).real, st, n, scale=want)

    def test_stencil_is_not_phi_off_the_band(self):
        """On the full-spectrum bump-mix the stencil and phi_n part (both
        tend to the same integral): the equalities above are not vacuous."""
        sp = get_smooth_preset("bump-mix")
        phi = bump_mix_phi(10)
        st = band_stencil(sp.f.fn, sp.g.fn, sp.h.fn, 10)
        assert abs(st - phi.real) / abs(phi) > 1e-4


class TestSubdivisionIdentity:
    @pytest.mark.parametrize("name", ["bott-flux", "stokes-null", "mixed-mode", "double-flux"])
    def test_pullback_equals_subdivision(self, name):
        f, g, h, _, _ = resolve_functions(name)
        sp = get_smooth_preset(name)
        for n in range(0, 9):
            a = phi_n(DUST, n, f, g, h, workers=2)
            b = phi_subdivision(n, sp.f, sp.g, sp.h, workers=2)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_coordinate_functions_give_two(self):
        one = lambda u, v: np.ones_like(np.asarray(u, dtype=np.float64))
        uu = lambda u, v: np.asarray(u, dtype=np.float64) * np.ones_like(np.asarray(v, dtype=np.float64))
        vv = lambda u, v: np.asarray(v, dtype=np.float64) * np.ones_like(np.asarray(u, dtype=np.float64))
        for n in range(0, 7):
            assert phi_subdivision(n, one, uu, vv, workers=1) == pytest.approx(2.0, rel=1e-13)

    def test_equal_arguments_decay(self):
        # band-limited: lattice-exact zero; full-spectrum: ~2x decay per level
        sp = get_smooth_preset("bott-flux")
        assert abs(phi_subdivision(6, sp.f, sp.g, sp.g, workers=1)) <= 1e-10
        bp = SMOOTH_PRESETS["bump-mix"]
        vals = {n: abs(phi_subdivision(n, bp.f, bp.g, bp.g, workers=1)) for n in range(4, 9)}
        c = max(vals[n] * 2**n for n in range(4, 7))
        for n in (7, 8):
            assert vals[n] <= 1.5 * c * 2.0**-n
        # the pullback form obeys the same fitted bound (termwise equal sums)
        f, g, _, _, _ = resolve_functions("bump-mix")
        assert abs(phi_n(DUST, 8, f, g, g, workers=2)) <= 1.5 * c * 2.0**-8


class TestDeterminism:
    def test_bit_identical_across_workers(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        vals = {w: phi_n(DUST, 7, f, g, h, workers=w) for w in (1, 2, 8)}
        assert vals[1] == vals[2] == vals[8]


class TestTrilinearity:
    def test_each_slot_linear(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        alpha = 1.3 - 0.4j
        scaled = Observable("a*g", g.mode, g.kind, lambda u, v: alpha * g.rule(u, v))
        lhs = phi_n(DUST, 5, f, scaled, h, workers=1)
        rhs = alpha * phi_n(DUST, 5, f, g, h, workers=1)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_additivity(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        f2 = pullback_scalar(get_smooth_preset("mixed-mode").f)
        both = Observable("f+f2", f.mode, f.kind, lambda u, v: f.rule(u, v) + f2.rule(u, v))
        lhs = phi_n(DUST, 5, both, g, h, workers=1)
        rhs = phi_n(DUST, 5, f, g, h, workers=1) + phi_n(DUST, 5, f2, g, h, workers=1)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestLipschitzDecay:
    @pytest.mark.parametrize("name", ["const-xy", "linear-xy", "sine-xy"])
    def test_bound_holds(self, name):
        f, g, h, _, _ = resolve_functions(name)
        for n in range(1, 8):
            val = abs(phi_n(DUST, n, f, g, h, workers=2))
            sup_f, _ = estimate_lipschitz(DUST, n, f)
            _, lip_g = estimate_lipschitz(DUST, n, g)
            _, lip_h = estimate_lipschitz(DUST, n, h)
            assert val <= lipschitz_bound(DUST, n, sup_f, lip_g, lip_h)

    def test_estimates_for_coordinates(self):
        _, g, _, _, _ = resolve_functions("const-xy")
        sup, lip = estimate_lipschitz(DUST, 4, g)
        assert sup == pytest.approx(1.0, abs=1e-12)
        assert lip == pytest.approx(1.0, rel=1e-12)

    # peaks, and is steepest, inside the carpet's central hole
    HOLE_BUMP = direct_scalar(
        lambda u, v: np.exp(-60.0 * ((np.asarray(u) - 0.5) ** 2 + (np.asarray(v) - 0.5) ** 2)),
        "hole-bump")
    # each steepest on one kind of edge only: top, bottom, right, left
    EDGE_PROBES = tuple(
        direct_scalar(rule, name) for rule, name in (
            (lambda u, v: u * (1.0 + v), "x(1+y)"),
            (lambda u, v: u * (2.0 - v), "x(2-y)"),
            (lambda u, v: (1.0 + u) * v, "(1+x)y"),
            (lambda u, v: (2.0 - u) * v, "(2-x)y"),
        ))

    @staticmethod
    @lru_cache(maxsize=4)
    def square_corners(preset, n):
        """The float corners v0..v3 of every level-n square, from geometry's
        own enumeration, read-only: enumerated once per level."""
        corners = np.array([[floats(v) for v in vertices(sq)]
                            for sq in enumerate_squares(preset, n)])
        corners.flags.writeable = False
        return corners

    @classmethod
    def brute_force(cls, preset, n, obs):
        """(sup |obs|, largest edge difference / 3**-n) over the vertices and
        edges of every level-n square."""
        corners = cls.square_corners(preset, n)
        vals = obs.evaluate(corners[..., 0], corners[..., 1])  # squares x (v0..v3)
        edges = np.abs(np.roll(vals, -1, axis=1) - vals)  # v0v1, v1v2, v2v3, v3v0
        return np.abs(vals).max(), edges.max() / 3.0**-n

    @pytest.mark.parametrize("preset, levels", [(CARPET, range(1, 5)), (DUST, range(1, 6)),
                                                (FULL, range(1, 6))])
    def test_estimates_equal_brute_force(self, preset, levels):
        """Every edge of every level-n square counts, and only the vertices
        and edges of those squares: on the carpet, none of its holes'."""
        f, g, h, _, _ = resolve_functions("sine-xy")
        for n in levels:
            for obs in (f, g, h, self.HOLE_BUMP, *self.EDGE_PROBES):
                assert estimate_lipschitz(preset, n, obs) == self.brute_force(preset, n, obs)

    # steep across a lattice row: a wrap from a row's last vertex to the
    # next row's first would be an "edge" of size 1e6
    ROW_WRAP = direct_scalar(lambda u, v: 1e6 * np.asarray(u), "1e6 x")

    @pytest.mark.parametrize("preset, levels", [(CARPET, range(0, 5)), (DUST, range(0, 6)),
                                                (FULL, range(0, 6))])
    def test_row_wrap_never_counts(self, preset, levels):
        """The padded cell at the end of each lattice row is never read as a
        square: its x-edge, which wraps into the next row, does not count."""
        for n in levels:
            got = estimate_lipschitz(preset, n, self.ROW_WRAP)
            assert got == self.brute_force(preset, n, self.ROW_WRAP)
            assert got[1] == pytest.approx(1e6, rel=1e-6)

    def test_hole_bump_sees_the_holes(self):
        """Over the whole vertex grid, holes included, the bump's sup and
        Lipschitz estimate are larger than over the carpet's own squares."""
        for n in range(2, 5):
            grid = np.arange(3**n + 1) / float(3**n)
            a = self.HOLE_BUMP.evaluate(grid[None, :], grid[:, None])
            lip = max(np.abs(np.diff(a, axis=0)).max(), np.abs(np.diff(a, axis=1)).max())
            sup_sq, lip_sq = self.brute_force(CARPET, n, self.HOLE_BUMP)
            assert a.max() > sup_sq and lip / 3.0**-n > lip_sq

    def test_negative_level_refused(self):
        f, _, _, _, _ = resolve_functions("const-xy")
        for preset in (DUST, CARPET, FULL):
            with pytest.raises(ValueError, match="level must be >= 0"):
                estimate_lipschitz(preset, -1, f)

    # NaN at the level-n vertices with x > 1/2 and y < 1/5; inf along x > 0.9
    NAN_CORNER = direct_scalar(
        lambda u, v: np.where((np.asarray(u) > 0.5) & (np.asarray(v) < 0.2), np.nan, u + v),
        "nan-corner")
    INF_EDGE = direct_scalar(lambda u, v: np.where(np.asarray(u) > 0.9, np.inf, u * v), "inf-edge")

    @pytest.mark.parametrize("preset, n", [(DUST, 3), (CARPET, 2), (FULL, 2)])
    @pytest.mark.parametrize("obs", [NAN_CORNER, INF_EDGE], ids=lambda o: o.name)
    def test_non_finite_values_refused(self, preset, n, obs):
        """A NaN or inf vertex value would give a finite, wrong estimate
        (Python's max(0.0, nan) is 0.0): it raises, naming the observable."""
        with pytest.raises(ValueError, match=f"observable '{obs.name}' is not finite"):
            estimate_lipschitz(preset, n, obs)

    @pytest.mark.parametrize("preset, n", [(DUST, 3), (CARPET, 2), (FULL, 2)])
    @pytest.mark.parametrize("obs", [NAN_CORNER, INF_EDGE], ids=lambda o: o.name)
    def test_non_finite_values_refused_in_a_table(self, preset, n, obs):
        """In a Lipschitz table each level's sum runs before its estimates,
        and a NaN or inf value makes the sum raise, naming the triple and
        the level, before any estimate.  It leaves no maxima to read back,
        so an estimate asked for anyway walks the tiles and raises too."""
        f, _, h, _, _ = resolve_functions("linear-xy")
        refused = re.escape(f"the level-{n} sum over ('x+y', '{obs.name}', 'y') is ")
        with pytest.raises(ValueError, match=refused):
            phi_n(preset, n, f, obs, h, workers=1)
        assert cocycle._last_direct is None
        with pytest.raises(ValueError, match=f"observable '{obs.name}' is not finite"):
            estimate_lipschitz(preset, n, obs)

    def test_non_finite_values_in_a_carpet_hole_do_not_count(self):
        """Only the vertices of the carpet's own squares are read: a NaN in
        its central hole, at no level-2 vertex, is not refused."""
        hole = direct_scalar(
            lambda u, v: np.where((np.abs(np.asarray(u) - 0.5) < 0.1)
                                  & (np.abs(np.asarray(v) - 0.5) < 0.1), np.nan, u * v),
            "nan-in-hole")
        assert estimate_lipschitz(CARPET, 2, hole) == self.brute_force(CARPET, 2, hole)


def counted_triple(name, calls):
    """The named direct triple, each rule appending its name to ``calls``
    when evaluated."""
    return tuple(
        direct_scalar(lambda u, v, o=o: calls.append(o.name) or o.rule(u, v), o.name)
        for o in resolve_functions(name)[:3]
    )


def corner_values(preset, n, obs):
    """``obs`` at the corners v0..v3 of every level-n square, shape (4, N),
    the corners read digit by digit from the word indices, coarse first,
    apart from the engine's tiles and digit maps."""
    words = np.arange(preset.nmaps**n, dtype=np.int64)
    offx, offy = preset.offset_arrays()
    kx, ky = np.zeros_like(words), np.zeros_like(words)
    for j in range(n):
        d = words // preset.nmaps ** (n - 1 - j) % preset.nmaps
        kx, ky = 3 * kx + offx[d], 3 * ky + offy[d]
    den = float(3**n)
    return np.stack([obs.evaluate((kx + a) / den, (ky + b) / den)
                     for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))])


def brute_force_lipschitz(preset, n, obs):
    """(sup |obs|, largest edge difference / 3**-n) over every level-n
    square, from :func:`corner_values`."""
    vals = corner_values(preset, n, obs)
    edges = np.abs(np.roll(vals, -1, axis=0) - vals)  # v0v1, v1v2, v2v3, v3v0
    return np.abs(vals).max(), edges.max() / 3.0**-n


def table_level(preset, n, triple, workers=1):
    """Level n of a Lipschitz table, as `dustcocycle lipschitz` computes it:
    phi_n over the triple, then each observable's estimate."""
    val = phi_n(preset, n, *triple, workers=workers)
    return val, [estimate_lipschitz(preset, n, o) for o in triple]


class TestLipschitzInOnePass:
    """In a Lipschitz table, each level's phi_n takes its observables' sup
    and edge maxima from the lattices its tasks evaluate, and the estimates
    that follow read them back, evaluating no rule; any other observable,
    level, preset or sum walks the tiles again, and a sum outside a table
    takes no maxima."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("preset, n", [(DUST, 9), (DUST, 10), (CARPET, 5), (CARPET, 6),
                                           (FULL, 5)], ids=lambda x: getattr(x, "name", x))
    def test_pass_equals_walk_and_brute_force(self, preset, n, workers):
        calls = []
        triple = counted_triple("linear-xy" if preset is DUST else "sine-xy", calls)
        table_level(preset, n - 1, triple, workers)
        phi_n(preset, n, *triple, workers=workers)
        calls.clear()
        got = [estimate_lipschitz(preset, n, o) for o in triple]
        assert calls == []
        for obs, estimate in zip(triple, got):
            assert estimate == estimate_lipschitz(preset, n, replace(obs))  # walks
            assert estimate == brute_force_lipschitz(preset, n, obs)

    def test_repeated_observable(self):
        """A triple that repeats an observable takes its maxima once, and
        reads them back for each place."""
        calls = []
        f, g, _ = counted_triple("sine-xy", calls)
        table_level(CARPET, 2, (f, g, g))
        calls.clear()
        phi_n(CARPET, 3, f, g, g, workers=1)
        assert calls == [f.name, g.name]  # one tile, g evaluated once
        calls.clear()
        got = estimate_lipschitz(CARPET, 3, g)
        assert calls == []
        assert got == brute_force_lipschitz(CARPET, 3, g)

    @pytest.mark.parametrize("case", ["observable", "level", "preset", "pullback",
                                      "subdivision", "matrix"])
    def test_record_read_only_for_its_own_sum(self, case):
        """After phi_n(DUST, 5) of a table, its maxima are not read for an
        equal but other observable object, another level or preset, or once
        a pullback, subdivision or matrix sum has run: the tiles are walked
        again, to the same values."""
        calls = []
        triple = counted_triple("linear-xy", calls)
        table_level(DUST, 4, triple)
        phi_n(DUST, 5, *triple, workers=1)
        g = replace(triple[1]) if case == "observable" else triple[1]
        preset, n = {"level": (DUST, 4), "preset": (CARPET, 5)}.get(case, (DUST, 5))
        bott = resolve_functions("bott-flux")[:3]
        if case == "pullback":
            phi_n(DUST, 3, *bott, workers=1)
        elif case == "subdivision":
            phi_subdivision(3, *(o.rule for o in bott), workers=1)
        elif case == "matrix":
            pairing_n(DUST, 3, pullback_projection(bott_projection(1)), workers=1)
        calls.clear()
        got = estimate_lipschitz(preset, n, g)
        assert calls == ["x"]  # one tile
        assert got == brute_force_lipschitz(preset, n, g)

    def test_maxima_taken_only_in_a_table(self, monkeypatch):
        """A direct sum takes the maxima only over the triple of the last
        sum, after an estimate was asked about that one: sums outside a
        table (a convergence table, the residuals, a new triple, or a sum
        with no estimate before it) pay nothing for them."""
        taken = []
        maxima = cocycle._maxima
        monkeypatch.setattr(cocycle, "_maxima", lambda *args: taken.append(1) or maxima(*args))
        f, g, h, _, _ = resolve_functions("sine-xy")
        for preset in (DUST, CARPET, FULL):
            convergence_table(preset, [1, 2, 3], f, g, h, workers=2)
            cyclicity_residual(preset, 3, f, g, h, workers=1)
            hochschild_residual(preset, 2, f, g, h, f, workers=1)
        assert taken == []
        table_level(DUST, 3, (f, g, h))  # its estimates walk, through _maxima
        taken.clear()
        phi_n(DUST, 4, f, g, h, workers=1)
        assert len(taken) == 3  # one tile, three observables
        phi_n(DUST, 5, f, g, h, workers=1)  # no estimate between
        phi_n(DUST, 6, f, g, h, workers=1)
        assert len(taken) == 3
        estimate_lipschitz(DUST, 6, g)
        taken.clear()
        phi_n(DUST, 6, f, h, g, workers=1)  # another triple
        assert taken == []


class TestResiduals:
    def test_unit_argument_telescopes_exactly(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        one = pullback_scalar(
            lambda u, v: np.ones_like(np.asarray(u, dtype=np.float64)), name="one"
        )
        assert hochschild_residual(DUST, 4, f, one, g, h, workers=1) == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_unit_front_factor_telescopes_at_every_level(self, n, workers):
        # with f = 1 each cell contributes an exact difference of g dh around
        # its boundary; on the closed torus the sum cancels to rounding
        f, g, h, _, _ = resolve_functions("stokes-null")
        assert abs(phi_n(DUST, n, f, g, h, workers=workers)) <= 1e-13

    def test_identical_arguments_cyclic_exactly(self):
        f, _, _, _, _ = resolve_functions("bott-flux")
        assert cyclicity_residual(DUST, 4, f, f, f, workers=1) == 0.0

    def test_band_limited_triples_are_lattice_exact(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        for n in (3, 5):
            assert cyclicity_residual(DUST, n, f, g, h, workers=2) <= 1e-12

    def test_full_spectrum_residuals_decay(self):
        f, g, h, _, _ = resolve_functions("bump-mix")
        cyc = {n: cyclicity_residual(DUST, n, f, g, h, workers=2) for n in (4, 8)}
        hoch = {n: hochschild_residual(DUST, n, f, g, h, f, workers=2) for n in (4, 8)}
        assert cyc[8] < cyc[4] / 4
        assert hoch[8] < hoch[4] / 4


def nan_off_grid():
    """bott-1 with n3 NaN at the vertex images whose u is an odd multiple of
    1/128: none is on the level-6 grid the projection check sees, every
    level-7 pullback task holds some."""
    bott = bott_projection(1)

    def rule(u, v):
        n = bott(u, v)
        n[2][np.broadcast_to(np.asarray(u) * 128 % 2 == 1, n.shape[1:])] = np.nan
        return n

    return Observable("bott-1-nan", "pullback", "matrix", rule, dim=2)


class TestMatrixKind:
    """The engine's matrix kind is 2 x 2 Hermitian with unit trace."""

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_only_two_by_two(self, dim):
        with pytest.raises(ValueError, match="2 x 2"):
            Observable("p", "pullback", "matrix", bott_projection(1), dim=dim)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_scalar_dim_is_zero(self, dim):
        """The kind fixes the dimension: a scalar observable of dim 5 is
        refused when it is made, not when its triple is summed."""
        with pytest.raises(ValueError, match="scalar observables have dim=0"):
            Observable("x", "direct", "scalar", lambda u, v: u, dim=dim)

    def test_matrix_products_refused(self):
        p = pullback_projection(bott_projection(1))
        f, _, _, _, _ = resolve_functions("bott-flux")
        for a, b in ((p, p), (p, f), (f, p)):
            with pytest.raises(ValueError, match="only scalar observables multiply"):
                a * b
        assert (f * f).kind == "scalar"

    @pytest.mark.parametrize("defect", ["nan"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_off_grid_defect_rejected_by_the_engine(self, defect, workers):
        p = nan_off_grid()
        validate_projection(p, 7)  # the level-6 grid misses every broken vertex
        assert pairing_n(DUST, 6, p, workers=workers).real == pytest.approx(2.0, abs=0.05)
        refused = f"'bott-1-{defect}' is not finite at every vertex"
        with pytest.raises(ValueError, match=refused):
            pairing_n(DUST, 7, p, workers=workers)
        with pytest.raises(ValueError, match=refused):
            phi_n(DUST, 9, pullback_projection(bott_projection(1)), p, p, workers=workers)

    def test_direct_corner_values_checked(self):
        def rule(u, v):
            n = np.zeros((3,) + np.shape(u))
            n[2] = np.where(np.asarray(u) > 0.5, np.inf, 1.0)
            return n

        bad = Observable("inf-right", "direct", "matrix", rule, dim=2)
        with pytest.raises(ValueError, match="'inf-right' is not finite"):
            phi_n(DUST, 2, bad, bad, bad, workers=1)

    def test_direct_bloch_field_matches_brute_force(self):
        """A direct-mode field (I + n . sigma) / 2 with n = (sin x, cos y, x y),
        not of unit length, against the matrix oracle square by square."""
        def rule(u, v):
            u, v = np.broadcast_arrays(np.asarray(u, dtype=np.float64),
                                       np.asarray(v, dtype=np.float64))
            return np.stack([np.sin(u), np.cos(v), u * v])

        p = Observable("bloch-xy", "direct", "matrix", rule, dim=2)
        for n in range(0, 3):
            got = phi_n(DUST, n, p, p, p, workers=1)
            want = 0j
            for sq in enumerate_squares(DUST, n):
                vals = VertexValues(
                    *(pauli_pack(rule(*np.asarray(floats(v)))) for v in vertices(sq))
                )
                want += kernel_trace_oracle(vals, vals, vals)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestPairing:
    def test_constant_projection_vanishes(self):
        p = Observable(  # diag(1, 0): n = (0, 0, 1)
            "diag(1,0)", "pullback", "matrix",
            lambda u, v: np.broadcast_to([[[0.0]], [[0.0]], [[1.0]]],
                                         (3,) + np.broadcast_shapes(np.shape(u), np.shape(v))),
            dim=2,
        )
        assert pairing_n(DUST, 4, p, workers=1) == 0j

    def test_non_projection_rejected(self):
        """n = (0.2, 0, 0.2) has |n|^2 = 0.08, so e = (I + n . sigma) / 2 has
        e^2 - e = (|n|^2 - 1) I / 4 = -0.23 I."""
        p = Observable(
            "not-proj", "pullback", "matrix",
            lambda u, v: np.broadcast_to([[[0.2]], [[0.0]], [[0.2]]],
                                         (3,) + np.broadcast_shapes(np.shape(u), np.shape(v))),
            dim=2,
        )
        with pytest.raises(ValueError, match=r"not a projection .*\|e\^2-e\|=2\.30e-01"):
            validate_projection(p, 4)

    def test_one_broken_grid_vertex_rejected(self):
        """A Bott field whose n is scaled to length 0.6 only at
        (u, v) = (0, 1/64), a level-6 vertex image that a sparse sample of
        words misses, is caught at every n >= 6."""
        bott = bott_projection(1)

        def rule(u, v):
            n = bott(u, v)
            n[:, (np.asarray(u) == 0.0) & (np.asarray(v) == 1.0 / 64)] *= 0.6
            return n

        p = Observable("bott-1-broken", "pullback", "matrix", rule, dim=2)
        for n in (6, 9):
            with pytest.raises(ValueError, match="not a projection at level-6"):
                validate_projection(p, n)
        with pytest.raises(ValueError, match="not a projection"):
            pairing_n(DUST, 6, p, workers=1)
        validate_projection(p, 5)  # (0, 1/64) is no level-5 vertex image

    def test_huge_field_rejected_without_a_warning(self):
        """The degree-1 field scaled by 1e200: |n|^2 overflows to inf, and
        the check raises its one ValueError, with no overflow warning before
        it (pytest makes a warning an error)."""
        bott = bott_projection(1)
        p = Observable("bott-1-huge", "pullback", "matrix", lambda u, v: bott(u, v) * 1e200, dim=2)
        with pytest.raises(ValueError, match=r"not a projection .*\|e\^2-e\|=inf"):
            validate_projection(p, 5)
        with pytest.raises(ValueError, match=r"'bott-1-huge' is not a projection at level-5"):
            pairing_n(DUST, 5, p, workers=1)

    def test_degree_one_converges_to_even_integer(self):
        p = pullback_projection(bott_projection(1))
        val = pairing_n(DUST, 8, p, workers=2)
        assert val.real == pytest.approx(2.0, abs=0.01)
        assert abs(val.imag) < 1e-10


def bits(z):
    """The bits of complex ``z``, as two int64."""
    return np.array([z]).view(np.int64).tolist()


class TestNonFiniteSums:
    """Every sum returns through one check: a level's sum that is not
    finite raises ValueError naming the triple and the level, and numpy
    warns of none of its inf - inf or overflows, on any thread that runs
    its tasks (pytest makes a warning an error)."""

    CASES = [(np.nan, 1), (np.nan, 2), (np.inf, 1), (np.inf, 2)]

    @staticmethod
    def refused(names, n):
        return re.escape(f"the level-{n} sum over ({', '.join(map(repr, names))}) is ")

    @pytest.mark.parametrize("bad, workers", CASES)
    def test_phi_n(self, bad, workers):
        """A direct h, not finite along x > 0.9, on the general path; level
        9 is four tasks, so two workers run them on two threads."""
        f, g, _, _, _ = resolve_functions("linear-xy")
        h = direct_scalar(lambda u, v: np.where(np.asarray(u) > 0.9, bad, v * 1.0), "bad")
        with pytest.raises(ValueError, match=self.refused(("x+y", "x", "bad"), 9)):
            phi_n(DUST, 9, f, g, h, workers=workers)

    @pytest.mark.parametrize("bad, workers", CASES)
    def test_phi_subdivision(self, bad, workers):
        """bott-flux with its row g not finite at u = 1/2, on the separable
        path."""
        sp = get_smooth_preset("bott-flux")
        g = TorusFunction("g-bad", lambda u, v: np.where(u == 0.5, bad, sp.g(u, v)))
        with pytest.raises(ValueError, match=self.refused((sp.f.name, "g-bad", sp.h.name), 9)):
            phi_subdivision(9, sp.f, g, sp.h, workers=workers)

    def test_pairing_n_refuses_an_overflowing_sum(self):
        """A sum of finite values can overflow: a Bott field scaled by 1e200
        at the vertex images whose u is an odd multiple of 1/128, which the
        level-6 projection check does not see, is refused at n = 7."""
        bott = bott_projection(1)

        def rule(u, v):
            n = bott(u, v)
            n[:, np.broadcast_to(np.asarray(u) * 128 % 2 == 1, n.shape[1:])] *= 1e200
            return n

        p = Observable("bott-1-huge", "pullback", "matrix", rule, dim=2)
        assert pairing_n(DUST, 6, p, workers=1).real == pytest.approx(2.0, abs=0.05)
        with pytest.raises(ValueError, match=self.refused(("bott-1-huge",) * 3, 7) + ".*overflowed"):
            pairing_n(DUST, 7, p, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_phi_n_refuses_a_sum_that_overflows_between_leaves(self, workers):
        """Finite leaf sums, each near 4e306, whose pairwise tree overflows:
        x and y scaled by 4.4e155 make every level-9 dust term about 1e303."""
        one = direct_scalar(lambda u, v: np.ones(np.broadcast_shapes(np.shape(u), np.shape(v))),
                            "one")
        g = direct_scalar(lambda u, v: np.asarray(u) * 4.4e155, "big x")
        h = direct_scalar(lambda u, v: np.asarray(v) * 4.4e155, "big y")
        source = cocycle._direct_source(DUST, 9)
        ws = cocycle.K.Workspace()
        for lo in range(0, 4**9, source.tile.order.size):
            assert np.isfinite(cocycle._leaf_sums_for_range(source, lo, (one, g, h), ws, None)).all()
        with pytest.raises(ValueError, match=self.refused(("one", "big x", "big y"), 9)):
            phi_n(DUST, 9, one, g, h, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("place", [0, 1, 2], ids=["f", "g", "h"])
    def test_nan_in_a_carpet_hole_keeps_the_sum(self, workers, place):
        """A NaN only at vertices of no level-6 square, in the hole of the
        carpet's lower left ninth, inside a tile's box, enters no term that
        is kept: the sum is finite and bitwise that of the same values with
        the NaN made finite.  In f, beside the row g and column h, the
        kernel runs its separable path; in g or h, its general path."""
        def holed(fill):
            def rule(u, v):
                u, v = np.asarray(u), np.asarray(v)
                hole = (np.abs(u - 1 / 6) < 0.03) & (np.abs(v - 1 / 6) < 0.03)
                return np.where(hole, fill, u * v + 1.0)

            return direct_scalar(rule, "holed")

        triple = list(resolve_functions("linear-xy")[:3])
        got, want = (
            phi_n(CARPET, 6, *triple[:place], holed(fill), *triple[place + 1:], workers=workers)
            for fill in (np.nan, 7.0)
        )
        assert np.isfinite(got) and bits(got) == bits(want)


class TestBudgetsAndValidation:
    def test_scalar_budget(self):
        f, g, h, _, _ = resolve_functions("const-xy")
        with pytest.raises(BudgetError):
            phi_n(DUST, 13, f, g, h, workers=1)
        with pytest.raises(BudgetError):
            phi_n(CARPET, 9, f, g, h, workers=1)

    def test_subdivision_budget_and_domain(self):
        sp = get_smooth_preset("bott-flux")
        with pytest.raises(BudgetError):
            phi_subdivision(13, sp.f, sp.g, sp.h, workers=1)
        with pytest.raises(ValueError):
            phi_subdivision(-1, sp.f, sp.g, sp.h, workers=1)

    def test_matrix_budget_is_tighter(self):
        p = pullback_projection(bott_projection(1))
        with pytest.raises(BudgetError):
            pairing_n(DUST, 11, p, workers=1)

    def test_pullback_needs_dust(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        with pytest.raises(ValueError, match="digit map"):
            phi_n(CARPET, 2, f, g, h, workers=1)

    # three maps whose tiles skip lattice columns and rows, and the dust's name on
    # three of its four maps
    OTHER_PRESETS = [IfsPreset("corner", ((0, 0), (1, 0), (0, 2))),
                     IfsPreset("cantor-dust", ((0, 0), (0, 2), (2, 0)))]

    @pytest.fixture
    def no_tile_built(self, monkeypatch):
        """Fails a test that builds a tile or digit-maps a word."""
        def refused(*args):
            raise AssertionError("a tile was built")

        for name in ("_pullback_tile", "_direct_tile", "_box_tile"):
            monkeypatch.setattr(cocycle, name, refused)
        for name in ("corner_numerators", "dust_image_bits"):
            monkeypatch.setattr(cocycle.K, name, refused)

    @pytest.mark.parametrize("preset", OTHER_PRESETS, ids=lambda p: p.name)
    def test_direct_sums_need_a_named_preset(self, preset, no_tile_built):
        """The engine's tiles are laid out for ``geometry.PRESETS`` alone: a
        direct sum, estimate or residual on any other preset, or on one
        that takes a preset's name with other maps, raises before any tile
        is built."""
        f, g, h, _, _ = resolve_functions("linear-xy")
        refused = re.escape(f"not {preset.name!r} with offsets {preset.offsets}")
        with pytest.raises(ValueError, match=refused):
            phi_n(preset, 3, f, g, h, workers=1)
        with pytest.raises(ValueError, match=refused):
            estimate_lipschitz(preset, 3, g)
        with pytest.raises(ValueError, match=refused):
            cyclicity_residual(preset, 3, f, g, h, workers=1)

    def test_estimate_on_another_preset_reads_no_table(self):
        """An estimate on a preset with the dust's maps under another name
        is refused, also right after a table's sum on the dust."""
        triple = resolve_functions("linear-xy")[:3]
        phi_n(DUST, 3, *triple, workers=1)
        estimate_lipschitz(DUST, 3, triple[1])
        phi_n(DUST, 3, *triple, workers=1)
        with pytest.raises(ValueError, match="not 'dust' with offsets"):
            estimate_lipschitz(IfsPreset("dust", DUST.offsets), 3, triple[1])

    def test_pullback_needs_the_dust_itself(self, no_tile_built):
        """A pullback on a preset named cantor-dust but with other maps
        raises before any tile is built."""
        f, g, h, _, _ = resolve_functions("bott-flux")
        with pytest.raises(ValueError, match="digit map"):
            phi_n(self.OTHER_PRESETS[1], 3, f, g, h, workers=1)

    def test_mode_mixing_rejected(self):
        f, g, h, _, _ = resolve_functions("bott-flux")
        d = direct_scalar(lambda u, v: np.asarray(u, dtype=np.float64), "x")
        with pytest.raises(ValueError, match="mode"):
            phi_n(DUST, 2, f, g, d, workers=1)

    @pytest.mark.parametrize("workers", [2.5, True, "2", 0])
    def test_workers_that_are_not_a_positive_int_rejected(self, workers, no_tile_built):
        """A worker count must be an ``int`` (not a bool) of at least 1:
        any other value raises ValueError naming it, before any tile is
        built.  Unchecked, 2.5 and True would run and "2" would fail in a
        comparison."""
        f, g, h, _, _ = resolve_functions("linear-xy")
        sp = get_smooth_preset("bott-flux")
        named = re.escape(f"workers must be an integer >= 1, got {workers!r}")
        with pytest.raises(ValueError, match=named):
            phi_n(DUST, 3, f, g, h, workers=workers)
        with pytest.raises(ValueError, match=named):
            phi_subdivision(3, sp.f, sp.g, sp.h, workers=workers)
        with pytest.raises(ValueError, match=named):
            convergence_table(DUST, [3], f, g, h, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, workers):
        f, g, h, _, _ = resolve_functions("const-xy")
        sp = get_smooth_preset("bott-flux")
        p = pullback_projection(bott_projection(1))
        with pytest.raises(ValueError, match="workers"):
            phi_n(DUST, 2, f, g, h, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            phi_subdivision(2, sp.f, sp.g, sp.h, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            pairing_n(DUST, 2, p, workers=workers)

    def test_observable_product_requires_matching_mode(self):
        f, *_ = resolve_functions("bott-flux")
        d = direct_scalar(lambda u, v: np.asarray(u, dtype=np.float64), "x")
        with pytest.raises(ValueError):
            _ = f * d


class TestWordIndexOverflow:
    """9**20 words overflow int64 word indices; the check runs before any
    task list is built, so these calls return at once."""

    def test_phi_n_rejects_overflowing_level(self):
        f, g, h, _, _ = resolve_functions("const-xy")
        with pytest.raises(ValueError, match="overflow"):
            phi_n(FULL, 20, f, g, h, workers=1, allow_large=True)

    def test_subdivision_rejects_overflowing_level(self):
        sp = get_smooth_preset("bott-flux")
        with pytest.raises(ValueError, match="overflow"):
            phi_subdivision(32, sp.f, sp.g, sp.h, workers=1)

    def test_lipschitz_rejects_overflowing_level(self):
        f, _, _, _, _ = resolve_functions("const-xy")
        with pytest.raises(ValueError, match="overflow"):
            estimate_lipschitz(FULL, 20, f)

    def test_lipschitz_refuses_an_over_budget_level_before_any_tile(self, monkeypatch):
        """4**14 dust words exceed the scalar budget: the estimate raises
        BudgetError before it builds a source, as phi_n does, and with
        allow_large it gets past the check."""
        def reached(*args):
            raise AssertionError("_direct_source reached")

        monkeypatch.setattr(cocycle, "_direct_source", reached)
        f, _, _, _, _ = resolve_functions("const-xy")
        with pytest.raises(BudgetError):
            estimate_lipschitz(DUST, 14, f)
        with pytest.raises(AssertionError, match="_direct_source reached"):
            estimate_lipschitz(DUST, 14, f, allow_large=True)

    def test_last_fitting_level_passes_the_check(self):
        from dustcocycle.cocycle import word_count

        assert word_count(9, 19, "scalar", True) == 9**19
        assert word_count(4, 31, "matrix", True) == 4**31

    def test_one_level_check_in_order(self):
        """A negative level, then overflowing word indices, raise
        ValueError, and only then an over-budget count BudgetError."""
        from dustcocycle.cocycle import word_count

        with pytest.raises(ValueError, match="level must be >= 0"):
            word_count(9, -1, "scalar", False)
        with pytest.raises(ValueError, match="overflow") as caught:
            word_count(9, 20, "scalar", False)
        assert type(caught.value) is ValueError
        with pytest.raises(BudgetError, match="matrix budget of 1048576"):
            word_count(4, 11, "matrix", False)
        assert word_count(4, 10, "matrix", False) == 4**10

    @staticmethod
    def recorded_call(entry, level, calls):
        """A call of ``entry`` at ``level`` whose rules append to ``calls``
        each time they are evaluated."""
        def rule(u, v):
            calls.append((u, v))
            return np.asarray(u, dtype=np.float64) + v

        def field(u, v):
            calls.append((u, v))
            return bott_projection(1)(u, v)

        pullback = Observable("rec", "pullback", "scalar", rule)
        return {
            "phi_n": lambda: phi_n(DUST, level, pullback, pullback, pullback, workers=1),
            "estimate_lipschitz": lambda: estimate_lipschitz(DUST, level, direct_scalar(rule, "rec")),
            "phi_subdivision": lambda: phi_subdivision(level, rule, rule, rule, workers=1),
            "pairing_n": lambda: pairing_n(
                DUST, level, Observable("rec", "pullback", "matrix", field, dim=2), workers=1),
        }[entry]

    ENTRIES = ["phi_n", "estimate_lipschitz", "phi_subdivision", "pairing_n"]

    @pytest.mark.parametrize("level", [True, False, np.bool_(True), 3.0, np.float64(2.0), "3"],
                             ids=repr)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_level_not_an_integer_refused_before_any_evaluation(self, entry, level):
        """A bool (True would sum level 1) or a non-integer level raises
        ValueError naming it, before any rule is evaluated: 3.0 used to pass
        the level check and fail deep in the tile code."""
        calls = []
        with pytest.raises(ValueError, match=re.escape(f"level must be an integer, not {level!r}")):
            self.recorded_call(entry, level, calls)()
        assert not calls

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_numpy_integer_level_is_the_level(self, entry):
        calls = []
        want = self.recorded_call(entry, 4, calls)()
        for level in (np.int64(4), np.int32(4), np.uint8(4)):
            got = self.recorded_call(entry, level, calls)()
            assert np.array_equal(np.atleast_1d(got).view(np.float64),
                                  np.atleast_1d(want).view(np.float64))

    def test_numpy_integer_level_overflow_refused(self):
        """Word indices are counted in Python ints, so a NumPy level whose
        word count wraps past int64 is refused as an int level is."""
        from dustcocycle.cocycle import word_count

        with pytest.raises(ValueError, match="overflow"):
            word_count(9, np.int64(20), "scalar", True)


class TestThreadPool:
    """A sum hands its task indices out from one shared iterator to
    min(workers, tasks) threads: the calling thread alone when that is one,
    else as many helper threads, and the caller runs none."""

    def test_pool_capped_at_task_count(self, monkeypatch):
        """At 8 workers a 4-task sum (bott-flux, n = 9) starts exactly 4
        helpers, at 1 worker none, and the two values are bitwise equal."""
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(cocycle.threading, "Thread", Recording)
        f, g, h, _, _ = resolve_functions("bott-flux")
        want = phi_n(DUST, 9, f, g, h, workers=1)
        assert started == []
        assert bits(phi_n(DUST, 9, f, g, h, workers=8)) == bits(want)
        assert len(started) == 4

    def test_each_task_runs_once_under_frequent_switches(self, monkeypatch):
        """More threads than cores, switching every microsecond, share one
        iterator of the 16 tasks of a sum (bott-flux, n = 10): every task
        runs exactly once, and the value is bitwise the 1-worker one."""
        f, g, h, _, _ = resolve_functions("bott-flux")
        want = bits(phi_n(DUST, 10, f, g, h, workers=1))
        starts = []
        real = cocycle._leaf_sums_for_range

        def task(source, lo, *args, **kwargs):
            starts.append(lo)  # list.append is atomic
            return real(source, lo, *args, **kwargs)

        monkeypatch.setattr(cocycle, "_leaf_sums_for_range", task)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                starts.clear()
                assert bits(phi_n(DUST, 10, f, g, h, workers=8)) == want
                assert sorted(starts) == [i * 4**8 for i in range(16)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_task_exception_reaches_the_caller(self, monkeypatch, capfd, workers):
        """An exception raised in a task, on the calling thread (1 worker)
        or on a helper, reaches the caller as itself, after every helper has
        ended, and no helper prints it.

        The sum (bott-flux, n = 10) has 16 tasks.  Each thread's first task
        waits at a barrier until every thread holds one; then the first past
        it raises at once, and the others go on after 0.2 s, by when the
        failure is recorded: no further task may start."""
        f, g, h, _, _ = resolve_functions("bott-flux")
        caller = threading.current_thread()
        count = threading.active_count()
        assert bits(phi_n(DUST, 10, f, g, h, workers=workers)) == bits(
            phi_n(DUST, 10, f, g, h, workers=1))
        assert threading.active_count() == count

        boom = RuntimeError("boom")
        barrier = threading.Barrier(workers, timeout=30)
        lock = threading.Lock()
        events, seen, raisers = [], set(), []
        real = cocycle._leaf_sums_for_range

        def task(*args, **kwargs):
            me = threading.current_thread()
            with lock:
                first = me not in seen
                seen.add(me)
                events.append("start")
            if first:
                barrier.wait()
                with lock:
                    raises = "raise" not in events
                    if raises:
                        events.append("raise")
                        raisers.append(me)
                if raises:
                    raise boom
                time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(cocycle, "_leaf_sums_for_range", task)
        with pytest.raises(RuntimeError) as caught:
            phi_n(DUST, 10, f, g, h, workers=workers)
        assert caught.value is boom
        assert len(raisers) == 1
        assert (caller in seen) == (raisers == [caller]) == (workers == 1)
        assert threading.active_count() == count
        assert events == ["start"] * workers + ["raise"]
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sum_inside_an_exception_handler(self, workers):
        """A sum called while the caller handles an exception (bott-flux,
        n = 9, 4 tasks) returns its value: the exception being handled is
        not taken for one that a task raised."""
        f, g, h, _, _ = resolve_functions("bott-flux")
        want = bits(phi_n(DUST, 9, f, g, h, workers=workers))
        try:
            raise KeyError("handled")
        except KeyError:
            assert bits(phi_n(DUST, 9, f, g, h, workers=workers)) == want

    def test_caller_waits_in_timed_joins(self, monkeypatch):
        """The caller of a 2-worker sum (bott-flux, n = 10, 16 tasks) waits
        on its helpers only in joins with a timeout, so a signal never waits
        for a helper to end; the value is bitwise the 1-worker one."""
        timeouts = []

        class Recording(threading.Thread):
            def join(self, timeout=None):
                timeouts.append(timeout)
                super().join(timeout)

        f, g, h, _, _ = resolve_functions("bott-flux")
        want = bits(phi_n(DUST, 10, f, g, h, workers=1))
        monkeypatch.setattr(cocycle.threading, "Thread", Recording)
        assert bits(phi_n(DUST, 10, f, g, h, workers=2)) == want
        assert timeouts and None not in timeouts

    def test_interrupted_caller_stops_the_helpers(self, monkeypatch, capfd):
        """A KeyboardInterrupt that reaches the caller while it waits for
        its helpers (bott-flux, n = 10, 16 tasks, 2 workers) leaves the call
        at once, and no helper starts a task after the one it holds.

        Each helper's first task waits at a barrier until both hold one;
        one then sends SIGINT to the main thread, which runs the test, and
        both hold their tasks until the interrupt has been caught.

        The interrupt can reach the caller inside ``join`` while that helper
        still runs, and CPython then marks the helper stopped: ``join`` and
        ``is_alive`` no longer wait for it.  So the helpers' end is read from
        ``threading.enumerate()``, which a thread leaves only when it has
        finished, polled against a deadline.

        The signal is sent once: the caller waits in timed joins, so one
        that lands just before a join blocks is still handled within its
        timeout, while both helpers hold their tasks."""
        f, g, h, _, _ = resolve_functions("bott-flux")
        assert threading.current_thread() is threading.main_thread()
        count = threading.active_count()
        barrier = threading.Barrier(2, timeout=30)
        caught = threading.Event()
        starts = []
        real = cocycle._leaf_sums_for_range

        def task(*args, **kwargs):
            starts.append(threading.current_thread())
            if len(starts) <= 2:
                if barrier.wait() == 0:
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                caught.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(cocycle, "_leaf_sums_for_range", task)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:  # kept until the helpers, which send the signal, have ended
            with pytest.raises(KeyboardInterrupt):
                phi_n(DUST, 10, f, g, h, workers=2)
            caught.set()
            for helper in starts[:2]:
                helper.join(30)
                assert not helper.is_alive()
            deadline = time.monotonic() + 30
            while set(starts[:2]) & set(threading.enumerate()) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            caught.set()
            signal.signal(signal.SIGINT, previous)
        assert len(starts) == len(set(starts)) == 2
        assert threading.main_thread() not in starts
        assert threading.active_count() == count
        assert capfd.readouterr().err == ""


class TestConvergenceTable:
    def test_reports_carry_errors_and_ratios(self):
        f, g, h, target, _ = resolve_functions("const-xy")
        rows = convergence_table(DUST, range(1, 5), f, g, h, target=0.0, workers=1)
        assert [r.n for r in rows] == [1, 2, 3, 4]
        assert all(r.squares == 4**r.n for r in rows)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.err_ratio == pytest.approx(4.0 / 9.0, rel=1e-9)

    def test_empty_range_gives_empty_table(self):
        f, g, h, _, _ = resolve_functions("const-xy")
        assert convergence_table(DUST, [], f, g, h, target=0.0) == []
