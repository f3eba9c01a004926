"""Torus quadrature, the preset catalogue, and projection fields."""

import math
from functools import lru_cache

import numpy as np
import pytest

from dustcocycle.oracle import (
    MAX_WINDING,
    SMOOTH_PRESETS,
    TorusFunction,
    _spectral_partial,
    bott_projection,
    chern_pairing_oracle,
    closed_form_target,
    get_smooth_preset,
    wedge_quadrature,
)
from dustcocycle.cocycle import phi_n, pullback_scalar
from dustcocycle.geometry import get_preset

TWO_PI = 2.0 * math.pi
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@lru_cache(maxsize=None)
def bump_mix_phi(n):
    """The engine's level-n bump-mix pullback on the dust, one worker."""
    sp = get_smooth_preset("bump-mix")
    obs = (pullback_scalar(tf) for tf in (sp.f, sp.g, sp.h))
    return phi_n(get_preset("cantor-dust"), n, *obs, workers=1)


def pauli_pack(n):
    """(I + n . sigma) / 2 stacked as (..., 2, 2) for a 3-tuple of arrays n."""
    n = np.stack(np.broadcast_arrays(*n), axis=-1)
    return 0.5 * (np.eye(2) + np.einsum("...k,kij->...ij", n, PAULI))


def field_partials(field, u, v):
    """A projection field's h = (sin b, sin a, M - cos a - cos b), with
    a = 2 pi w u and b = 2 pi v, and its analytic partials h_u, h_v: each a
    3-tuple that broadcasts, h's components multiplied out to the full shape
    and identically zero partials the scalar 0.0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    a = TWO_PI * field.winding * u
    b = TWO_PI * v
    h = (np.sin(b) * np.ones_like(a), np.sin(a) * np.ones_like(b),
         field.mass - np.cos(a) - np.cos(b))
    k = TWO_PI * field.winding
    hu = (0.0, k * np.cos(a), k * np.sin(a))
    hv = (TWO_PI * np.cos(b), 0.0, TWO_PI * np.sin(b))
    return h, hu, hv


def reference_unit_field(field, u, v):
    """n = h / |h| as a (3, ...) array, from h at the full shape: the
    formula :meth:`ProjectionField.__call__` matches bit for bit."""
    h = field_partials(field, u, v)[0]
    norm = np.sqrt(h[0] * h[0] + h[1] * h[1] + h[2] * h[2])
    n = np.empty((3,) + norm.shape)
    for k in range(3):
        np.divide(h[k], norm, out=n[k, ...])
    return n


def unit_field_partials(field, u, v):
    """The unit field n = h / |h| and its partials n_u, n_v, each a 3-tuple,
    from d(h / |h|) = (dh - n (n . dh)) / |h|."""
    h, hu, hv = (np.broadcast_arrays(*x, u, v)[:3] for x in field_partials(field, u, v))
    norm = np.sqrt(h[0] * h[0] + h[1] * h[1] + h[2] * h[2])
    n = tuple(c / norm for c in h)
    out = []
    for dh in (hu, hv):
        radial = n[0] * dh[0] + n[1] * dh[1] + n[2] * dh[2]
        out.append(tuple((dh[i] - n[i] * radial) / norm for i in range(3)))
    return n, out[0], out[1]


def reference_projection_partials(field, u, v):
    """(e, e_u, e_v) as (..., 2, 2) arrays; the identity part of e drops out
    of the derivatives."""
    n, nu, nv = unit_field_partials(field, u, v)
    return pauli_pack(n), pauli_pack(nu) - 0.5 * np.eye(2), pauli_pack(nv) - 0.5 * np.eye(2)


def reference_chern_commutator(field, m):
    """Midpoint quadrature of (1 / pi i) * integral Tr(e (e_u e_v - e_v e_u))
    with the 2x2 matrices formed explicitly, 128 grid rows at a time."""
    pts = (np.arange(m) + 0.5) / m
    total = 0j
    for lo in range(0, m, 128):
        u, v = np.meshgrid(pts[lo:lo + 128], pts, indexing="ij")
        e, eu, ev = reference_projection_partials(field, u, v)
        comm = eu @ ev - ev @ eu
        total += np.einsum("...ij,...ji->...", e, comm).sum()
    return complex(total / (m * m) / (1j * math.pi))


class TestWedgeQuadrature:
    def test_constant_front_factor_is_exact_form(self):
        sp = get_smooth_preset("stokes-null")
        assert abs(wedge_quadrature(sp.f, sp.g, sp.h, 128)) < 1e-10

    def test_flux_preset_value(self):
        sp = get_smooth_preset("bott-flux")
        q = wedge_quadrature(sp.f, sp.g, sp.h, 512)
        assert q == pytest.approx(2.0 * math.pi**2, abs=1e-8)

    def test_equal_arguments_vanish_identically(self):
        sp = get_smooth_preset("bott-flux")
        assert wedge_quadrature(sp.f, sp.g, sp.g, 64) == 0

    def test_grid_doubling_is_stable(self):
        # midpoint rule is near-exact once the grid resolves the frequencies
        sp = get_smooth_preset("double-flux")
        a = wedge_quadrature(sp.f, sp.g, sp.h, 64)
        b = wedge_quadrature(sp.f, sp.g, sp.h, 128)
        assert abs(a - b) < 1e-10

    def test_function_without_partials_matches_analytic_value(self):
        """Plain callables, g full: 2 int cos(2pi u) (2pi)^2 cos^2(2pi u)
        cos^2(2pi v) du dv = 2 pi^2, as h = sin(2pi v) has no u-partial."""
        plain = TorusFunction("plain", lambda u, v: np.sin(TWO_PI * u) * np.cos(TWO_PI * v))
        q = wedge_quadrature(
            lambda u, v: np.cos(TWO_PI * u), plain, lambda u, v: np.sin(TWO_PI * v), 256
        )
        assert abs(q - 2.0 * math.pi**2) <= 1e-12

    @pytest.mark.parametrize("m", [64, 128, 512])
    @pytest.mark.parametrize("name", [k for k, p in SMOOTH_PRESETS.items() if p.target is not None])
    def test_tabulated_values_to_rounding(self, name, m):
        sp = get_smooth_preset(name)
        q = wedge_quadrature(sp.f, sp.g, sp.h, m)
        assert abs(q - sp.target) <= (1e-15 if name == "stokes-null" else 1e-13)

    def test_full_spectrum_value_converged_at_grid_64(self):
        sp = get_smooth_preset("bump-mix")
        q = [wedge_quadrature(sp.f, sp.g, sp.h, m) for m in (64, 128, 512)]
        assert max(abs(a - q[0]) for a in q) <= 1e-14
        assert q[0].imag == 0.0

    def test_engine_error_falls_fourfold_per_level_on_bump_mix(self):
        """Measured against the grid-64 quadrature, phi_n's error on the
        full-spectrum bump-mix keeps its 4^-n rate through n = 10: the
        quadrature is far closer to the limit than phi_10 is."""
        sp = get_smooth_preset("bump-mix")
        q = wedge_quadrature(sp.f, sp.g, sp.h, 64)
        err = {n: abs(bump_mix_phi(n) - q) for n in range(6, 11)}
        for n in range(7, 11):
            assert 0.249 <= err[n] / err[n - 1] <= 0.254, (n, err[n] / err[n - 1])

    def test_small_grid_rejected(self):
        sp = get_smooth_preset("bott-flux")
        with pytest.raises(ValueError):
            wedge_quadrature(sp.f, sp.g, sp.h, 2)


# the catalogue's trig rules' partials (d/du, d/dv), derived by hand
def _zero(u, v):
    return 0.0


ANALYTIC_PARTIALS = {
    "one": (_zero, _zero),
    "cos2piu*cos2piv": (
        lambda u, v: -TWO_PI * np.sin(TWO_PI * u) * np.cos(TWO_PI * v),
        lambda u, v: -TWO_PI * np.cos(TWO_PI * u) * np.sin(TWO_PI * v),
    ),
    "sin2piu": (lambda u, v: TWO_PI * np.cos(TWO_PI * u), _zero),
    "sin2piv": (_zero, lambda u, v: TWO_PI * np.cos(TWO_PI * v)),
    "cos2piv": (_zero, lambda u, v: -TWO_PI * np.sin(TWO_PI * v)),
    "sin2pi(u+v)": (
        lambda u, v: TWO_PI * np.cos(TWO_PI * (u + v)),
        lambda u, v: TWO_PI * np.cos(TWO_PI * (u + v)),
    ),
    "cos4piu*cos2piv": (
        lambda u, v: -2 * TWO_PI * np.sin(2 * TWO_PI * u) * np.cos(TWO_PI * v),
        lambda u, v: -TWO_PI * np.cos(2 * TWO_PI * u) * np.sin(TWO_PI * v),
    ),
    "sin4piu": (lambda u, v: 2 * TWO_PI * np.cos(2 * TWO_PI * u), _zero),
}


class TestSpectralPartials:
    @pytest.mark.parametrize("name", sorted(ANALYTIC_PARTIALS))
    def test_catalogue_partials_match_analytic(self, name):
        """On the quadrature's (m, 1) u column and (1, m) v row at m = 64,
        spectral partials equal the analytic ones to 1e-12, and are exactly
        0 along an axis the rule does not read (its length-1 axis)."""
        tf = next(t for p in SMOOTH_PRESETS.values() for t in (p.f, p.g, p.h) if t.name == name)
        pts = (np.arange(64) + 0.5) / 64
        u, v = pts[:, None], pts[None, :]
        values = np.atleast_2d(tf(u, v))
        for axis, exact in enumerate(ANALYTIC_PARTIALS[name]):
            d = _spectral_partial(values, axis)
            assert d.dtype == np.float64
            want = np.broadcast_to(exact(u, v), (64, 64))
            assert np.abs(np.broadcast_to(d, want.shape) - want).max() <= 1e-12
            if values.shape[axis] == 1:
                assert not d.any()

    def test_complex_values_stay_complex(self):
        pts = (np.arange(32) + 0.5) / 32
        d = _spectral_partial(np.exp(1j * TWO_PI * pts)[None, :], 1)
        assert np.abs(d - 1j * TWO_PI * np.exp(1j * TWO_PI * pts)).max() <= 1e-12

    @pytest.mark.parametrize("m", [8, 9])
    def test_nyquist_mode_dropped(self, m):
        """The mode m // 2 is the Nyquist mode of an even grid, with no
        derivative it can resolve, and gives 0; on an odd grid it is the
        highest resolved mode and differentiates exactly."""
        k = m // 2
        pts = (np.arange(m) + 0.5) / m
        d = _spectral_partial(np.cos(TWO_PI * k * pts)[:, None], 0)[:, 0]
        want = 0.0 if m % 2 == 0 else -TWO_PI * k * np.sin(TWO_PI * k * pts)
        assert np.abs(d - want).max() <= 1e-12


class TestCatalogue:
    @pytest.mark.parametrize("name", [k for k, p in SMOOTH_PRESETS.items() if p.target is not None])
    def test_tabulated_values_match_quadrature(self, name):
        sp = get_smooth_preset(name)
        q = wedge_quadrature(sp.f, sp.g, sp.h, 512)
        assert q == pytest.approx(sp.target, abs=1e-8)

    def test_known_targets(self):
        assert closed_form_target("bott-flux") == pytest.approx(2 * math.pi**2)
        assert closed_form_target("stokes-null") == 0
        assert closed_form_target("double-flux") == pytest.approx(4 * math.pi**2)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_smooth_preset("heat-kernel")

    def test_probe_preset_has_no_closed_form(self):
        assert SMOOTH_PRESETS["bump-mix"].target is None
        with pytest.raises(KeyError):
            closed_form_target("bump-mix")

    # the one-coordinate rules as they were, multiplied out to the full shape
    FULL_RULES = {
        "sin2piu": lambda u, v: np.sin(TWO_PI * u) * np.ones_like(np.asarray(v, dtype=np.float64)),
        "sin2piv": lambda u, v: np.sin(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
        "cos2piv": lambda u, v: np.cos(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
        "sin4piu": lambda u, v: np.sin(2 * TWO_PI * u)
        * np.ones_like(np.asarray(v, dtype=np.float64)),
    }

    @pytest.mark.parametrize("name", sorted(FULL_RULES))
    def test_one_coordinate_rules_return_their_row_or_column(self, name):
        """A rule of u (v) only returns the row (column) it is given, so the
        engine keeps it compact (a row g with a column h runs the scalar
        kernel's separable path); broadcast, it is bitwise the full values,
        as x * 1.0 = x."""
        tf = next(t for p in SMOOTH_PRESETS.values() for t in (p.f, p.g, p.h) if t.name == name)
        u = np.random.default_rng(5).uniform(-1.0, 2.0, (1, 257))
        v = np.random.default_rng(6).uniform(-1.0, 2.0, (129, 1))
        got = tf(u, v)
        assert got.shape == (u if name.endswith("u") else v).shape
        want = self.FULL_RULES[name](u, v)
        assert np.array_equal(np.broadcast_to(got, want.shape).view(np.int64), want.view(np.int64))

    def test_periodicity_of_components(self):
        u = np.linspace(0.0, 1.0, 7)
        v = np.linspace(0.0, 1.0, 7)
        for sp in SMOOTH_PRESETS.values():
            for tf in (sp.f, sp.g, sp.h):
                assert np.allclose(tf(u, v), tf(u + 1.0, v), atol=1e-12)
                assert np.allclose(tf(u, v), tf(u, v + 1.0), atol=1e-12)


class TestProjectionField:
    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    def test_projection_invariants_on_grid(self, d):
        field = bott_projection(d)
        pts = (np.arange(256) + 0.5) / 256
        u, v = np.meshgrid(pts, pts, indexing="ij")
        n = field(u, v)
        assert n.shape == (3, 256, 256) and n.dtype == np.float64
        assert np.abs((n * n).sum(axis=0) - 1.0).max() < 1e-12
        e = pauli_pack(n)
        assert np.abs(e @ e - e).max() < 1e-10

    def test_partials_match_finite_differences(self):
        field = bott_projection(1)
        u = np.array([0.13, 0.57, 0.81])
        v = np.array([0.29, 0.33, 0.91])
        _, nu, nv = unit_field_partials(field, u, v)
        h = 1e-6
        fd_u = (field(u + h, v) - field(u - h, v)) / (2 * h)
        fd_v = (field(u, v + h) - field(u, v - h)) / (2 * h)
        assert np.allclose(nu, fd_u, atol=1e-8)
        assert np.allclose(nv, fd_v, atol=1e-8)

    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    def test_call_equals_with_partials_exactly(self, d):
        field = bott_projection(d)
        rng = np.random.default_rng(d + 11)
        u, v = rng.uniform(-1.0, 2.0, (2, 1000))
        np.testing.assert_array_equal(field(u, v), unit_field_partials(field, u, v)[0])

    @pytest.mark.parametrize("d", range(-MAX_WINDING, MAX_WINDING + 1))
    def test_call_matches_full_shape_formula_bitwise(self, d):
        """sin a and sin b stay compact in the field, yet every Bloch vector
        keeps the bits of h multiplied out to the full shape first."""
        field = bott_projection(d)
        rng = np.random.default_rng(d + 40)
        grid = np.arange(64) / 64.0
        pts = rng.uniform(-1.0, 2.0, 33)
        inputs = [
            (rng.uniform(-1.0, 2.0, (1, 257)), rng.uniform(-1.0, 2.0, (257, 1))),  # pullback tile
            (grid[None, :], grid[:, None]),  # validate_projection's level-6 grid
            np.meshgrid(pts, pts[::-1], indexing="ij"),
            (np.float64(0.3), np.float64(0.7)),
            (0.8, -0.45),
        ]
        for u, v in inputs:
            got, want = field(u, v), reference_unit_field(field, u, v)
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d", range(-MAX_WINDING, MAX_WINDING + 1))
    def test_curvature_numerator_closed_form(self, d):
        """h . (h_u x h_v) = 2 pi k (cos a + cos b - M cos a cos b) with
        k = 2 pi w, from sin^2 + cos^2 = 1 alone: the oracle's integrand."""
        field = bott_projection(d)
        u, v = np.random.default_rng(d + 60).uniform(-1.0, 2.0, (2, 1000))
        (h1, h2, h3), (h1u, h2u, h3u), (h1v, h2v, h3v) = field_partials(field, u, v)
        triple = (
            h1 * (h2u * h3v - h3u * h2v)
            + h2 * (h3u * h1v - h1u * h3v)
            + h3 * (h1u * h2v - h2u * h1v)
        )
        ca, cb = np.cos(TWO_PI * field.winding * u), np.cos(TWO_PI * v)
        closed = ca + cb - field.mass * ca * cb
        assert np.abs(triple / (TWO_PI * TWO_PI * field.winding) - closed).max() <= 1e-12

    @pytest.mark.parametrize("d", range(-MAX_WINDING, MAX_WINDING + 1))
    def test_chern_value_at_grid_1024(self, d):
        val = chern_pairing_oracle(bott_projection(d), 1024)
        assert abs(val - 2 * d) <= 1e-9
        assert val.imag == 0.0

    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    def test_chern_value_on_even_lattice(self, d):
        val = chern_pairing_oracle(bott_projection(d), 256)
        assert abs(val - 2 * d) < 1e-3
        assert abs(val.imag) < 1e-12

    @pytest.mark.parametrize("d, m", [
        (d, m) for d in range(-MAX_WINDING, MAX_WINDING + 1) for m in (64, 128, 256)
    ] + [(-1, 1024), (1, 1024)])
    def test_degree_integral_matches_commutator_reference(self, d, m):
        field = bott_projection(d)
        val = chern_pairing_oracle(field, m)
        assert abs(val - reference_chern_commutator(field, m)) <= 1e-12
        assert val.imag == 0.0

    def test_additivity_ratio(self):
        base = chern_pairing_oracle(bott_projection(1), 256)
        for d in (-1, 2):
            val = chern_pairing_oracle(bott_projection(d), 256)
            assert val.real / base.real == pytest.approx(d, abs=1e-2)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            bott_projection(5)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            chern_pairing_oracle(bott_projection(1), 32)


class TestOrientation:
    def test_quadrature_sign_matches_combinatorial_sum(self):
        from dustcocycle.cocycle import phi_n, resolve_functions
        from dustcocycle.geometry import get_preset

        f, g, h, _, _ = resolve_functions("bott-flux")
        comb = phi_n(get_preset("cantor-dust"), 6, f, g, h, workers=2)
        sp = get_smooth_preset("bott-flux")
        quad = wedge_quadrature(sp.f, sp.g, sp.h, 128)
        assert comb.real * quad.real > 0
