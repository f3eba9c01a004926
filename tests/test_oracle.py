"""Torus quadrature, the preset catalogue, and projection fields."""

import math

import numpy as np
import pytest

from dustcocycle.oracle import (
    MAX_WINDING,
    SMOOTH_PRESETS,
    TorusFunction,
    bott_projection,
    chern_pairing_oracle,
    closed_form_target,
    get_smooth_preset,
    wedge_quadrature,
)

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pauli_pack(n):
    """(I + n . sigma) / 2 stacked as (..., 2, 2) for a 3-tuple of arrays n."""
    n = np.stack(np.broadcast_arrays(*n), axis=-1)
    return 0.5 * (np.eye(2) + np.einsum("...k,kij->...ij", n, PAULI))


def unit_field_partials(field, u, v):
    """The unit field n = h / |h| and its partials n_u, n_v, each a 3-tuple,
    from d(h / |h|) = (dh - n (n . dh)) / |h|."""
    h, hu, hv = (np.broadcast_arrays(*x, u, v)[:3] for x in field._field(u, v))
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
    with the 2x2 matrices formed explicitly."""
    pts = (np.arange(m) + 0.5) / m
    u, v = np.meshgrid(pts, pts, indexing="ij")
    e, eu, ev = reference_projection_partials(field, u, v)
    comm = eu @ ev - ev @ eu
    return complex(np.einsum("...ij,...ji->...", e, comm).mean() / (1j * math.pi))


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

    def test_finite_difference_partials_fallback(self):
        plain = TorusFunction("plain", lambda u, v: np.sin(2 * np.pi * u) * np.cos(2 * np.pi * v))
        sp = get_smooth_preset("bott-flux")
        a = wedge_quadrature(sp.f, plain, sp.h, 256)
        analytic = TorusFunction(
            "exact",
            plain.fn,
            lambda u, v: 2 * np.pi * np.cos(2 * np.pi * u) * np.cos(2 * np.pi * v),
            lambda u, v: -2 * np.pi * np.sin(2 * np.pi * u) * np.sin(2 * np.pi * v),
        )
        b = wedge_quadrature(sp.f, analytic, sp.h, 256)
        assert a == pytest.approx(b, rel=1e-3, abs=1e-3)

    def test_small_grid_rejected(self):
        sp = get_smooth_preset("bott-flux")
        with pytest.raises(ValueError):
            wedge_quadrature(sp.f, sp.g, sp.h, 2)


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
        e = field(u, v)
        assert np.abs(e @ e - e).max() < 1e-10
        assert np.abs(e - np.conj(np.swapaxes(e, -1, -2))).max() < 1e-10
        assert np.abs(np.einsum("...ii->...", e) - 1.0).max() < 1e-12

    def test_partials_match_finite_differences(self):
        field = bott_projection(1)
        u = np.array([0.13, 0.57, 0.81])
        v = np.array([0.29, 0.33, 0.91])
        _, eu, ev = reference_projection_partials(field, u, v)
        h = 1e-6
        fd_u = (field(u + h, v) - field(u - h, v)) / (2 * h)
        fd_v = (field(u, v + h) - field(u, v - h)) / (2 * h)
        assert np.allclose(eu, fd_u, atol=1e-8)
        assert np.allclose(ev, fd_v, atol=1e-8)

    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    def test_call_equals_with_partials_exactly(self, d):
        field = bott_projection(d)
        rng = np.random.default_rng(d + 11)
        u, v = rng.uniform(-1.0, 2.0, (2, 1000))
        np.testing.assert_array_equal(field(u, v), reference_projection_partials(field, u, v)[0])

    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    def test_chern_value_on_even_lattice(self, d):
        val = chern_pairing_oracle(bott_projection(d), 256)
        assert abs(val - 2 * d) < 1e-3
        assert abs(val.imag) < 1e-12

    @pytest.mark.parametrize("m", [64, 128, 256])
    @pytest.mark.parametrize("d", range(-MAX_WINDING, MAX_WINDING + 1))
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
