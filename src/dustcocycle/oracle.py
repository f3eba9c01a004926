"""Independent ground truth on the torus: quadrature, presets, projections.

Everything here evaluates genuine surface integrals on the flat torus with
the midpoint rule, partials taken spectrally on the same grid: exact to
rounding for trigonometric polynomials the grid resolves, and geometrically
convergent for analytic periodic functions.  These values are what the
combinatorial sums are tested against; nothing in this module touches
squares, words or digit maps.

Orientation convention: the u-partial comes before the v-partial everywhere,
matching the vertex cycle v0 -> v1 -> v2 of the square kernel.

The Chern oracle is the degree integral of a projection's unit field.  For
``e = (I + n . sigma) / 2`` the Pauli identities give
``Tr(e [e_u, e_v]) = (i / 2) n . (n_u x n_v)``, and for ``n = h / |h|``
``n . (n_u x n_v) = h . (h_u x h_v) / |h|^3``.  For every
:class:`ProjectionField`, sin^2 + cos^2 = 1, the only identity used, makes
``h . (h_u x h_v)`` a closed-form curvature, so neither a matrix nor h's
partials are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusFunction:
    """A named 1-periodic function of (u, v); :func:`wedge_quadrature` takes
    its partials spectrally, so none are carried."""

    name: str
    fn: Callable

    def __call__(self, u, v):
        return self.fn(u, v)


def _spectral_partial(values, axis: int):
    """The partial along ``axis`` of 1-periodic values sampled on a uniform
    grid: FFT, multiply by i 2 pi k, inverse FFT, with the Nyquist mode of
    an even-length axis zeroed.  Exact to rounding for trigonometric
    polynomials of degree below half the axis length; an axis of length 1
    (a value constant along it) gives an exact 0."""
    m = values.shape[axis]
    k = np.fft.fftfreq(m, 1.0 / m)
    if m % 2 == 0:
        k[m // 2] = 0.0
    ik = (1j * TWO_PI * k).reshape((m, 1) if axis == 0 else (1, m))
    d = np.fft.ifft(np.fft.fft(values, axis=axis) * ik, axis=axis)
    return d if np.iscomplexobj(values) else d.real


def wedge_quadrature(ft, gt, ht, m: int) -> complex:
    """Midpoint-rule value of 2 * integral of f (g_u h_v - g_v h_u) du dv.

    ``m`` is the grid size per axis; the functions are :class:`TorusFunction`
    or plain callables of (u, v).  Each is evaluated on an (m, 1) column of
    u and a (1, m) row of v, so a rule of one coordinate keeps its row or
    column; g's and h's partials are spectral along each axis of those
    values (see :func:`_spectral_partial`).
    """
    if m < 4:
        raise ValueError("grid size must be >= 4")
    pts = (np.arange(m) + 0.5) / m
    u, v = pts[:, None], pts[None, :]
    g, h = (np.atleast_2d(tf(u, v)) for tf in (gt, ht))
    gu, gv, hu, hv = (_spectral_partial(x, axis) for x in (g, h) for axis in (0, 1))
    w = ft(u, v) * (gu * hv - gv * hu)
    return complex(2.0 * np.mean(w))


# ---------------------------------------------------------------------------
# smooth preset catalogue
# ---------------------------------------------------------------------------


_ONE = TorusFunction("one", lambda u, v: np.ones_like(np.asarray(u, dtype=np.float64)))
_COS_COS = TorusFunction("cos2piu*cos2piv", lambda u, v: np.cos(TWO_PI * u) * np.cos(TWO_PI * v))
_SIN_U = TorusFunction("sin2piu", lambda u, v: np.sin(TWO_PI * u))
_SIN_V = TorusFunction("sin2piv", lambda u, v: np.sin(TWO_PI * v))
_COS_V = TorusFunction("cos2piv", lambda u, v: np.cos(TWO_PI * v))
_SIN_UV = TorusFunction("sin2pi(u+v)", lambda u, v: np.sin(TWO_PI * (u + v)))
_COS4_COS = TorusFunction(
    "cos4piu*cos2piv",
    lambda u, v: np.cos(2 * TWO_PI * u) * np.cos(TWO_PI * v),
)
_SIN_4U = TorusFunction("sin4piu", lambda u, v: np.sin(2 * TWO_PI * u))


@dataclass(frozen=True)
class SmoothPreset:
    """A named torus triple, with its hand-derived target integral when one
    is tabulated (None means: use quadrature)."""

    name: str
    f: TorusFunction
    g: TorusFunction
    h: TorusFunction
    target: complex | None
    note: str


def _bump(shift_u, shift_v, width=4.0, mix="cos*cos"):
    """An analytic periodic bump exp(width * (core - 1)), full-spectrum.

    Unlike the trig-polynomial presets these are not band-limited, so lattice
    sums of their products alias at every level and residual diagnostics stay
    measurably nonzero.
    """
    def fn(u, v):
        u = np.asarray(u, dtype=np.float64) + shift_u
        v = np.asarray(v, dtype=np.float64) + shift_v
        if mix == "cos*cos":
            core = np.cos(TWO_PI * u) * np.cos(TWO_PI * v)
        elif mix == "sin*sin":
            core = np.sin(TWO_PI * u) * np.sin(TWO_PI * v)
        else:
            core = np.cos(TWO_PI * (u + v))
        return np.exp(width * (core - 1.0))

    return TorusFunction(f"bump[{mix},{shift_u},{shift_v}]", fn)


SMOOTH_PRESETS = {
    "bott-flux": SmoothPreset(
        "bott-flux",
        _COS_COS,
        _SIN_U,
        _SIN_V,
        2.0 * math.pi**2,
        "2 * (2pi)^2 * int cos^2(2piu) du * int cos^2(2piv) dv = 8pi^2 / 4",
    ),
    "stokes-null": SmoothPreset(
        "stokes-null",
        _ONE,
        _SIN_U,
        _SIN_V,
        0.0,
        "constant front factor integrates an exact 2-form over a closed surface",
    ),
    "mixed-mode": SmoothPreset(
        "mixed-mode",
        _SIN_U,
        _SIN_UV,
        _COS_V,
        2.0 * math.pi**2,
        "expand cos2pi(u+v); only the sin^2(2piu) sin^2(2piv) monomial survives: "
        "2 * 4pi^2 * 1/4",
    ),
    "double-flux": SmoothPreset(
        "double-flux",
        _COS4_COS,
        _SIN_4U,
        _SIN_V,
        4.0 * math.pi**2,
        "2 * 8pi^2 * int cos^2(4piu) du * int cos^2(2piv) dv = 16pi^2 / 4",
    ),
    # full-spectrum analytic triple for residual diagnostics; no closed form
    "bump-mix": SmoothPreset(
        "bump-mix",
        _bump(0.0, 0.17, mix="cos*cos"),
        _bump(0.4, 0.0, mix="sin*sin"),
        _bump(0.0, 0.0, mix="diag"),
        None,
        "aliasing probe: products are never band-limited on the dyadic lattice",
    ),
}


def get_smooth_preset(name: str) -> SmoothPreset:
    key = name.strip().lower()
    if key not in SMOOTH_PRESETS:
        raise KeyError(f"unknown smooth preset {name!r}; choose from {sorted(SMOOTH_PRESETS)}")
    return SMOOTH_PRESETS[key]


def closed_form_target(name: str) -> complex:
    """Hand-derived value of the target integral for a named preset."""
    target = get_smooth_preset(name).target
    if target is None:
        raise KeyError(f"preset {name!r} has no tabulated closed form")
    return complex(target)


# ---------------------------------------------------------------------------
# smooth projection fields
# ---------------------------------------------------------------------------

MAX_WINDING = 3


@dataclass(frozen=True)
class ProjectionField:
    """A rank-1 smooth projection e(u, v) in M_2(C) built from a unit field.

    ``e = (I + n . sigma) / 2`` where ``n = h / |h|`` for the smooth field
    ``h = (sin b, sin a, mass - cos a - cos b)``, ``a = 2 pi winding u``,
    ``b = 2 pi v``, which never vanishes; the sphere map ``n`` has winding
    number ``degree``.  Calling the field gives ``n``, which is how the
    engine's matrix observables describe ``e``.
    """

    name: str
    degree: int
    winding: int
    mass: float

    def __call__(self, u, v):
        """The unit field n = h / |h| at (u, v), the Bloch vector of e, as a
        (3, ...) float64 array.  sin b and sin a and their squares keep the
        shapes of v and u; only h3, |h|^2 and n take the full shape, each
        element bitwise as with h multiplied out first (x * 1.0 == x)."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        a = TWO_PI * self.winding * u
        b = TWO_PI * v
        h1 = np.sin(b)
        h2 = np.sin(a)
        h3 = self.mass - np.cos(a) - np.cos(b)
        norm = np.sqrt(h1 * h1 + h2 * h2 + h3 * h3)
        n = np.empty((3,) + norm.shape)
        for k, c in enumerate((h1, h2, h3)):
            np.divide(c, norm, out=n[k, ...])
        return n


def bott_projection(degree: int) -> ProjectionField:
    """A smooth degree-``degree`` projection field on the torus.

    The underlying sphere map is a two-band trigonometric field: with unit
    mass it covers the sphere once (winding fixed so the covering is
    positively oriented); composing with u -> degree * u multiplies the
    covering count.  Degree 0 uses mass 3, which pushes the field into one
    hemisphere: smoothly varying but null-homotopic.
    """
    if abs(degree) > MAX_WINDING:
        raise ValueError(f"winding {degree} outside supported range +-{MAX_WINDING}")
    if degree == 0:
        return ProjectionField("bott-0", 0, 1, 3.0)
    return ProjectionField(f"bott-{degree}", degree, degree, 1.0)


_ORACLE_ROWS = 64


def chern_pairing_oracle(field: ProjectionField, m: int) -> complex:
    """Midpoint quadrature of (1 / pi i) * integral Tr(e (e_u e_v - e_v e_u)),
    evaluated as the degree integral of the field in closed form.

    ``Tr(e [e_u, e_v]) = (i / 2) h . (h_u x h_v) / |h|^3`` for
    ``e = (I + n . sigma) / 2``, ``n = h / |h|``.  With
    ``h = (sin b, sin a, M - cos a - cos b)``, ``a = k u``, ``b = 2 pi v``
    and ``k = 2 pi winding``, sin^2 + cos^2 = 1 turns ``h . (h_u x h_v)``
    into ``2 pi k (cos a + cos b - M cos a cos b)``, the Qi-Wu-Zhang
    curvature (Phys. Rev. B 74, 085308, 2006).  The value, twice the Chern
    number, is ``k * mean((cos a + cos b - M cos a cos b) / |h|^3)`` with
    ``|h|^2 = (sin^2 b + sin^2 a) + h3^2``, taken ``_ORACLE_ROWS`` rows at
    a time, u as a column and v as a row, so the transcendentals and
    squares run on 1-D axes.
    """
    if m < 64:
        raise ValueError("grid size must be >= 64")
    pts = (np.arange(m) + 0.5) / m
    k = TWO_PI * field.winding
    b = TWO_PI * pts[None, :]
    cb, sb = np.cos(b), np.sin(b)
    sb2 = sb * sb
    acc = 0.0
    for lo in range(0, m, _ORACLE_ROWS):
        a = k * pts[lo:lo + _ORACLE_ROWS, None]
        ca, sa = np.cos(a), np.sin(a)
        h3 = field.mass - ca - cb
        norm2 = (sb2 + sa * sa) + h3 * h3
        acc += ((ca + cb - field.mass * ca * cb) / (norm2 * np.sqrt(norm2))).sum()
    return complex(k * (acc / (m * m)))
