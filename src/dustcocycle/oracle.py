"""Independent ground truth on the torus: quadrature, presets, projections.

Everything here evaluates genuine surface integrals on the flat torus with
the midpoint rule, which is near-exact for trigonometric polynomials.  These
values are what the combinatorial sums are tested against; nothing in this
module touches squares, words or digit maps.

Orientation convention: the u-partial comes before the v-partial everywhere,
matching the vertex cycle v0 -> v1 -> v2 of the square kernel.

The Chern oracle is the degree integral of a projection's unit field.  For
``e = (I + n . sigma) / 2`` the Pauli identities give
``Tr(e [e_u, e_v]) = (i / 2) n . (n_u x n_v)``, and for ``n = h / |h|``
``n . (n_u x n_v) = h . (h_u x h_v) / |h|^3``; so the pairing integral
``(1 / pi i) * integral Tr(e [e_u, e_v])`` is
``(1 / 2 pi) * integral h . (h_u x h_v) / |h|^3`` and no matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusFunction:
    """A 1-periodic function of (u, v) with optional analytic partials."""

    name: str
    fn: Callable
    du: Callable | None = None
    dv: Callable | None = None

    def __call__(self, u, v):
        return self.fn(u, v)

    def partial_u(self, u, v, step=None):
        if self.du is not None:
            return self.du(u, v)
        h = step if step is not None else 1e-5
        return (self.fn((u + h) % 1.0, v) - self.fn((u - h) % 1.0, v)) / (2.0 * h)

    def partial_v(self, u, v, step=None):
        if self.dv is not None:
            return self.dv(u, v)
        h = step if step is not None else 1e-5
        return (self.fn(u, (v + h) % 1.0) - self.fn(u, (v - h) % 1.0)) / (2.0 * h)


def wedge_quadrature(ft, gt, ht, m: int) -> complex:
    """Midpoint-rule value of 2 * integral of f (g_u h_v - g_v h_u) du dv.

    ``m`` is the grid size per axis; partials are analytic when the functions
    carry them, otherwise central differences at step 1/m.
    """
    if m < 4:
        raise ValueError("grid size must be >= 4")
    ft, gt, ht = (_as_torus_function(x) for x in (ft, gt, ht))
    pts = (np.arange(m) + 0.5) / m
    u, v = np.meshgrid(pts, pts, indexing="ij")
    step = 1.0 / m
    w = ft(u, v) * (
        gt.partial_u(u, v, step) * ht.partial_v(u, v, step)
        - gt.partial_v(u, v, step) * ht.partial_u(u, v, step)
    )
    return complex(2.0 * np.mean(w))


def _as_torus_function(x):
    if isinstance(x, TorusFunction):
        return x
    return TorusFunction(getattr(x, "__name__", "fn"), x)


# ---------------------------------------------------------------------------
# smooth preset catalogue
# ---------------------------------------------------------------------------


_ONE = TorusFunction(
    "one",
    lambda u, v: np.ones_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
)

_COS_COS = TorusFunction(
    "cos2piu*cos2piv",
    lambda u, v: np.cos(TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -TWO_PI * np.sin(TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -TWO_PI * np.cos(TWO_PI * u) * np.sin(TWO_PI * v),
)

_SIN_U = TorusFunction(
    "sin2piu",
    lambda u, v: np.sin(TWO_PI * u),
    lambda u, v: TWO_PI * np.cos(TWO_PI * u) * np.ones_like(np.asarray(v, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
)

_SIN_V = TorusFunction(
    "sin2piv",
    lambda u, v: np.sin(TWO_PI * v),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: TWO_PI * np.cos(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
)

_COS_V = TorusFunction(
    "cos2piv",
    lambda u, v: np.cos(TWO_PI * v),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: -TWO_PI * np.sin(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
)

_SIN_UV = TorusFunction(
    "sin2pi(u+v)",
    lambda u, v: np.sin(TWO_PI * (u + v)),
    lambda u, v: TWO_PI * np.cos(TWO_PI * (u + v)),
    lambda u, v: TWO_PI * np.cos(TWO_PI * (u + v)),
)

_COS4_COS = TorusFunction(
    "cos4piu*cos2piv",
    lambda u, v: np.cos(2 * TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -2 * TWO_PI * np.sin(2 * TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -TWO_PI * np.cos(2 * TWO_PI * u) * np.sin(TWO_PI * v),
)

_SIN_4U = TorusFunction(
    "sin4piu",
    lambda u, v: np.sin(2 * TWO_PI * u),
    lambda u, v: 2 * TWO_PI * np.cos(2 * TWO_PI * u) * np.ones_like(np.asarray(v, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
)


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

    ``e = (I + n . sigma) / 2`` where ``n = h / |h|`` for a smooth field
    ``h`` that never vanishes; the sphere map ``n`` has winding number
    ``degree``.  Calling the field gives ``n``, which is how the engine's
    matrix observables describe ``e``.
    """

    name: str
    degree: int
    winding: int
    mass: float

    def _values(self, u, v):
        """The angles (a, b) and the unnormalised field h at (u, v)."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        a = TWO_PI * self.winding * u
        b = TWO_PI * v
        h1 = np.sin(b) * np.ones_like(a)
        h2 = np.sin(a) * np.ones_like(b)
        h3 = self.mass - np.cos(a) - np.cos(b)
        return a, b, (h1, h2, h3)

    def _field(self, u, v):
        """h and its analytic partials h_u, h_v, each a 3-tuple that
        broadcasts (identically zero components are the scalar 0.0)."""
        a, b, h = self._values(u, v)
        k = TWO_PI * self.winding
        hu = (0.0, k * np.cos(a), k * np.sin(a))
        hv = (TWO_PI * np.cos(b), 0.0, TWO_PI * np.sin(b))
        return h, hu, hv

    def __call__(self, u, v):
        """The unit field n = h / |h| at (u, v), the Bloch vector of e, as a
        (3, ...) float64 array; the field's partials are never computed."""
        h = self._values(u, v)[2]
        norm = np.sqrt(h[0] * h[0] + h[1] * h[1] + h[2] * h[2])
        n = np.empty((3,) + norm.shape)
        for k in range(3):
            np.divide(h[k], norm, out=n[k, ...])
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
    evaluated as the degree integral of the field.

    For ``e = (I + n . sigma) / 2`` the Pauli algebra gives
    ``Tr(e [e_u, e_v]) = (i / 2) n . (n_u x n_v)``, and for ``n = h / |h|``
    ``n . (n_u x n_v) = h . (h_u x h_v) / |h|^3``.  The value is therefore
    ``(1 / 2 pi) * mean(h . (h_u x h_v) / |h|^3)``, twice the Chern number,
    computed from the unnormalised field and its analytic partials with no
    matrix and no complex array.  Rows are taken ``_ORACLE_ROWS`` at a time,
    u as a column and v as a row, so the transcendentals run on 1-D axes.
    """
    if m < 64:
        raise ValueError("grid size must be >= 64")
    pts = (np.arange(m) + 0.5) / m
    acc = 0.0
    for lo in range(0, m, _ORACLE_ROWS):
        (h1, h2, h3), (h1u, h2u, h3u), (h1v, h2v, h3v) = field._field(
            pts[lo:lo + _ORACLE_ROWS, None], pts[None, :]
        )
        triple = (
            h1 * (h2u * h3v - h3u * h2v)
            + h2 * (h3u * h1v - h1u * h3v)
            + h3 * (h1u * h2v - h2u * h1v)
        )
        norm2 = h1 * h1 + h2 * h2 + h3 * h3
        acc += (triple / (norm2 * np.sqrt(norm2))).sum()
    return complex(acc / (m * m) / TWO_PI)
