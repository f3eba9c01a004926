"""Independent ground truth on the torus: quadrature, presets, projections.

Everything here evaluates genuine surface integrals on the flat torus with
the midpoint rule, which is near-exact for trigonometric polynomials.  These
values are what the combinatorial sums are tested against; nothing in this
module touches squares, words or digit maps.

Orientation convention: the u-partial comes before the v-partial everywhere,
matching the vertex cycle v0 -> v1 -> v2 of the square kernel.
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


def _tf(name, fn, du, dv):
    return TorusFunction(name, fn, du, dv)


_ONE = _tf(
    "one",
    lambda u, v: np.ones_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
)

_COS_COS = _tf(
    "cos2piu*cos2piv",
    lambda u, v: np.cos(TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -TWO_PI * np.sin(TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -TWO_PI * np.cos(TWO_PI * u) * np.sin(TWO_PI * v),
)

_SIN_U = _tf(
    "sin2piu",
    lambda u, v: np.sin(TWO_PI * u) * np.ones_like(np.asarray(v, dtype=np.float64)),
    lambda u, v: TWO_PI * np.cos(TWO_PI * u) * np.ones_like(np.asarray(v, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
)

_SIN_V = _tf(
    "sin2piv",
    lambda u, v: np.sin(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: TWO_PI * np.cos(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
)

_COS_V = _tf(
    "cos2piv",
    lambda u, v: np.cos(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: np.zeros_like(np.asarray(u, dtype=np.float64)),
    lambda u, v: -TWO_PI * np.sin(TWO_PI * v) * np.ones_like(np.asarray(u, dtype=np.float64)),
)

_SIN_UV = _tf(
    "sin2pi(u+v)",
    lambda u, v: np.sin(TWO_PI * (u + v)),
    lambda u, v: TWO_PI * np.cos(TWO_PI * (u + v)),
    lambda u, v: TWO_PI * np.cos(TWO_PI * (u + v)),
)

_COS4_COS = _tf(
    "cos4piu*cos2piv",
    lambda u, v: np.cos(2 * TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -2 * TWO_PI * np.sin(2 * TWO_PI * u) * np.cos(TWO_PI * v),
    lambda u, v: -TWO_PI * np.cos(2 * TWO_PI * u) * np.sin(TWO_PI * v),
)

_SIN_4U = _tf(
    "sin4piu",
    lambda u, v: np.sin(2 * TWO_PI * u) * np.ones_like(np.asarray(v, dtype=np.float64)),
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

    ``e = (I + n . sigma) / 2`` where ``n`` is a smooth map into the unit
    sphere whose winding number is ``degree``.
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
        a, b, (h1, h2, h3) = self._values(u, v)
        h1u = np.zeros_like(h1)
        h1v = TWO_PI * np.cos(b) * np.ones_like(a)
        h2u = TWO_PI * self.winding * np.cos(a) * np.ones_like(b)
        h2v = np.zeros_like(h2)
        h3u = TWO_PI * self.winding * np.sin(a) * np.ones_like(b)
        h3v = TWO_PI * np.sin(b) * np.ones_like(a)
        return (h1, h2, h3), (h1u, h2u, h3u), (h1v, h2v, h3v)

    @staticmethod
    def _normalise(h):
        """The unit vector h / |h| and the norm |h|."""
        norm = np.sqrt(h[0] * h[0] + h[1] * h[1] + h[2] * h[2])
        return tuple(c / norm for c in h), norm

    def unit_field(self, u, v):
        """The unit sphere map and its partials, each a 3-tuple of arrays."""
        h, hu, hv = self._field(u, v)
        n, norm = self._normalise(h)
        out = []
        for dh in (hu, hv):
            radial = (n[0] * dh[0] + n[1] * dh[1] + n[2] * dh[2])
            out.append(tuple((dh[i] - n[i] * radial) / norm for i in range(3)))
        return n, out[0], out[1]

    @staticmethod
    def _pack(n1, n2, n3):
        """(I + n . sigma) / 2 stacked as (..., 2, 2)."""
        shape = np.broadcast(n1, n2, n3).shape
        e = np.empty(shape + (2, 2), dtype=np.complex128)
        e[..., 0, 0] = 0.5 * (1.0 + n3)
        e[..., 0, 1] = 0.5 * (n1 - 1j * n2)
        e[..., 1, 0] = 0.5 * (n1 + 1j * n2)
        e[..., 1, 1] = 0.5 * (1.0 - n3)
        return e

    def __call__(self, u, v):
        """e(u, v) alone: the field's partials are never computed."""
        n, _ = self._normalise(self._values(u, v)[2])
        return self._pack(*n)

    def with_partials(self, u, v):
        """(e, e_u, e_v) as (..., 2, 2) arrays from one unit-field evaluation;
        e_u and e_v are derivatives of a projection, so the diagonal identity
        part drops out."""
        n, nu, nv = self.unit_field(u, v)
        eu = self._pack(*nu) - 0.5 * np.eye(2)
        ev = self._pack(*nv) - 0.5 * np.eye(2)
        return self._pack(*n), eu, ev

    def partials(self, u, v):
        """(e_u, e_v) as (..., 2, 2) arrays."""
        return self.with_partials(u, v)[1:]


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


def chern_pairing_oracle(field: ProjectionField, m: int, row_block: int = 64) -> complex:
    """Midpoint quadrature of (1 / pi i) * integral Tr(e (e_u e_v - e_v e_u)).

    Evaluated in row blocks to bound memory at large grids.
    """
    if m < 64:
        raise ValueError("grid size must be >= 64")
    pts = (np.arange(m) + 0.5) / m
    acc = 0.0 + 0.0j
    for lo in range(0, m, row_block):
        hi = min(m, lo + row_block)
        u, v = np.meshgrid(pts[lo:hi], pts, indexing="ij")
        e, eu, ev = field.with_partials(u, v)
        comm = eu @ ev - ev @ eu
        acc += np.einsum("...ij,...ji->...", e, comm).sum()
    return complex(acc / (m * m) / (1j * math.pi))
