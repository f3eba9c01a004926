"""Pinned bits: phi of one case per kernel layout, as ``float.hex``.

Every change to the engine so far has kept each phi bitwise equal to its
parent's; these pins turn that into a check that runs every time.  There is
one case per layout the trace kernels read, or way a sum places its tiles:

* pullback Morton tiles (several tasks at n = 9), real and complex rules;
* subdivision tiles of whole rows;
* the dust's direct quadrant tiles;
* the carpet's box tiles;
* ``full-subdivision-3``'s box tiles, 9**5 words each, one per task and
  never a whole number of leaves (ids ``full-subdivision-3-words``, pinned
  when every word of this preset was digit-mapped, and held when its tasks
  became single tiles);
* the matrix kernel, through ``pairing_n``;
* separable triples, g of u only and h of v only, on pullback and
  subdivision tiles, real and complex (the complex subdivision at n = 0 is
  a call of one cell).

Each runs on one and on two workers, with the engine's tile caches as
earlier tests left them and cleared before the call.  The rules are polynomials (and a Bloch
field normalised with ``sqrt``), so the pins rest on IEEE arithmetic alone,
not on the platform's libm.  Some rules depend on one coordinate only, so
their values reach the kernel as compact rows or columns.
"""

import numpy as np
import pytest

from dustcocycle import cocycle
from dustcocycle.cocycle import (
    Observable, direct_scalar, pairing_n, phi_n, phi_subdivision,
)
from dustcocycle.geometry import get_preset

DUST = get_preset("cantor-dust")
CARPET = get_preset("sierpinski-carpet")
FULL = get_preset("full-subdivision-3")


def _pullback(rule):
    return Observable("poly", "pullback", "scalar", rule)


PULLBACK = (
    _pullback(lambda u, v: 0.7 + u * v / 3.0),
    _pullback(lambda u, v: u * u * (0.3 - 0.1 * u)),  # u only: a broadcast row
    _pullback(lambda u, v: v - 0.7 * v * v * v + 1j * (0.3 * u * u + 0.1 * v)),
)

SUBDIVISION = (
    lambda u, v: 0.1 + u * v / 3.0,
    lambda u, v: 0.7 * u * u - 0.1 * v,
    lambda u, v: v * v / 3.0 + 0.3 * u,
)

DIRECT = (
    direct_scalar(lambda x, y: 0.1 + x * y / 3.0, "0.1+xy/3"),
    direct_scalar(lambda x, y: 0.7 * x * x, "0.7x^2"),  # x only: a broadcast row
    direct_scalar(lambda x, y: y * (0.3 - y), "y(0.3-y)"),  # y only: a broadcast column
)


def _bloch(u, v):
    """A unit Bloch field of polynomials, normalised with sqrt; its third
    component never vanishes on the unit square."""
    u, v = np.broadcast_arrays(u, v)
    n = np.stack((u - 0.3, v - 0.6, 0.25 + u * v))
    return n / np.sqrt((n * n).sum(axis=0))


PROJECTION = Observable("poly-bloch", "pullback", "matrix", _bloch, dim=2)

# f full, g of u only (a row), h of v only (a column)
SEPARABLE = (
    _pullback(lambda u, v: 0.2 + u * v - 0.3 * v * v),
    _pullback(lambda u, v: u * (0.4 - u * u)),
    _pullback(lambda u, v: 0.5 * v * v - 0.2 * v),
)

SUBDIVISION_SEPARABLE = (
    lambda u, v: 0.3 - u * v / 3.0 + 0.1 * u,
    lambda u, v: u * u * (0.7 - 0.2 * u),
    lambda u, v: v * (0.6 - v),
)

COMPLEX_SEPARABLE = (
    _pullback(lambda u, v: 0.4 + u * v + 0.2j * (u - v * v)),
    _pullback(lambda u, v: u * u + 0.3j * u),
    _pullback(lambda u, v: v - 0.2j * v * v),
)

CASES = {
    "pullback": lambda n, w: phi_n(DUST, n, *PULLBACK, workers=w),
    "subdivision": lambda n, w: phi_subdivision(n, *SUBDIVISION, workers=w),
    "dust-direct": lambda n, w: phi_n(DUST, n, *DIRECT, workers=w),
    "carpet-direct": lambda n, w: phi_n(CARPET, n, *DIRECT, workers=w),
    "full-subdivision-3-words": lambda n, w: phi_n(FULL, n, *DIRECT, workers=w),
    "pairing": lambda n, w: pairing_n(DUST, n, PROJECTION, workers=w),
    "pullback-separable": lambda n, w: phi_n(DUST, n, *SEPARABLE, workers=w),
    "subdivision-separable": lambda n, w: phi_subdivision(n, *SUBDIVISION_SEPARABLE, workers=w),
    "pullback-complex-separable": lambda n, w: phi_n(DUST, n, *COMPLEX_SEPARABLE, workers=w),
    "subdivision-complex-separable": lambda n, w: phi_subdivision(
        n, *(o.rule for o in COMPLEX_SEPARABLE), workers=w),
}

# (case, n) -> (real.hex(), imag.hex()), computed before the flat-cell kernels
PINS = {
    ("pullback", 0): ("0x0.0p+0", "0x0.0p+0"),
    ("pullback", 1): ("0x0.0p+0", "0x0.0p+0"),
    ("pullback", 5): ("-0x1.3b052affffff0p-9", "-0x1.0000000000000p-59"),
    ("pullback", 9): ("-0x1.79d4b05ebc4e0p-9", "-0x1.8000000000000p-58"),
    ("subdivision", 0): ("0x1.8b7dd695bb472p-4", "0x0.0p+0"),
    ("subdivision", 1): ("0x1.e517702f54e0cp-4", "0x0.0p+0"),
    ("subdivision", 5): ("0x1.039f50fb38a95p-3", "0x0.0p+0"),
    ("subdivision", 9): ("0x1.03b0f19d0a706p-3", "0x0.0p+0"),
    ("dust-direct", 0): ("-0x1.6ff513cc1e098p-3", "0x0.0p+0"),
    ("dust-direct", 1): ("-0x1.08bf4fbd30c09p-3", "0x0.0p+0"),
    ("dust-direct", 5): ("-0x1.5e098aecaf035p-8", "0x0.0p+0"),
    ("dust-direct", 9): ("-0x1.b50e8fbc542fep-13", "0x0.0p+0"),
    ("carpet-direct", 0): ("-0x1.6ff513cc1e098p-3", "0x0.0p+0"),
    ("carpet-direct", 1): ("-0x1.d466aecc5a358p-3", "0x0.0p+0"),
    ("carpet-direct", 3): ("-0x1.82b259b4b1314p-3", "0x0.0p+0"),
    ("carpet-direct", 6): ("-0x1.0fbcdc5374260p-3", "0x0.0p+0"),
    ("full-subdivision-3-words", 0): ("-0x1.6ff513cc1e098p-3", "0x0.0p+0"),
    ("full-subdivision-3-words", 1): ("-0x1.fd490654cf531p-3", "0x0.0p+0"),
    ("full-subdivision-3-words", 3): ("-0x1.08d23e4084aaep-2", "0x0.0p+0"),
    ("full-subdivision-3-words", 6): ("-0x1.08f3498f3888dp-2", "0x0.0p+0"),
    ("pairing", 0): ("0x0.0p+0", "0x0.0p+0"),
    ("pairing", 1): ("0x0.0p+0", "0x0.0p+0"),
    ("pairing", 5): ("0x1.cb5eb87d35b4cp-4", "0x0.0p+0"),
    ("pairing", 9): ("0x1.e2e5ada1b49f9p-4", "0x0.0p+0"),
    # computed before rows and columns reached the kernel compact
    ("pullback-separable", 0): ("0x0.0p+0", "0x0.0p+0"),
    ("pullback-separable", 1): ("0x1.0000000000000p-62", "0x0.0p+0"),
    ("pullback-separable", 5): ("-0x1.10bea80000001p-5", "0x0.0p+0"),
    ("pullback-separable", 9): ("-0x1.50b0fbd6aa802p-5", "0x0.0p+0"),
    ("subdivision-separable", 0): ("-0x1.b4e81b4e81b4ep-4", "0x0.0p+0"),
    ("subdivision-separable", 1): ("-0x1.4395810624dd3p-4", "0x0.0p+0"),
    ("subdivision-separable", 5): ("-0x1.1668be76c8b43p-4", "0x0.0p+0"),
    ("subdivision-separable", 9): ("-0x1.1639ae27e402bp-4", "0x0.0p+0"),
    ("pullback-complex-separable", 1): ("0x0.0p+0", "0x0.0p+0"),
    ("pullback-complex-separable", 5): ("0x0.0p+0", "-0x1.2c4fffffffff8p-7"),
    ("pullback-complex-separable", 9): ("-0x1.2000000000000p-52", "-0x1.67d71a5000008p-7"),
    ("subdivision-complex-separable", 0): ("0x1.60c49ba5e353fp+0", "0x1.0a3d70a3d70a2p-3"),
    ("subdivision-complex-separable", 1): ("0x1.816872b020c4ap+0", "0x1.63d70a3d70a3cp-3"),
    ("subdivision-complex-separable", 5): ("0x1.8c3ed916872b0p+0", "0x1.7bedca3d70a3dp-3"),
}


@pytest.mark.parametrize("case, n", sorted(PINS), ids=lambda x: str(x))
@pytest.mark.parametrize("workers", [1, 2])
def test_phi_bits_pinned(case, n, workers):
    z = complex(CASES[case](n, workers))
    assert (z.real.hex(), z.imag.hex()) == PINS[case, n]


@pytest.mark.parametrize("case, n", sorted(PINS), ids=lambda x: str(x))
@pytest.mark.parametrize("workers", [1, 2])
def test_phi_bits_pinned_cold_tiles(case, n, workers):
    """The pins hold when every tile is built afresh for the call."""
    for tiles in (cocycle._pullback_tile, cocycle._subdivision_tile, cocycle._direct_tile):
        tiles.cache_clear()
    test_phi_bits_pinned(case, n, workers)
