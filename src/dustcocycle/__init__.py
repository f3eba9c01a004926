"""Combinatorial integration on the Cantor dust.

A level-n combinatorial integral sums a 4x4 trace kernel over the squares of
an iterated function system; on staircase pullbacks of smooth torus functions
it converges to twice the integral of f dg^dh, while on Lipschitz functions it
decays to zero.  This package evaluates those sums deterministically in
parallel, checks them against torus quadrature oracles, and pairs the limit
functional with smooth matrix projections.
"""

__version__ = "0.1.0"

from .cantor import cantor_dyadic, cantor_level, dust_image, image_cell
from .cocycle import (
    Observable,
    convergence_table,
    cyclicity_residual,
    direct_scalar,
    hochschild_residual,
    pairing_n,
    phi_n,
    phi_subdivision,
    pullback_projection,
    pullback_scalar,
    resolve_functions,
)
from .fredholm import VertexValues, check_constants, kernel_trace, kernel_trace_oracle
from .geometry import (
    CANTOR_DUST,
    FULL_SUBDIVISION_3,
    PRESETS,
    SIERPINSKI_CARPET,
    enumerate_squares,
    get_preset,
    similarity_dimension,
    subdivision_cells,
    vertices,
)
from .oracle import (
    bott_projection,
    chern_pairing_oracle,
    closed_form_target,
    get_smooth_preset,
    wedge_quadrature,
)

__all__ = [
    "CANTOR_DUST",
    "FULL_SUBDIVISION_3",
    "Observable",
    "PRESETS",
    "SIERPINSKI_CARPET",
    "VertexValues",
    "bott_projection",
    "cantor_dyadic",
    "cantor_level",
    "check_constants",
    "chern_pairing_oracle",
    "closed_form_target",
    "convergence_table",
    "cyclicity_residual",
    "direct_scalar",
    "dust_image",
    "enumerate_squares",
    "get_preset",
    "get_smooth_preset",
    "hochschild_residual",
    "image_cell",
    "kernel_trace",
    "kernel_trace_oracle",
    "pairing_n",
    "phi_n",
    "phi_subdivision",
    "pullback_projection",
    "pullback_scalar",
    "resolve_functions",
    "similarity_dimension",
    "subdivision_cells",
    "vertices",
    "wedge_quadrature",
]
