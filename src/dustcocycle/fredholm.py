"""The fixed 4x4 operator module on a square and its trace kernel.

One square carries a graded 4-dimensional Hilbert space spanned by its
vertices in the fixed basis order (v0, v2, v1, v3): the even pair (corner and
opposite corner) first, the odd pair second.  On it live

* ``F``     -- the self-adjoint symmetry mixing even and odd vertices,
* ``EPSILON`` -- the grading diag(+1, +1, -1, -1),
* ``M``     -- the area-form matrix, block diag(N, N) with N = [[0, 1], [-1, 0]].

Functions act by multiplication, diagonally in the vertex basis.  The trace
Tr(f [F, g] [F, h] M) over one square is the combinatorial integrand; this
module evaluates it both in closed form (:func:`kernel_trace`) and by explicit
matrix algebra (:func:`kernel_trace_oracle`), which serves as the internal
oracle for the closed form.

``F`` has entries +-1/sqrt(2), so every identity among F, EPSILON, M only
involves *products of pairs* of F entries and is exactly rational.
:func:`check_constants` therefore verifies the identities on the integer
carrier A = sqrt(2) * F in exact integer arithmetic and reports deviation 0,
not deviation ~1e-16.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Integer carrier of F: F = F_CARRIER / sqrt(2).
F_CARRIER = np.array(
    [
        [0, 0, 1, 1],
        [0, 0, -1, 1],
        [1, -1, 0, 0],
        [1, 1, 0, 0],
    ],
    dtype=np.int64,
)

F = F_CARRIER / np.sqrt(2.0)

EPSILON = np.diag([1.0, 1.0, -1.0, -1.0])
_EPSILON_INT = np.diag([1, 1, -1, -1]).astype(np.int64)

N = np.array([[0.0, 1.0], [-1.0, 0.0]])
M = np.zeros((4, 4))
M[:2, :2] = N
M[2:, 2:] = N
_M_INT = M.astype(np.int64)

# basis slot b holds vertex BASIS_TO_VERTEX[b]
BASIS_TO_VERTEX = (0, 2, 1, 3)


@dataclass(frozen=True)
class VertexValues:
    """Values of one function at the four vertices of a square.

    Entries are complex scalars or complex (N, N) matrices; mixing kinds in
    one instance is rejected.  Differences are always oriented
    ``value(j) - value(i)``.
    """

    v0: object
    v1: object
    v2: object
    v3: object

    def __post_init__(self):
        kinds = {self._kind_of(v) for v in self.values}
        if len(kinds) != 1:
            raise ValueError(f"mixed-kind VertexValues: {sorted(kinds)}")
        if self.kind == "matrix":
            dims = {np.asarray(v).shape for v in self.values}
            if len(dims) != 1:
                raise ValueError(f"matrix VertexValues with mixed shapes: {sorted(dims)}")
            shape = dims.pop()
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"matrix VertexValues must be square, got {shape}")

    @staticmethod
    def _kind_of(v):
        return "matrix" if isinstance(v, np.ndarray) and np.asarray(v).ndim > 0 else "scalar"

    @property
    def values(self):
        return (self.v0, self.v1, self.v2, self.v3)

    @property
    def kind(self):
        return self._kind_of(self.v0)

    @property
    def dim(self):
        """Matrix dimension N, or 0 for scalar values."""
        return np.asarray(self.v0).shape[0] if self.kind == "matrix" else 0

    def value(self, i):
        return self.values[i]


def _check_compatible(*vals):
    kinds = {v.kind for v in vals}
    if len(kinds) != 1:
        raise ValueError(f"VertexValues of mixed kind: {sorted(kinds)}")
    dims = {v.dim for v in vals}
    if len(dims) != 1:
        raise ValueError(f"matrix VertexValues of mixed dimension: {sorted(dims)}")


def build_rho(f: VertexValues) -> np.ndarray:
    """Multiplication operator of ``f``: diagonal in the fixed basis order.

    A (4N, 4N) block diagonal with blocks f(v0), f(v2), f(v1), f(v3); a
    scalar is a 1 x 1 block, so its operator is the 4 x 4 diagonal.
    """
    nn = f.dim or 1
    out = np.zeros((4 * nn, 4 * nn), dtype=np.complex128)
    for b, i in enumerate(BASIS_TO_VERTEX):
        out[b * nn : (b + 1) * nn, b * nn : (b + 1) * nn] = f.value(i)
    return out


def _lift(a, dim):
    """The 4 x 4 operator ``a`` on the (4N, 4N) space of N x N values."""
    return np.kron(a, np.eye(dim or 1))


def commutator(f: VertexValues) -> np.ndarray:
    """[F, rho(f)]: off-diagonal blocks built from vertex differences / sqrt(2)."""
    rho = build_rho(f)
    ff = _lift(F, f.dim)
    return ff @ rho - rho @ ff


def kernel_trace(f: VertexValues, g: VertexValues, h: VertexValues) -> complex:
    """Closed-form Tr(f [F, g] [F, h] M) on one square.

    A scalar is the N = 1 case: for matrix values each product keeps the
    written order f(i) g_.. h_.. and the result is the trace of the bracket
    over the matrix factor.
    """
    _check_compatible(f, g, h)
    mul = operator.mul if f.kind == "scalar" else np.matmul

    def d(vv, i, j):
        return vv.value(j) - vv.value(i)

    t = mul(f.value(0), mul(d(g, 0, 1), d(h, 1, 2)) - mul(d(g, 0, 3), d(h, 3, 2)))
    t += mul(f.value(2), mul(d(g, 2, 3), d(h, 3, 0)) - mul(d(g, 2, 1), d(h, 1, 0)))
    t -= mul(f.value(1), mul(d(g, 1, 0), d(h, 0, 3)) - mul(d(g, 1, 2), d(h, 2, 3)))
    t -= mul(f.value(3), mul(d(g, 3, 2), d(h, 2, 1)) - mul(d(g, 3, 0), d(h, 0, 1)))
    return complex(0.5 * (t if f.kind == "scalar" else np.trace(t)))


def kernel_trace_oracle(f: VertexValues, g: VertexValues, h: VertexValues) -> complex:
    """Tr(f [F, g] [F, h] M) by explicit matrix assembly and multiplication."""
    _check_compatible(f, g, h)
    prod = build_rho(f) @ commutator(g) @ commutator(h) @ _lift(M, f.dim)
    return complex(np.trace(prod))


@dataclass(frozen=True)
class ConstantsReport:
    checks: tuple  # (name, max abs deviation) in check order
    elapsed_ms: float

    @property
    def ok(self):
        return all(dev == 0 for _, dev in self.checks)

    @property
    def first_violation(self):
        for name, dev in self.checks:
            if dev != 0:
                return name, dev
        return None


def _area_identity_deviation(a, k: int) -> int:
    """Exact max-abs deviation of M + (2/e^2) [F, x] [F, y] at edge e = 3**-k.

    Exact bookkeeping: the coordinate diagonals on an edge-e square are
    e * X1 and e * Y1 with integer X1 = diag(0,1,1,0), Y1 = diag(0,1,0,1) in
    basis order (the corner offset drops out of commutators), and
    [F, .][F, .] carries a factor 1/2 from the two sqrt(2) denominators.  The
    edge powers cancel against 2/e^2 * 1/2, leaving the integer identity
    -[A, X1][A, Y1] = M, evaluated here per requested edge level.
    """
    scaled = 3**k  # numerator of e-scaled coordinates; cancels exactly below
    x1 = np.diag([0, scaled, scaled, 0]).astype(object)
    y1 = np.diag([0, scaled, 0, scaled]).astype(object)
    a = a.astype(object)
    cx = a @ x1 - x1 @ a
    cy = a @ y1 - y1 @ a
    got = -(cx @ cy)  # times 1/(scaled**2), cancelled against 2/e^2 * 1/2
    dev = np.abs(got - scaled * scaled * _M_INT.astype(object)).max()
    return int(dev)


def check_constants() -> ConstantsReport:
    """Verify the operator identities exactly.

    Checks, in order: F self-adjoint, F^2 = identity, F anticommutes with the
    grading, M = diag(N, N), and M = -(2/e^2)[F, x][F, y] for edge lengths
    e in {1, 1/3, 1/9}.  Deviations are exact integers/Fractions reported as
    floats; any nonzero entry flags the first violated identity.
    """
    t0 = perf_counter()
    a = F_CARRIER
    checks = []

    dev = int(np.abs(a - a.T).max())
    checks.append(("F self-adjoint", dev))

    dev = int(np.abs(a @ a - 2 * np.eye(4, dtype=np.int64)).max())
    checks.append(("F squared = identity", dev))

    dev = int(np.abs(a @ _EPSILON_INT + _EPSILON_INT @ a).max())
    checks.append(("F anticommutes with grading", dev))

    nxn = np.zeros((4, 4), dtype=np.int64)
    nxn[:2, :2] = [[0, 1], [-1, 0]]
    nxn[2:, 2:] = [[0, 1], [-1, 0]]
    checks.append(("M = N (+) N", int(np.abs(_M_INT - nxn).max())))

    for k in (0, 1, 2):
        checks.append((f"M identity at edge 1/3^{k}", _area_identity_deviation(a, k)))

    return ConstantsReport(tuple(checks), (perf_counter() - t0) * 1e3)
