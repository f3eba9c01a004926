"""The benchmark's seeded workloads and their correctness checks.

Each workload is built from a seed (its set-up: resolving the triple,
validating the catalogue or the projection), then runs *passes*.  A pass is
the work a user of one subcommand waits for, at one worker count; its wall
time is the time to accuracy.  Checks run after the timed region and record
one op per level value, cross-check and bound check; a missed check is a
failed op, never an exception.

Importing this module imports the package (and numpy), so the set-up probe
imports it inside its timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dustcocycle import cocycle, oracle
from dustcocycle.geometry import get_preset

DUST = get_preset("cantor-dust")
CARPET = get_preset("sierpinski-carpet")

SUBDIVISION_RTOL = 1e-12  # pullback and subdivision sums agree to rounding
CHERN_TWICE = 2.0  # the oracle's target: twice the degree-1 Chern number
ORACLE_TOL = 1e-9
IMAG_TOL = 1e-9  # the pairing of a projection is real


@dataclass
class Op:
    name: str
    ok: bool
    detail: str


@dataclass
class Ops:
    """Checks made in a run: one op each."""

    records: list = field(default_factory=list)

    def check(self, name, ok, detail=""):
        self.records.append(Op(name, bool(ok), detail))

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(not r.ok for r in self.records)

    def failures(self):
        return [f"{r.name}: {r.detail}" for r in self.records if not r.ok]


@dataclass
class Pass:
    """One timed pass: its wall time and the values it produced, in order."""

    workers: int
    wall: float
    values: dict
    extra: dict = field(default_factory=dict)


def check_identical(a: Pass, b: Pass, ops: Ops):
    """Results must be bit-identical across worker counts."""
    for key in a.values.keys() | b.values.keys():
        va, vb = a.values.get(key), b.values.get(key)
        ops.check(
            f"bit-identical {key} ({a.workers}w vs {b.workers}w)",
            va is not None and va == vb,
            f"{va!r} vs {vb!r}",
        )


def _finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


# ---------------------------------------------------------------------------
# pullback-converge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PullbackConfig:
    n_start: int = 4
    n_max: int = 12  # the scalar square budget
    tol: float = 1e-4


class PullbackConverge:
    """bott-flux pulled back through the staircase, translated on the torus
    by a seed-drawn (a, b), which leaves the 2 pi^2 target unchanged."""

    name = "pullback-converge"
    config = PullbackConfig()
    quick = PullbackConfig(n_start=2, n_max=6, tol=0.07)

    def __init__(self, seed, meter, cfg):
        self.cfg = cfg
        self.shift = tuple(np.random.default_rng(seed).uniform(0.0, 1.0, 2))
        preset = oracle.get_smooth_preset("bott-flux")
        self.target = complex(preset.target)  # 2 pi^2
        self.fns = tuple(meter.wrap(tf.fn, self.shift) for tf in (preset.f, preset.g, preset.h))
        self.obs = tuple(
            cocycle.pullback_scalar(fn, tf.name)
            for fn, tf in zip(self.fns, (preset.f, preset.g, preset.h))
        )

    def run_pass(self, workers):
        cfg = self.cfg
        values = {}
        t0 = perf_counter()
        for n in range(cfg.n_start, cfg.n_max + 1):
            (row,) = cocycle.convergence_table(
                DUST, [n], *self.obs, target=self.target, workers=workers
            )
            values[f"n={n}"] = row.phi
            if row.abs_err <= cfg.tol:
                break
        values[f"subdivision n={n}"] = cocycle.phi_subdivision(n, *self.fns, workers=workers)
        return Pass(workers, perf_counter() - t0, values, {"n": n})

    def check(self, p: Pass, ops: Ops):
        cfg = self.cfg
        prev = None
        for n in range(cfg.n_start, p.extra["n"] + 1):
            val = p.values[f"n={n}"]
            err = abs(val - self.target)
            ops.check(
                f"level n={n}",
                _finite(val) and (prev is None or err < prev),
                f"phi={val!r} err={err:.3e} prev_err={prev}",
            )
            prev = err
        n = p.extra["n"]
        ops.check(f"accuracy |phi-target|<={cfg.tol:g} by n<={cfg.n_max}", prev <= cfg.tol,
                  f"err={prev:.3e} at n={n}")
        word, sub = p.values[f"n={n}"], p.values[f"subdivision n={n}"]
        ops.check(
            f"pullback == subdivision n={n}",
            abs(sub - word) <= SUBDIVISION_RTOL * abs(word),
            f"pullback={word!r} subdivision={sub!r}",
        )


# ---------------------------------------------------------------------------
# lipschitz-direct
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzConfig:
    dust_levels: tuple = tuple(range(1, 11))
    carpet_levels: tuple = tuple(range(1, 7))


class LipschitzDirect:
    """The ``lipschitz`` subcommand's work: a seeded linear triple on the
    dust, then sine-xy on the (non-product) Sierpinski carpet."""

    name = "lipschitz-direct"
    config = LipschitzConfig()
    quick = LipschitzConfig(dust_levels=tuple(range(1, 6)), carpet_levels=tuple(range(1, 4)))

    def __init__(self, seed, meter, cfg):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        # f stays away from 0; g, h keep a nonzero Jacobian d1*e2 - d2*e1 >= 0.09
        c0 = rng.uniform(1.0, 3.0)
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        d1, e2 = rng.uniform(0.5, 1.5, 2)
        d2, e1 = rng.uniform(-0.4, 0.4, 2)
        self.coeffs = tuple(float(x) for x in (c0, c1, c2, d1, d2, e1, e2))
        linear = (
            cocycle.direct_scalar(meter.wrap(lambda u, v: c0 + c1 * u + c2 * v), "f"),
            cocycle.direct_scalar(meter.wrap(lambda u, v: d1 * u + d2 * v), "g"),
            cocycle.direct_scalar(meter.wrap(lambda u, v: e1 * u + e2 * v), "h"),
        )
        f, g, h, _, _ = cocycle.resolve_functions("sine-xy")
        sine = tuple(
            cocycle.direct_scalar(meter.wrap(o.rule), o.name) for o in (f, g, h)
        )
        self.parts = ((DUST, linear, cfg.dust_levels), (CARPET, sine, cfg.carpet_levels))

    def run_pass(self, workers):
        values, bounds = {}, {}
        t0 = perf_counter()
        for preset, (f, g, h), levels in self.parts:
            for n in levels:
                key = f"{preset.name} n={n}"
                values[key] = cocycle.phi_n(preset, n, f, g, h, workers=workers)
                sup_f, _ = cocycle.estimate_lipschitz(preset, n, f)
                _, lip_g = cocycle.estimate_lipschitz(preset, n, g)
                _, lip_h = cocycle.estimate_lipschitz(preset, n, h)
                bounds[key] = cocycle.lipschitz_bound(preset, n, sup_f, lip_g, lip_h)
        return Pass(workers, perf_counter() - t0, values, {"bounds": bounds})

    def check(self, p: Pass, ops: Ops):
        for preset, _, levels in self.parts:
            prev = None
            for n in levels:
                key = f"{preset.name} n={n}"
                val = abs(p.values[key])
                ops.check(f"level {key} decays", math.isfinite(val) and (prev is None or val < prev),
                          f"|phi|={val:.6e} prev={prev}")
                bound = p.extra["bounds"][key]
                ops.check(f"bound {key}", val <= bound, f"|phi|={val:.6e} bound={bound:.6e}")
                prev = val


# ---------------------------------------------------------------------------
# pairing-chern
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingConfig:
    grid: int = 1024
    n_start: int = 6
    n_max: int = 10  # the matrix square budget
    tol: float = 5e-5


class PairingChern:
    """A degree-1 Bott projection translated by a seed-drawn (a, b); the
    Chern number is translation-invariant, the oracle uses the plain field."""

    name = "pairing-chern"
    config = PairingConfig()
    quick = PairingConfig(grid=128, n_start=4, n_max=7, tol=1e-2)

    def __init__(self, seed, meter, cfg):
        self.cfg = cfg
        self.shift = tuple(np.random.default_rng(seed).uniform(0.0, 1.0, 2))
        self.field = oracle.bott_projection(1)
        self.p = cocycle.Observable(
            f"{self.field.name}+shift", "pullback", "matrix",
            meter.wrap(self.field, self.shift), tag="matrix-projection", dim=2,
        )
        cocycle.validate_projection(self.p, min(cfg.n_max, 6))

    def run_pass(self, workers):
        cfg = self.cfg
        values = {}
        t0 = perf_counter()
        target = oracle.chern_pairing_oracle(self.field, cfg.grid)
        for n in range(cfg.n_start, cfg.n_max + 1):
            val = cocycle.pairing_n(DUST, n, self.p, workers=workers)
            values[f"n={n}"] = val
            if abs(val - target) <= cfg.tol:
                break
        wall = perf_counter() - t0
        values["oracle"] = target
        return Pass(workers, wall, values, {"n": n})

    def check(self, p: Pass, ops: Ops):
        cfg = self.cfg
        target = p.values["oracle"]
        ops.check(f"oracle within {ORACLE_TOL:g} of {CHERN_TWICE:g}",
                  abs(target - CHERN_TWICE) <= ORACLE_TOL, f"oracle={target!r}")
        prev = None
        for n in range(cfg.n_start, p.extra["n"] + 1):
            val = p.values[f"n={n}"]
            err = abs(val - target)
            ops.check(
                f"level n={n}",
                _finite(val) and abs(val.imag) <= IMAG_TOL and (prev is None or err < prev),
                f"pairing={val!r} err={err:.3e} prev_err={prev}",
            )
            prev = err
        ops.check(f"accuracy |pairing-oracle|<={cfg.tol:g} by n<={cfg.n_max}", prev <= cfg.tol,
                  f"err={prev:.3e} at n={p.extra['n']}")


WORKLOADS = {w.name: w for w in (PullbackConverge, LipschitzDirect, PairingChern)}


def make(name, seed, meter, quick=False):
    """Set up workload ``name`` at its full or its quick (tiny-level) sizes."""
    cls = WORKLOADS[name]
    return cls(seed, meter, cls.quick if quick else cls.config)
