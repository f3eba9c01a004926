#!/usr/bin/env python3
"""Time-to-accuracy benchmark of the dustcocycle phi_n engine.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pullback-converge --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``pullback-converge``, ``lipschitz-direct``,
``pairing-chern``.  The package is imported from ``src/`` next to this
directory, never from an installed copy; without it the command exits 2.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``tta_s``: median wall seconds of a pass at the default worker count
  (``os.cpu_count()``, capped at 2), from the first engine call until the
  workload's accuracy criterion is met; on ``pullback-converge`` the pass
  also includes the subdivision cross-check at the final level, a sum about
  as large as the last level's;
* ``tta_1w_s``: the same pass with ``workers=1``; ``tta_1w_s / tta_s`` is
  printed as the derived scaling and not gated;
* ``setup_s``: median over fresh processes (three up front, two after each
  pair of passes) of the time from ``import dustcocycle`` through triple
  resolution (catalogue quadrature, projection validation) up to the first
  timed call;
* ``peak_rss_mb``: peak resident memory of this process.

Passes alternate worker counts in pairs, the order flipping each pair, until
``--seconds`` is spent (at least three pairs).  ``--trace 1`` runs one untraced
1-worker pass, two traced 1-worker passes and one traced pass at the default
worker count, and reports the per-layer metrics (see ``tracer.py``).  Every
run checks its outputs; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and a result file with
provenance goes to ``perfbench/out/``.  Exit code 1 means a check failed,
2 a usage or set-up error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("pullback-converge", "lipschitz-direct", "pairing-chern")
WORKERS = min(os.cpu_count() or 1, 2)
MIN_PAIRS = 3
HARD_STOP_S = 120.0  # stop adding pairs past this, whatever MIN_PAIRS says
# Set-up probes are spread over the run, so that their median samples the
# same stretches of machine load as the passes do.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PAIR = 2
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"tta_s": "s", "tta_1w_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "kernels.digits_s": "s",
    "kernels.digit_words": "count",
    "kernels.kernel_s": "s",
    "kernels.kernel_squares": "count",
    "kernels.kernel_bytes_computed": "bytes",
    "kernels.leaf_sums_s": "s",
    "oracle.evaluate_s": "s",
    "oracle.vertex_evals": "count",
    "oracle.quadrature_s": "s",
    "cocycle.self_s": "s",
    "cocycle.tasks": "count",
    "cocycle.worker_util_2w": "ratio",
    "kernels.busy_inflation_2w": "ratio",
    "oracle.busy_inflation_2w": "ratio",
    "cocycle.busy_inflation_2w": "ratio",
    "trace.overhead_s": "s",
}

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = {
    "kernels.digits_s": "tta_s mainly on lipschitz-direct, somewhat on pullback-converge",
    "kernels.kernel_s": "tta_s on pairing-chern most, then lipschitz-direct",
    "kernels.leaf_sums_s": "under 1% of tta_s; watched for regressions only",
    "oracle.evaluate_s": "tta_s on pullback-converge",
    "oracle.quadrature_s": "tta_s on pairing-chern; setup_s on pullback-converge",
    "cocycle.self_s": "tta_s everywhere: the gap between layer sums and wall time",
    "cocycle.worker_util_2w": "tta_s relative to tta_1w_s",
    "busy_inflation_2w": "tta_s relative to tta_1w_s",
}
OFF_PATH = ("geometry", "cantor", "fredholm", "cli")


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, a probe failed)."""


def use_source_tree():
    """Put ``src/`` first on the import path, or refuse to run."""
    if not (SRC / "dustcocycle" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'dustcocycle'}")
    sys.path.insert(0, str(SRC))


def _check_imported(package):
    where = Path(package.__file__).resolve()
    if SRC not in where.parents:
        raise SetupError(f"dustcocycle imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _commit():
    """The commit of this file's checkout; git is not allowed above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    """sha256 over the package sources, so an id exists without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dustcocycle").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workers_passed):
    import numpy as np

    from dustcocycle import _kernels

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "backend": _kernels.BACKEND,
        "numba_imported": _kernels.HAVE_NUMBA,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers_passed": workers_passed,
        "seed": args.seed,
        "quick": args.quick,
    }


# ---------------------------------------------------------------------------
# set-up probe (runs in a fresh process)
# ---------------------------------------------------------------------------


def setup_probe(args):
    t0 = perf_counter()
    import dustcocycle
    import tracer
    import workloads

    workloads.make(args.workload, args.seed, tracer.Meter(), quick=args.quick)
    setup_s = perf_counter() - t0
    _check_imported(dustcocycle)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def measure_setup(args, probes):
    """Set-up seconds measured in ``probes`` fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        if out.returncode != 0:
            raise SetupError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _pair(work, ops, order):
    """Run one pass per worker count in ``order``; check each and their agreement."""
    passes = {w: work.run_pass(w) for w in order}
    for p in passes.values():
        work.check(p, ops)
    if WORKERS != 1:
        from workloads import check_identical

        check_identical(passes[WORKERS], passes[1], ops)
    return passes


def _warm_up(args, meter):
    """Untimed tiny pass at each worker count: lazy imports, first allocations."""
    from workloads import make

    warm = make(args.workload, args.seed, meter, quick=True)
    for w in (WORKERS, 1):
        warm.run_pass(w)


def run_untraced(args, start):
    import tracer
    import workloads

    setup_times = measure_setup(args, SETUP_PROBES_FIRST)
    meter = tracer.Meter()
    work = workloads.make(args.workload, args.seed, meter, quick=args.quick)
    _warm_up(args, meter)
    ops = workloads.Ops()
    walls = {WORKERS: [], 1: []}
    longest = 0.0
    min_pairs = 1 if args.quick else MIN_PAIRS
    while True:
        elapsed = perf_counter() - start
        n = len(walls[1])
        if n >= min_pairs and elapsed + longest > args.seconds:
            break
        if n >= 1 and elapsed > HARD_STOP_S:
            break
        order = (WORKERS, 1) if n % 2 == 0 else (1, WORKERS)
        t0 = perf_counter()
        for w, p in _pair(work, ops, order).items():
            walls[w].append(p.wall)
        setup_times += measure_setup(args, SETUP_PROBES_PER_PAIR)
        longest = max(longest, perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "tta_s": statistics.median(walls[WORKERS]),
        "tta_1w_s": statistics.median(walls[1]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "pass_walls_s": {f"{w}w": v for w, v in walls.items()},
        "setup_probes_s": setup_times,
        "scaling_tta_1w_over_tta": metrics["tta_1w_s"] / metrics["tta_s"],
    }
    return metrics, ops, detail, work, None


def run_traced(args, start):
    import dustcocycle
    import tracer
    import workloads

    meter = tracer.Meter()
    setup_trace = tracer.Tracer()
    with setup_trace.attached(dustcocycle, meter):
        work = workloads.make(args.workload, args.seed, meter, quick=args.quick)
    _warm_up(args, meter)
    ops = workloads.Ops()

    untraced = work.run_pass(1)
    work.check(untraced, ops)
    runs = []
    for w in (1, 1, WORKERS):
        tr = tracer.Tracer()
        with tr.attached(dustcocycle, meter):
            p = work.run_pass(w)
        work.check(p, ops)
        runs.append((p, tr))
    (a, ta), (b, tb), (c, tc) = runs
    workloads.check_identical(a, c, ops)
    for other, label in ((tb, "second 1w"), (tc, f"{WORKERS}w")):
        ops.check(f"exact counts repeat ({label} vs first 1w)",
                  other.exact_counts() == ta.exact_counts(),
                  f"{ta.exact_counts()} vs {other.exact_counts()}")

    busy_a, busy_b, busy_c = (tracer.busy_times(t.spans) for t in (ta, tb, tc))
    busy_setup = tracer.busy_times(setup_trace.spans)

    def mean1(key):
        return (busy_a[key] + busy_b[key]) / 2.0

    def layer(busy, prefix):
        return sum(v for k, v in busy.items() if k.startswith(prefix))

    def inflation(prefix):
        base = (layer(busy_a, prefix) + layer(busy_b, prefix)) / 2.0
        return layer(busy_c, prefix) / base

    # every layer's busy time; cocycle's is span self time, so nothing twice
    busy_all_c = sum(busy_c.values())

    counts = ta.exact_counts()
    metrics = {
        "kernels.digits_s": mean1("kernels.digits"),
        "kernels.digit_words": counts["kernels.digit_words"],
        "kernels.kernel_s": mean1("kernels.kernel"),
        "kernels.kernel_squares": counts["kernels.kernel_squares"],
        "kernels.kernel_bytes_computed": counts["kernels.kernel_bytes_computed"],
        "kernels.leaf_sums_s": mean1("kernels.leaf_sums"),
        "oracle.evaluate_s": mean1("oracle.evaluate"),
        "oracle.vertex_evals": counts["oracle.vertex_evals"],
        "oracle.quadrature_s": busy_setup["oracle.quadrature"] + mean1("oracle.quadrature"),
        "cocycle.self_s": mean1("cocycle.self"),
        "cocycle.tasks": counts["cocycle.tasks"],
        "cocycle.worker_util_2w": busy_all_c / (c.wall * WORKERS),
        "kernels.busy_inflation_2w": inflation("kernels."),
        "oracle.busy_inflation_2w": inflation("oracle."),
        "cocycle.busy_inflation_2w": inflation("cocycle."),
        "trace.overhead_s": (a.wall + b.wall) / 2.0 - untraced.wall,
    }
    detail = {
        "untraced_1w_wall_s": untraced.wall,
        "traced_walls_s": {"1w": [a.wall, b.wall], f"{WORKERS}w": [c.wall]},
        "busy_s": {"setup": busy_setup, "1w": [busy_a, busy_b], f"{WORKERS}w": busy_c},
        "layer_sum_1w_s": sum(busy_a.values()),
        "layer_map": LAYER_MAP,
        "off_path_modules": OFF_PATH,
    }
    spans = {
        label: [dataclasses.asdict(s) for s in t.spans]
        for label, t in (("setup", setup_trace), ("1w-a", ta), ("1w-b", tb), (f"{WORKERS}w", tc))
    }
    return metrics, ops, detail, work, spans


def report(args, metrics, units, ops, detail):
    print(f"# {args.workload} seed={args.seed} trace={args.trace} workers={WORKERS},1")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    if "scaling_tta_1w_over_tta" in detail:
        print(f"{'tta_1w_s / tta_s (not gated)':32s} "
              f"{detail['scaling_tta_1w_over_tta']:>16.6g} ratio")
    print(f"ops: {ops.attempted} attempted, {ops.failed} failed")
    for msg in ops.failures():
        print(f"FAILED {msg}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny levels, at least one pass pair: for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def main(argv=None):
    start = perf_counter()
    args = parse_args(argv)
    try:
        use_source_tree()
        if args.setup_probe:
            return setup_probe(args)
        import dustcocycle

        _check_imported(dustcocycle)
        if args.trace:
            metrics, ops, detail, work, spans = run_traced(args, start)
            units = PER_LAYER_UNITS
        else:
            metrics, ops, detail, work, spans = run_untraced(args, start)
            units = END_TO_END_UNITS
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workers_passed = [WORKERS, 1] if WORKERS != 1 else [1]
    result = {
        "workload": args.workload,
        "why": work.__doc__,
        "config": {k: repr(v) for k, v in vars(work.cfg).items()},
        "provenance": provenance(args, workers_passed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures(),
        "detail": detail,
        "wall_s": perf_counter() - start,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    report(args, metrics, units, ops, detail)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": result["metrics"],
    }))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
