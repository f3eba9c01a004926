"""Command-line front end: experiments in, CSV/JSON reports out.

Exit status: 0 success, 1 a numerical check failed, 2 usage error (unknown
names, malformed ranges, budget exceeded without the override flag, a worker
count below 1 in ``--workers`` or ``DUSTCOCYCLE_WORKERS``, an ``--out`` path
in a missing directory or one that cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from . import _kernels as K
from .cantor import cantor_dyadic, image_cell
from .cocycle import (
    CocycleReport,
    convergence_table,
    estimate_lipschitz,
    link_error_ratios,
    lipschitz_bound,
    pairing_n,
    phi_n,
    pullback_projection,
    resolve_functions,
    resolve_workers,
)
from .fredholm import VertexValues, check_constants, kernel_trace, kernel_trace_oracle
from .geometry import PRESETS, enumerate_squares, get_preset, similarity_dimension
from .oracle import (
    bott_projection,
    chern_pairing_oracle,
    get_smooth_preset,
    wedge_quadrature,
)

CSV_COLUMNS = (
    "n",
    "squares",
    "phi_re",
    "phi_im",
    "target_re",
    "target_im",
    "abs_err",
    "err_ratio",
    "ms",
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_PACKAGE_DIR = Path(__file__).resolve().parent


def build_id() -> str:
    """``__version__`` plus the short commit of this package's own source
    checkout, the one it sits in as ``src/dustcocycle`` (never of the
    caller's cwd, nor of an unrelated repository a copy is installed under,
    such as a project holding a venv); plain ``__version__`` elsewhere."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=_PACKAGE_DIR,
        )
        if rev.returncode == 0:
            top, commit = rev.stdout.splitlines()
            if Path(top).resolve() / "src" / "dustcocycle" == _PACKAGE_DIR:
                return f"{__version__}+g{commit}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return __version__


def _provenance(args, extra=None):
    meta = {
        "build": build_id(),
        "backend": K.BACKEND,
        "workers": args.workers,
        "command": args.command,
    }
    if extra:
        meta.update(extra)
    return meta


def _emit(text: str, args) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:  # a usage error (exit 2), not a traceback
            raise ValueError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_object(obj: dict, text: str, args) -> None:
    """Emit a one-object result: ``obj`` as JSON, else the plain ``text``."""
    _emit(json.dumps(obj) + "\n" if args.format == "json" else text, args)


def _emit_table(columns, dicts, args, extra_meta=None) -> None:
    """Emit a table of records in the selected format to --out or stdout;
    CSV writes ``columns``, JSON every key of each record."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for d in dicts:
            writer.writerow([_fmt(d[c]) for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps(
            {"meta": _provenance(args, extra_meta), "records": dicts}, indent=2
        ) + "\n"
    _emit(text, args)


def write_rows(rows: list[CocycleReport], args, extra_meta=None, timing=True) -> None:
    """Emit a convergence report in the selected format to --out or stdout."""
    dicts = []
    for row in rows:
        d = row.as_dict()
        if not timing:
            d["ms"] = 0.0
        dicts.append(d)
    _emit_table(CSV_COLUMNS, dicts, args, extra_meta)


def _parse_n_range(spec: str) -> list[int]:
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty level range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(spec)]


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_run_flags(p):
    """The flags of the commands that run the engine; elsewhere argparse
    refuses them."""
    p.add_argument("--workers", type=int, default=None, help="thread count (env DUSTCOCYCLE_WORKERS)")
    p.add_argument("--override-budget", action="store_true", help="allow runs beyond the square budget")
    p.add_argument("--no-timing", action="store_true", help="zero the ms column for byte-reproducible output")
    _add_output_flags(p)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dustcocycle",
        description="Combinatorial integration on the Cantor dust and its torus oracles.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="single combinatorial integral at one level")
    p.add_argument("--preset", default="cantor-dust", help=f"IFS preset {sorted(PRESETS)}")
    p.add_argument("--functions", default="bott-flux", help="named function triple")
    p.add_argument("--n", required=True, help="level, e.g. 8")
    p.add_argument("--mode", choices=("pullback", "direct"), default=None,
                   help="must match the triple's mode when given")
    _add_run_flags(p)

    p = sub.add_parser("converge", help="convergence table over a level range")
    p.add_argument("--preset", default="cantor-dust")
    p.add_argument("--functions", default="bott-flux")
    p.add_argument("--n", required=True, help="level range, e.g. 4..10")
    _add_run_flags(p)

    p = sub.add_parser("lipschitz", help="decay table and bound check for direct triples")
    p.add_argument("--preset", default="cantor-dust")
    p.add_argument("--functions", default="const-xy")
    p.add_argument("--n", required=True, help="level range, e.g. 1..8")
    _add_run_flags(p)

    p = sub.add_parser("pairing", help="projection pairing vs the quadrature oracle")
    p.add_argument("--preset", default="cantor-dust")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--n", required=True, help="level or range, e.g. 6..10")
    p.add_argument("--grid", type=int, default=1024, help="oracle grid size")
    _add_run_flags(p)

    p = sub.add_parser("cantor", help="staircase value at a triadic point p/3^n")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("dimension", help="similarity dimension of a preset")
    p.add_argument("--preset", default="cantor-dust")
    _add_output_flags(p)

    p = sub.add_parser("oracle", help="torus quadrature of a smooth triple")
    p.add_argument("--functions", default="bott-flux")
    p.add_argument("--grid", type=int, default=512)
    _add_output_flags(p)

    # a text report only, at fixed worker counts: it takes no flags
    sub.add_parser("selftest", help="constants and invariant suite")

    return ap


def _cmd_phi(args) -> int:
    preset = get_preset(args.preset)
    f, g, h, target, mode = resolve_functions(args.functions)
    wanted_mode = getattr(args, "mode", None)
    if wanted_mode and wanted_mode != mode:
        print(f"error: triple {args.functions!r} is {mode}-mode, not {wanted_mode}", file=sys.stderr)
        return 2
    ns = _parse_n_range(args.n)
    rows = convergence_table(
        preset, ns, f, g, h, target=target,
        workers=args.workers, allow_large=args.override_budget,
    )
    write_rows(rows, args, {"functions": args.functions, "preset": preset.name},
               timing=not args.no_timing)
    return 0


LIPSCHITZ_COLUMNS = ("n", "squares", "abs_phi", "bound", "within_bound", "ms")


def _cmd_lipschitz(args) -> int:
    preset = get_preset(args.preset)
    f, g, h, _, mode = resolve_functions(args.functions)
    if mode != "direct":
        print(f"error: lipschitz needs a direct-mode triple, got {args.functions!r}", file=sys.stderr)
        return 2
    ns = _parse_n_range(args.n)
    records = []
    violated = False
    for n in ns:
        t0 = perf_counter()
        val = phi_n(preset, n, f, g, h, workers=args.workers, allow_large=args.override_budget)
        sup_f, _ = estimate_lipschitz(preset, n, f)
        _, lip_g = estimate_lipschitz(preset, n, g)
        _, lip_h = estimate_lipschitz(preset, n, h)
        bound = lipschitz_bound(preset, n, sup_f, lip_g, lip_h)
        ok = abs(val) <= bound
        violated |= not ok
        records.append(
            {
                "n": n,
                "squares": preset.nmaps**n,
                "abs_phi": abs(val),
                "bound": bound,
                "within_bound": int(ok),
                "ms": 0.0 if args.no_timing else (perf_counter() - t0) * 1e3,
            }
        )
    _emit_table(LIPSCHITZ_COLUMNS, records, args, {"functions": args.functions})
    return 1 if violated else 0


def _cmd_pairing(args) -> int:
    preset = get_preset(args.preset)
    field = bott_projection(args.degree)
    p = pullback_projection(field)
    oracle_val = chern_pairing_oracle(field, args.grid)
    rows = []
    for n in _parse_n_range(args.n):
        t0 = perf_counter()
        val = pairing_n(preset, n, p, workers=args.workers, allow_large=args.override_budget)
        rows.append(
            CocycleReport(
                preset=preset.name, n=n, squares=preset.nmaps**n, phi=val,
                target=oracle_val, abs_err=abs(val - oracle_val),
                wall_ms=(perf_counter() - t0) * 1e3,
                workers=args.workers,
            )
        )
    link_error_ratios(rows)
    write_rows(rows, args, {"degree": args.degree, "grid": args.grid},
               timing=not args.no_timing)
    return 0


def _cmd_cantor(args) -> int:
    val = cantor_dyadic(args.p, args.n)
    frac = val.as_fraction()
    value = frac.numerator / frac.denominator
    _emit_object(
        {"p": args.p, "n": args.n, "fraction": str(frac), "value": value},
        f"{frac} {value}\n", args,
    )
    return 0


def _cmd_dimension(args) -> int:
    preset = get_preset(args.preset)
    d = similarity_dimension(preset)
    _emit_object({"preset": preset.name, "dimension": d}, f"{d:.9f}\n", args)
    return 0


def _cmd_oracle(args) -> int:
    preset = get_smooth_preset(args.functions)
    q = wedge_quadrature(preset.f, preset.g, preset.h, args.grid)
    target = None if preset.target is None else complex(preset.target)
    text = f"quadrature {q.real:.12g}{q.imag:+.12g}j\n" + (
        "closed-form none\n" if target is None else f"closed-form {target.real:.12g}\n"
    )
    _emit_object(
        {
            "functions": preset.name,
            "grid": args.grid,
            "quadrature_re": q.real,
            "quadrature_im": q.imag,
            "closed_form_re": None if target is None else target.real,
            "closed_form_im": None if target is None else target.imag,
        },
        text, args,
    )
    return 0


# Pauli matrices sigma_1..3, for the selftest's rank-1 projections
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _cmd_selftest(args) -> int:
    failures = []

    rep = check_constants()
    print(f"constants: {'ok' if rep.ok else 'FAIL'} ({rep.elapsed_ms:.3f} ms)")
    if not rep.ok:
        failures.append(f"constants: {rep.first_violation}")

    rng = np.random.default_rng(20240202)
    worst = 0.0
    for _ in range(200):
        f, g, h = (
            VertexValues(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            for _ in range(3)
        )
        worst = max(worst, abs(kernel_trace(f, g, h) - kernel_trace_oracle(f, g, h)))
    print(f"kernel vs matrix oracle: max |diff| = {worst:.2e}")
    if worst > 1e-12:
        failures.append("kernel oracle mismatch")

    # the engine's scalar kernel on 200 random complex squares, the corners
    # v0..v3 of f, g and h concatenated, at offsets (0, 200, 400, 600)
    z = rng.standard_normal((12, 200)) + 1j * rng.standard_normal((12, 200))
    cells = ((0, 200, 400, 600), 200)
    f, g, h = (np.concatenate(z[i : i + 4], axis=-1) for i in (0, 4, 8))
    got = K.scalar_kernel(f, g, h, cells=cells)
    worst = max(
        abs(got[s] - kernel_trace(*(VertexValues(*z[i : i + 4, s]) for i in (0, 4, 8))))
        for s in range(200)
    )
    print(f"scalar kernel vs closed form: max |diff| = {worst:.2e}")
    if not worst <= 1e-12:
        failures.append("scalar kernel mismatch")

    # a row g (x only) and a column h (y only), as in bott-flux, on the
    # dust's (2, 2, h, w) quadrants and on a shifted H x W box: given
    # compact, they run the kernel's separable path, which forms X Y as one
    # outer product of their edges and skips X' Y', which their zero edges
    # vanish, and must give the general path's bits on the same values
    # materialized as flat lattices (a box's padded cells aside, which are
    # not squares)
    draw = np.random.default_rng(20240203).standard_normal
    rows, cols = 30, 40
    differ = parts = 0
    for full, g_shape, h_shape, layout in (
        ((2, 2, rows, cols), (1, 2, 1, cols), (2, 1, rows, 1),
         ((0, rows * cols, 3 * rows * cols, 2 * rows * cols), rows * cols)),
        ((rows, cols), (1, cols), (rows, 1), ((0, 1, cols + 1, cols), (rows - 1) * cols - 1)),
    ):
        fc = (draw(full) + 1j * draw(full)).reshape(-1)
        gc, hc = draw(g_shape), draw(h_shape) * (1 - 2j)
        got = K.scalar_kernel(fc, gc, hc, cells=layout)
        want = K.scalar_kernel(fc, *(np.broadcast_to(a, full).reshape(-1) for a in (gc, hc)),
                               cells=layout)
        square = np.arange(layout[1]) % cols != cols - 1 if len(full) == 2 else slice(None)
        # +0.0 and -0.0 may trade places where a value is an exact zero
        bits = [(a[square] + 0.0).view(np.int64) for a in (got, want)]
        differ += int((bits[0] != bits[1]).sum())
        parts += bits[0].size
    print(f"scalar kernel separable path, compact vs materialized rows and columns: "
          f"{differ} of {parts} parts differ")
    if differ:
        failures.append("scalar kernel separable path mismatch")

    # the engine's Bloch-vector matrix kernel on 200 squares, each vertex of
    # f, g and h a random rank-1 projection (I + n . sigma) / 2, |n| = 1
    n = rng.standard_normal((12, 3, 200))
    n /= np.sqrt((n * n).sum(axis=1, keepdims=True))
    e = 0.5 * (np.eye(2) + np.einsum("vks,kij->vsij", n, _PAULI))
    f, g, h = (np.concatenate(n[i : i + 4], axis=-1) for i in (0, 4, 8))
    got = K.matrix_kernel(f, g, h, cells=cells)
    worst = max(
        abs(got[s] - kernel_trace_oracle(*(VertexValues(*e[i : i + 4, s]) for i in (0, 4, 8))))
        for s in range(200)
    )
    print(f"matrix kernel vs matrix oracle (rank-1 projections): max |diff| = {worst:.2e}")
    if not worst <= 1e-12:
        failures.append("matrix kernel oracle mismatch")

    # the same with f = g = h, one lattice, as in every pairing: the kernel's
    # block then reuses the cross products and writes the real part as +0
    got = K.matrix_kernel(f, f, f, cells=cells)
    worst = max(
        abs(got[s] - kernel_trace_oracle(*(VertexValues(*e[0:4, s]),) * 3)) for s in range(200)
    )
    print(f"matrix kernel vs matrix oracle (f = g = h): max |diff| = {worst:.2e}")
    if not worst <= 1e-12:
        failures.append("matrix kernel oracle mismatch (f = g = h)")

    bad = 0
    for sq in enumerate_squares(get_preset("cantor-dust"), 4):
        try:
            image_cell(sq)
        except Exception:
            bad += 1
    print(f"digit map order check (n=4): {bad} violations")
    if bad:
        failures.append("digit map violations")

    f, g, h, target, _ = resolve_functions("const-xy")
    preset = get_preset("cantor-dust")
    for n in (1, 2, 3):
        want = 2.0 * (4.0 / 9.0) ** n
        got = phi_n(preset, n, f, g, h, workers=1)
        if abs(got - want) > 1e-12 * want:
            failures.append(f"riemann closed form at n={n}")
    print("riemann closed form (n=1..3): ok" if not any("riemann" in x for x in failures) else "riemann closed form: FAIL")

    # a Lipschitz table's estimates, read back from the maxima its sum took
    # (level n - 1's estimates make level n's sum take them), against a
    # serial walk of the tiles for a copy of each observable
    triple = resolve_functions("sine-xy")[:3]
    for name, n in (("cantor-dust", 6), ("sierpinski-carpet", 4)):
        grid = get_preset(name)
        for level in (n - 1, n):
            phi_n(grid, level, *triple, workers=1)
            got = [estimate_lipschitz(grid, level, obs) for obs in triple]
        same = got == [estimate_lipschitz(grid, n, replace(obs)) for obs in triple]
        print(f"lipschitz maxima, one pass vs tile walk ({name} n={n}): {'ok' if same else 'FAIL'}")
        if not same:
            failures.append(f"lipschitz maxima at {name} n={n}")

    # n = 9 is four tasks, so the 4-worker sum runs on a pool
    a = phi_n(preset, 9, f, g, h, workers=1)
    b = phi_n(preset, 9, f, g, h, workers=4)
    det = a == b
    print(f"worker determinism (n=9): {'ok' if det else 'FAIL'}")
    if not det:
        failures.append("worker determinism")

    if failures:
        for msg in failures:
            print(f"FAIL {msg}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


_HANDLERS = {
    "phi": _cmd_phi,
    "converge": _cmd_phi,
    "lipschitz": _cmd_lipschitz,
    "pairing": _cmd_pairing,
    "cantor": _cmd_cantor,
    "dimension": _cmd_dimension,
    "oracle": _cmd_oracle,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    parent = Path(args.out).parent if getattr(args, "out", None) else None
    if parent and not parent.is_dir():
        # refused before any engine call, not after a whole table
        print(f"error: --out parent {str(parent)!r} is not a directory", file=sys.stderr)
        return 2
    try:
        if "workers" in vars(args):
            # resolve the effective count once, so reports record what ran
            args.workers = resolve_workers(args.workers)
        return _HANDLERS[args.command](args)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message; BudgetError is a ValueError
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
