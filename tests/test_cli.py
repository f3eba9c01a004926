"""The command-line interface: formats, stability, exit codes."""

import csv
import io
import json
import os
import shutil
import subprocess
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import numpy as np

from dustcocycle import __version__, cli, cocycle
from dustcocycle import _kernels as K
from dustcocycle.cli import CSV_COLUMNS, build_id, main
from dustcocycle.oracle import SMOOTH_PRESETS, ProjectionField

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_schema(name):
    return json.loads((REPO_ROOT / "schemas" / f"{name}.schema.json").read_text())


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def bent_triple(bad):
    """A factory for linear-xy with h, "bent-y", ``bad`` where x > 1/2."""
    def triple():
        f, g, _ = cocycle.DIRECT_PRESETS["linear-xy"]()
        bent = cocycle.direct_scalar(
            lambda u, v: np.where(np.asarray(u) > 0.5, bad, np.asarray(u) + v), "bent-y")
        return f, g, bent

    return triple


class TestConverge:
    def test_csv_shape_and_values(self):
        code, out = run_cli(
            "converge", "--preset", "cantor-dust", "--functions", "const-xy",
            "--n", "1..4", "--workers", "1",
        )
        assert code == 0
        assert out.endswith("\n") and "\r" not in out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert [int(r["n"]) for r in rows] == [1, 2, 3, 4]
        got = float(rows[0]["phi_re"])
        assert got == pytest.approx(2.0 * 4.0 / 9.0, rel=1e-12)
        assert float(rows[2]["err_ratio"]) == pytest.approx(4.0 / 9.0, rel=1e-9)

    def test_seventeen_significant_digits(self):
        code, out = run_cli(
            "converge", "--functions", "const-xy", "--n", "2", "--workers", "1",
        )
        row = list(csv.DictReader(io.StringIO(out)))[0]
        # %.17g round-trips doubles: parsing and re-formatting is the identity
        assert row["phi_re"] == format(float(row["phi_re"]), ".17g")
        assert float(row["phi_re"]) == pytest.approx(2.0 * (4.0 / 9.0) ** 2, rel=1e-14)

    def test_flux_error_column_shrinks(self):
        code, out = run_cli(
            "converge", "--preset", "cantor-dust", "--functions", "bott-flux",
            "--n", "4..8", "--workers", "2",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        errs = [float(r["abs_err"]) for r in rows]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.25

    def test_bytes_stable_across_worker_counts(self, tmp_path):
        paths = []
        for w in (1, 2):
            p = tmp_path / f"w{w}.csv"
            code, _ = run_cli(
                "converge", "--functions", "bott-flux", "--n", "3..6",
                "--workers", str(w), "--no-timing", "--out", str(p),
            )
            assert code == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    def test_json_validates_against_shipped_schema(self, tmp_path):
        p = tmp_path / "report.json"
        code, _ = run_cli(
            "converge", "--functions", "bott-flux", "--n", "2..4",
            "--format", "json", "--workers", "2", "--out", str(p),
        )
        assert code == 0
        payload = json.loads(p.read_text())
        schema = json.loads((REPO_ROOT / "schemas" / "report.schema.json").read_text())
        jsonschema.validate(payload, schema)
        assert payload["meta"]["command"] == "converge"
        assert len(payload["records"]) == 3


class TestLipschitz:
    def test_riemann_preset_closed_form(self):
        code, out = run_cli("lipschitz", "--n", "1..6", "--workers", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            n = int(row["n"])
            assert float(row["abs_phi"]) == pytest.approx(2.0 * (4.0 / 9.0) ** n, rel=1e-12)
            assert row["within_bound"] == "1"

    def test_pullback_preset_rejected(self):
        code, _ = run_cli("lipschitz", "--functions", "bott-flux", "--n", "1..2")
        assert code == 2

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    @pytest.mark.parametrize("preset, functions", [
        ("cantor-dust", "linear-xy"), ("sierpinski-carpet", "sine-xy"),
    ])
    def test_json_validates_against_shipped_schema(self, tmp_path, preset, functions):
        p = tmp_path / "lipschitz.json"
        code, _ = run_cli(
            "lipschitz", "--preset", preset, "--functions", functions, "--n", "0..3",
            "--format", "json", "--workers", "2", "--out", str(p),
        )
        assert code == 0
        payload = json.loads(p.read_text())
        jsonschema.validate(payload, load_schema("lipschitz"))
        assert payload["meta"]["functions"] == functions
        assert [r["n"] for r in payload["records"]] == [0, 1, 2, 3]


class TestPairing:
    def test_small_run_reports_oracle(self):
        code, out = run_cli(
            "pairing", "--degree", "1", "--n", "6", "--grid", "128", "--workers", "2",
        )
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert float(row["target_re"]) == pytest.approx(2.0, abs=1e-3)
        assert float(row["phi_re"]) == pytest.approx(2.0, abs=0.05)

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    def test_json_error_ratios_link_rows(self):
        code, out = run_cli(
            "pairing", "--n", "4..6", "--grid", "64", "--format", "json", "--workers", "2",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("report"))
        records = payload["records"]
        assert records[0]["err_ratio"] is None
        for prev, cur in zip(records, records[1:]):
            assert cur["err_ratio"] == cur["abs_err"] / prev["abs_err"]


class TestWorkers:
    @pytest.mark.parametrize("command", [
        ("phi", "--functions", "const-xy", "--n", "2"),
        ("pairing", "--n", "2", "--grid", "64"),
    ])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_flag_rejected(self, command, workers):
        code, out = run_cli(*command, "--workers", workers, "--format", "json")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5"])
    def test_bad_env_rejected(self, monkeypatch, capsys, value):
        monkeypatch.setenv("DUSTCOCYCLE_WORKERS", value)
        code, out = run_cli("phi", "--functions", "const-xy", "--n", "2")
        assert code == 2 and out == ""
        assert "DUSTCOCYCLE_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("phi", "--functions", "const-xy", "--n", "2"),
        ("pairing", "--n", "2", "--grid", "64"),
    ])
    def test_json_records_effective_count(self, monkeypatch, command):
        monkeypatch.setenv("DUSTCOCYCLE_WORKERS", "3")
        code, out = run_cli(*command, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["meta"]["workers"] == 3
        assert payload["records"][0]["workers"] == 3

    def test_json_default_count_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("DUSTCOCYCLE_WORKERS", raising=False)
        code, out = run_cli("phi", "--functions", "const-xy", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["workers"] == (os.cpu_count() or 1)


class TestRunFlagsOnlyWhereUsed:
    """--workers, --override-budget and --no-timing exist only on the commands
    that run the engine; elsewhere argparse refuses them with exit 2."""

    @pytest.mark.parametrize("command", [
        ("cantor", "--p", "1", "--n", "1"),
        ("dimension",),
        ("oracle", "--grid", "64"),
        ("selftest",),
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("flag", [("--workers", "2"), ("--override-budget",), ("--no-timing",)],
                             ids=lambda f: f[0])
    def test_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, *flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("cantor", "--p", "1", "--n", "1"), ("dimension",)])
    def test_bad_worker_env_is_ignored_where_no_engine_runs(self, monkeypatch, command):
        monkeypatch.setenv("DUSTCOCYCLE_WORKERS", "0")
        code, out = run_cli(*command)
        assert code == 0 and out


class TestReportRecords:
    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    def test_phi_json_has_no_unfilled_residual_fields(self):
        code, out = run_cli("phi", "--functions", "bott-flux", "--n", "3", "--format", "json",
                            "--workers", "1")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("report"))
        (record,) = payload["records"]
        assert "cyclicity" not in record and "hochschild" not in record


class TestBuildId:
    @pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
    def test_ignores_callers_checkout(self, tmp_path, monkeypatch):
        # run from inside another git repository: its commit must not leak in
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
               "-C", str(tmp_path)]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "other"], check=True)
        other = subprocess.run(
            git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        expected = build_id()
        monkeypatch.chdir(tmp_path)
        got = build_id()
        assert got == expected and other not in got
        assert got.startswith(__version__)

    @pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
    def test_ignores_checkout_a_copy_is_installed_under(self, tmp_path, monkeypatch):
        # a venv inside a project repository that ignores it: the package
        # copy sits in that checkout, which is not its own source
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
               "-C", str(tmp_path)]
        subprocess.run(git + ["init", "-q"], check=True)
        (tmp_path / ".gitignore").write_text("venv/\n")
        subprocess.run(git + ["add", ".gitignore"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "project"], check=True)
        copy = tmp_path / "venv" / "lib" / "site-packages" / "dustcocycle"
        copy.mkdir(parents=True)
        monkeypatch.setattr(cli, "_PACKAGE_DIR", copy)
        assert build_id() == __version__

    @pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
    def test_ignores_a_copy_two_levels_below_a_checkout(self, tmp_path, monkeypatch):
        # a copy whose grandparent is some repository's toplevel, but not
        # under its src/: that repository is not its source either
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
               "-C", str(tmp_path)]
        subprocess.run(git + ["init", "-q"], check=True)
        (tmp_path / ".gitignore").write_text("venv/\n")
        subprocess.run(git + ["add", ".gitignore"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "project"], check=True)
        copy = tmp_path / "venv" / "dustcocycle"
        copy.mkdir(parents=True)
        monkeypatch.setattr(cli, "_PACKAGE_DIR", copy.resolve())
        assert build_id() == __version__

    def test_version_outside_a_checkout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_PACKAGE_DIR", tmp_path)
        assert build_id() == __version__

    def test_version_when_git_hangs(self, monkeypatch):
        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", hang)
        assert build_id() == __version__


class TestPointCommands:
    def test_cantor_prints_fraction_and_float(self):
        code, out = run_cli("cantor", "--p", "1", "--n", "1")
        assert code == 0
        assert out.strip() == "1/2 0.5"

    def test_cantor_json(self):
        code, out = run_cli("cantor", "--p", "2", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload == {"p": 2, "n": 2, "fraction": "1/4", "value": 0.25}

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    @pytest.mark.parametrize("p, n", [(0, 0), (1, 0), (1, 1), (2, 2), (9, 2), (40, 4)])
    def test_cantor_json_validates_against_shipped_schema(self, p, n):
        code, out = run_cli("cantor", "--p", str(p), "--n", str(n), "--format", "json")
        assert code == 0
        schema = load_schema("cantor")
        jsonschema.validate(json.loads(out), schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**json.loads(out), "value": 1.5}, schema)

    def test_dimension(self):
        code, out = run_cli("dimension", "--preset", "cantor-dust")
        assert code == 0
        assert out.strip() == "1.261859507"

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    @pytest.mark.parametrize("preset", ["cantor-dust", "sierpinski-carpet", "full-subdivision-3"])
    def test_dimension_json_to_out_validates_against_shipped_schema(self, tmp_path, preset):
        p = tmp_path / "dimension.json"
        code, out = run_cli("dimension", "--preset", preset, "--format", "json", "--out", str(p))
        assert code == 0 and out == ""
        payload = json.loads(p.read_text())
        jsonschema.validate(payload, load_schema("dimension"))
        assert payload["preset"] == preset
        _, text = run_cli("dimension", "--preset", preset)
        assert text == f"{payload['dimension']:.9f}\n"

    def test_oracle_quadrature(self):
        code, out = run_cli("oracle", "--functions", "bott-flux", "--grid", "128")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("quadrature 19.739208802")
        assert lines[1].startswith("closed-form 19.739208802")

    def test_oracle_without_closed_form(self):
        code, out = run_cli("oracle", "--functions", "bump-mix", "--grid", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("quadrature ")
        assert lines[1] == "closed-form none"

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    @pytest.mark.parametrize("functions", ["bott-flux", "stokes-null", "bump-mix"])
    def test_oracle_json_to_out_validates_against_shipped_schema(self, tmp_path, functions):
        p = tmp_path / "oracle.json"
        code, out = run_cli(
            "oracle", "--functions", functions, "--grid", "64", "--format", "json", "--out", str(p),
        )
        assert code == 0 and out == ""
        payload = json.loads(p.read_text())
        jsonschema.validate(payload, load_schema("oracle"))
        assert payload["functions"] == functions and payload["grid"] == 64
        target = SMOOTH_PRESETS[functions].target
        if target is None:
            assert payload["closed_form_re"] is None and payload["closed_form_im"] is None
        else:
            assert payload["closed_form_re"] == complex(target).real
            assert payload["quadrature_re"] == pytest.approx(payload["closed_form_re"], abs=1e-8)


class TestExitCodes:
    def test_unknown_preset(self, capsys):
        code, _ = run_cli("dimension", "--preset", "menger-sponge")
        assert code == 2
        # the message itself, not the quoted repr str() gives a KeyError
        assert capsys.readouterr().err == (
            "error: unknown IFS preset 'menger-sponge'; choose from "
            "['cantor-dust', 'full-subdivision-3', 'sierpinski-carpet']\n"
        )

    def test_unknown_functions(self, capsys):
        code, _ = run_cli("converge", "--functions", "nope", "--n", "1..2")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown functions 'nope'; choose from "
            "['bott-flux', 'bump-mix', 'const-xy', 'double-flux', 'linear-xy', "
            "'mixed-mode', 'sine-xy', 'stokes-null']\n"
        )

    def test_budget_exceeded(self, capsys):
        code, _ = run_cli("phi", "--functions", "const-xy", "--n", "13")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: 67108864 squares exceed")

    @pytest.mark.parametrize("argv", [
        ("converge", "--functions", "bott-flux", "--n", "2..3"),
        ("cantor", "--p", "1", "--n", "1"),
    ])
    def test_out_into_missing_directory_refused_first(self, argv, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(cli, "convergence_table", never)
        out = tmp_path / "missing" / "x.csv"
        code, stdout = run_cli(*argv, "--out", str(out))
        assert code == 2 and stdout == ""
        err = capsys.readouterr().err
        assert err == f"error: --out parent {str(out.parent)!r} is not a directory\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [
        ("converge", "--functions", "bott-flux", "--n", "2..3", "--workers", "1"),
        ("cantor", "--p", "1", "--n", "1"),
    ])
    def test_unwritable_out_is_a_usage_error(self, argv, tmp_path, capsys):
        code, _ = run_cli(*argv, "--out", str(tmp_path))  # a directory
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["phi", "lipschitz"])
    def test_word_index_overflow_under_override(self, command, capsys):
        code, _ = run_cli(
            command, "--preset", "full-subdivision-3", "--functions", "const-xy",
            "--n", "20", "--override-budget",
        )
        assert code == 2
        assert "overflow" in capsys.readouterr().err

    def test_bad_range(self, capsys):
        code, _ = run_cli("converge", "--functions", "const-xy", "--n", "5..3")
        assert code == 2
        # a negative pairing level is refused before the projection check
        code, _ = run_cli("pairing", "--n", "-1", "--grid", "64")
        assert code == 2
        assert "error: level must be >= 0" in capsys.readouterr().err

    def test_mode_mismatch(self):
        code, _ = run_cli("phi", "--functions", "const-xy", "--n", "2", "--mode", "pullback")
        assert code == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lipschitz_refuses_non_finite_values(self, monkeypatch, capsys, bad):
        """An observable that is NaN or inf at some vertex makes the sum of
        the table's first level raise, before its Lipschitz estimates, and
        the command exit 2."""
        monkeypatch.setitem(cocycle.DIRECT_PRESETS, "bent-xy", bent_triple(bad))
        with np.errstate(invalid="ignore"):
            code, _ = run_cli("lipschitz", "--functions", "bent-xy", "--n", "1..3",
                              "--workers", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: the level-1 sum over ('x+y', 'x', 'bent-y') is " in err

    @pytest.mark.parametrize("bad, workers", [(np.nan, 1), (np.nan, 2), (np.inf, 1)])
    def test_phi_json_refuses_a_non_finite_sum(self, monkeypatch, capsys, bad, workers):
        """JSON has no NaN: a level's sum that is not finite exits 2 with
        one error line, and nothing is written (inf on one worker only,
        where np.errstate silences inf - inf)."""
        monkeypatch.setitem(cocycle.DIRECT_PRESETS, "bent-xy", bent_triple(bad))
        with np.errstate(invalid="ignore"):
            code, out = run_cli("phi", "--functions", "bent-xy", "--n", "9", "--format", "json",
                                "--workers", str(workers))
        assert code == 2 and out == ""
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: the level-9 sum over ('x+y', 'x', 'bent-y') is ")

    def test_selftest_passes(self):
        code, out = run_cli("selftest")
        assert code == 0
        assert "selftest passed" in out

    def test_selftest_checks_the_scalar_kernel(self, monkeypatch, capsys):
        code, out = run_cli("selftest")
        line = next(x for x in out.splitlines() if x.startswith("scalar kernel vs closed form"))
        assert float(line.rsplit("=", 1)[1]) <= 1e-12
        kernel = K.scalar_kernel
        monkeypatch.setattr(K, "scalar_kernel", lambda *a, **kw: np.conj(kernel(*a, **kw)))
        code, out = run_cli("selftest")
        assert code == 1
        assert "FAIL scalar kernel mismatch" in capsys.readouterr().err

    def test_selftest_checks_the_separable_path(self, monkeypatch, capsys):
        """A kernel whose path for a compact row g and column h is one ulp
        off passes every other check (the closed forms are checked to
        1e-12) and fails this one alone."""
        code, out = run_cli("selftest")
        assert ("scalar kernel separable path, compact vs materialized rows and columns: "
                "0 of 4662 parts differ") in out
        kernel = K.scalar_kernel

        def off_by_an_ulp(f, g, h, **kwargs):
            got = kernel(f, g, h, **kwargs)
            if g.ndim > 1:
                got.real = np.nextafter(got.real, np.inf)
            return got

        monkeypatch.setattr(K, "scalar_kernel", off_by_an_ulp)
        code, out = run_cli("selftest")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAIL scalar kernel separable path mismatch"]

    def test_selftest_checks_the_one_pass_maxima(self, monkeypatch, capsys):
        """Maxima that a table's sums take one ulp high fail this check
        alone: the walk it compares them with is not the pass."""
        code, out = run_cli("selftest")
        assert "lipschitz maxima, one pass vs tile walk (cantor-dust n=6): ok" in out
        assert "lipschitz maxima, one pass vs tile walk (sierpinski-carpet n=4): ok" in out
        task = cocycle._leaf_sums_for_range

        def ulp_high(*args, maxima=None, **kwargs):
            out = task(*args, maxima=maxima, **kwargs)
            if maxima is not None:
                maxima[...] = np.nextafter(maxima, np.inf)
            return out

        monkeypatch.setattr(cocycle, "_leaf_sums_for_range", ulp_high)
        code, out = run_cli("selftest")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAIL lipschitz maxima at cantor-dust n=6", "FAIL lipschitz maxima at sierpinski-carpet n=4"]

    def test_selftest_determinism_runs_several_tasks_on_a_pool(self, monkeypatch):
        """The worker-determinism check sums a level of several tasks, so its
        multi-worker sum runs them on a pool, not serially."""
        threads = []
        task = cocycle._leaf_sums_for_range

        def counted(*args, **kwargs):
            threads.append(threading.current_thread())
            return task(*args, **kwargs)

        parallel = []
        phi_n = cli.phi_n

        def recorded(*args, workers=None, **kwargs):
            start = len(threads)
            val = phi_n(*args, workers=workers, **kwargs)
            if workers > 1:
                parallel.append(threads[start:])
            return val

        monkeypatch.setattr(cocycle, "_leaf_sums_for_range", counted)
        monkeypatch.setattr(cli, "phi_n", recorded)
        code, out = run_cli("selftest")
        assert code == 0
        assert "worker determinism (n=9): ok" in out
        assert parallel
        for ran in parallel:
            assert len(ran) > 1
            assert threading.main_thread() not in ran

    def test_selftest_checks_the_matrix_kernel(self, monkeypatch, capsys):
        code, out = run_cli("selftest")
        line = next(x for x in out.splitlines() if x.startswith("matrix kernel vs matrix oracle"))
        assert float(line.rsplit("=", 1)[1]) <= 1e-12
        kernel = K.matrix_kernel
        monkeypatch.setattr(K, "matrix_kernel", lambda *a, **kw: np.conj(kernel(*a, **kw)))
        code, out = run_cli("selftest")
        assert code == 1
        assert "FAIL matrix kernel oracle mismatch" in capsys.readouterr().err

    def test_selftest_checks_the_symmetric_matrix_block(self, monkeypatch, capsys):
        """A pairing's f = g = h runs the matrix kernel's block with h is g,
        which reuses the cross products; selftest checks it on its own
        line."""
        code, out = run_cli("selftest")
        line = next(x for x in out.splitlines() if x.startswith("matrix kernel vs matrix oracle "
                                                                  "(f = g = h)"))
        assert float(line.rsplit("=", 1)[1]) <= 1e-12
        block = K._block

        def conjugated(terms, symmetric, ws, parts):
            block(terms, symmetric, ws, parts)
            if symmetric:
                parts[1] *= -1

        monkeypatch.setattr(K, "_block", conjugated)
        code, out = run_cli("selftest")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAIL matrix kernel oracle mismatch (f = g = h)"]

    def test_pairing_rejects_values_off_the_bloch_form(self, monkeypatch, capsys):
        """A Bott field whose n3 is NaN at the vertex images whose u is an odd
        multiple of 1/128 passes the level-6 projection check and is refused
        at n = 7, when the engine evaluates the first task's values."""

        class OffGrid(ProjectionField):
            def __call__(self, u, v):
                n = super().__call__(u, v)
                n[2][np.broadcast_to(np.asarray(u) * 128 % 2 == 1, n.shape[1:])] = np.nan
                return n

        field = OffGrid("bott-off-grid", 1, 1, 1.0)
        monkeypatch.setattr(cli, "bott_projection", lambda degree: field)
        code, _ = run_cli("pairing", "--n", "6", "--grid", "64")
        assert code == 0
        code, _ = run_cli("pairing", "--n", "7", "--grid", "64")
        assert code == 2
        assert "'bott-off-grid' is not finite at every vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--format", "json"), ("--out", "selftest.json")])
    def test_selftest_refuses_output_flags(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("selftest", *flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "selftest.json").exists()
