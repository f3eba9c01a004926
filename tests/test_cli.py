"""The command-line interface: formats, stability, exit codes."""

import csv
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import threading
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest

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


class TestNoTiming:
    COMMANDS = [
        ("converge", "--functions", "bott-flux", "--n", "9"),
        ("converge", "--functions", "bott-flux", "--n", "3..9"),
        ("lipschitz", "--functions", "linear-xy", "--n", "1..9"),
        ("pairing", "--n", "4..9", "--grid", "64"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS,
                             ids=("converge-one-level", "converge", "lipschitz", "pairing"))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ms_zero_and_bytes_stable_across_worker_counts(self, argv, fmt):
        """Every record's ms is 0, and the output is byte-identical at 1 and
        2 workers (level 9 is four tasks, so two workers start two helper threads), set
        aside the JSON's effective worker counts, which differ by design."""
        outputs = []
        for workers in (1, 2):
            code, out = run_cli(*argv, "--format", fmt, "--workers", str(workers), "--no-timing")
            assert code == 0
            if fmt == "csv":
                ms = [row["ms"] for row in csv.DictReader(io.StringIO(out))]
            else:
                ms = [record["ms"] for record in json.loads(out)["records"]]
                out = "".join(line for line in out.splitlines(keepends=True)
                              if not line.lstrip().startswith('"workers": '))
            assert ms and set(ms) == {"0" if fmt == "csv" else 0.0}
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_lipschitz_ms_timed_without_the_flag(self):
        code, out = run_cli("lipschitz", "--functions", "linear-xy", "--n", "1..3", "--workers", "1")
        assert code == 0
        assert all(float(row["ms"]) > 0 for row in csv.DictReader(io.StringIO(out)))


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
        ("converge", "--functions", "const-xy", "--n", "2"),
        ("pairing", "--n", "2", "--grid", "64"),
    ])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_flag_rejected(self, command, workers):
        code, out = run_cli(*command, "--workers", workers, "--format", "json")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5"])
    def test_bad_env_rejected(self, monkeypatch, capsys, value):
        monkeypatch.setenv("DUSTCOCYCLE_WORKERS", value)
        code, out = run_cli("converge", "--functions", "const-xy", "--n", "2")
        assert code == 2 and out == ""
        assert "DUSTCOCYCLE_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("converge", "--functions", "const-xy", "--n", "2"),
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
        code, out = run_cli("converge", "--functions", "const-xy", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["workers"] == (os.cpu_count() or 1)


class TestCommands:
    def test_one_handler_per_command(self):
        """Each subcommand has a handler of its own: no command is another
        one under a second name."""
        (sub,) = (a for a in cli.make_parser()._actions if a.dest == "command")
        assert set(cli._HANDLERS) == set(sub.choices)
        assert len(set(cli._HANDLERS.values())) == len(cli._HANDLERS)


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

    @pytest.mark.parametrize("argv", [
        ("converge", "--functions", "const-xy", "--n", "2", "--mode", "direct"),
        ("pairing", "--n", "2", "--grid", "64", "--preset", "cantor-dust"),
    ], ids=("converge --mode", "pairing --preset"))
    def test_flags_without_a_use_are_refused(self, argv, capsys):
        """``--mode`` would only repeat the mode the triple's name fixes,
        and a pairing, a pullback, runs on the dust alone: neither flag
        exists."""
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("cantor", "--p", "1", "--n", "1"), ("dimension",)])
    def test_bad_worker_env_is_ignored_where_no_engine_runs(self, monkeypatch, command):
        monkeypatch.setenv("DUSTCOCYCLE_WORKERS", "0")
        code, out = run_cli(*command)
        assert code == 0 and out


class TestReportRecords:
    def test_phi_json_has_no_unfilled_residual_fields(self):
        code, out = run_cli("converge", "--functions", "bott-flux", "--n", "3", "--format", "json",
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


class TestReadmeQuickStart:
    """The README's Quick start runs as shown: each command of its bash
    block, run through :func:`main`, exits 0, and one under a comment that
    ends in ``: prints X`` writes exactly X (quotes around X aside)."""

    @staticmethod
    def commands():
        """[(argv, printed)] of the block, printed None where no comment
        names the output."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## Quick start\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        commands, printed = [], None
        for line in filter(str.strip, block.splitlines()):
            if line.startswith("#"):
                said = re.search(r": prints (.+)$", line)
                printed = said.group(1).strip('"') if said else printed
            else:
                program, *argv = shlex.split(line)
                assert program == "dustcocycle", line
                commands.append((argv, printed))
                printed = None
        return commands

    def test_every_command_runs_as_shown(self):
        commands = self.commands()
        assert commands, "no command under README's Quick start"
        for argv, printed in commands:
            code, out = run_cli(*argv)
            assert code == 0, argv
            if printed is not None:
                assert out == printed + "\n", argv


class TestPointCommands:
    def test_cantor_prints_fraction_and_float(self):
        code, out = run_cli("cantor", "--p", "1", "--n", "1")
        assert code == 0
        assert out.strip() == "1/2 0.5"

    def test_cantor_json(self):
        code, out = run_cli("cantor", "--p", "2", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload == {"p": 2, "n": 2, "fraction": "1/4", "value": 0.25}

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

    @pytest.mark.parametrize("preset, text, value", [
        ("cantor-dust", "1.261859507", "0x1.430939835353dp+0"),
        ("sierpinski-carpet", "1.892789261", "0x1.e48dd644fcfdap+0"),
        ("full-subdivision-3", "2.000000000", "0x1.0000000000000p+1"),
    ], ids=["cantor-dust", "sierpinski-carpet", "full-subdivision-3"])
    def test_dimension_is_the_closed_form(self, preset, text, value):
        """The text keeps nine decimals; the JSON value is log(nmaps) / log 3
        to the bit, exactly 2 on the full grid."""
        assert run_cli("dimension", "--preset", preset) == (0, text + "\n")
        code, out = run_cli("dimension", "--preset", preset, "--format", "json")
        assert code == 0
        assert json.loads(out)["dimension"].hex() == value

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
        code, _ = run_cli("converge", "--functions", "const-xy", "--n", "13")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: 67108864 squares exceed")

    @pytest.mark.parametrize("preset", ["sierpinski-carpet", "full-subdivision-3"])
    @pytest.mark.parametrize("flags", [(), ("--override-budget",)], ids=["", "override"])
    def test_pullback_off_the_dust_refused_before_the_budget(self, monkeypatch, capsys, preset,
                                                               flags):
        """A pullback triple runs through the dust digit map only: on any
        other preset ``converge`` says so, at any level and under any flag,
        before the budget check would send it to ``--override-budget``."""
        calls = self.engine_calls(monkeypatch)
        code, out = run_cli("converge", "--preset", preset, "--functions", "bott-flux",
                            "--n", "9", *flags)
        assert (code, out, calls) == (2, "", [])
        assert capsys.readouterr().err == (
            "error: pullback mode is defined through the dust digit map only\n")

    OVER_BUDGET = [
        (("converge", "--functions", "const-xy", "--n", "11..13"), 4**13, "scalar", 4**12),
        (("pairing", "--n", "9..11"), 4**11, "matrix", 4**10),
        (("lipschitz", "--preset", "sierpinski-carpet", "--functions", "sine-xy", "--n", "7..9"),
         8**9, "scalar", 4**12),
    ]

    @staticmethod
    def engine_calls(monkeypatch):
        """Make every sum and the pairing oracle record its call and stop
        the command with a ValueError; returns the list of calls."""
        calls = []

        def stop(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise ValueError(f"{name} ran")
            return call

        for module, name in ((cocycle, "phi_n"), (cli, "phi_n"), (cocycle, "pairing_n"),
                             (cli, "pairing_n"), (cli, "chern_pairing_oracle")):
            monkeypatch.setattr(module, name, stop(name))
        return calls

    @pytest.mark.parametrize("argv, total, kind, cap", OVER_BUDGET,
                             ids=[case[0][0] for case in OVER_BUDGET])
    def test_over_budget_range_refused_before_any_sum(self, monkeypatch, capsys, argv, total,
                                                      kind, cap):
        """A level range whose largest level is over the budget exits 2 with
        the budget line before its first sum, and before the pairing's
        oracle; under --override-budget the check passes and the command
        goes on to the engine."""
        calls = self.engine_calls(monkeypatch)
        code, out = run_cli(*argv, "--workers", "1")
        assert (code, out, calls) == (2, "", [])
        assert capsys.readouterr().err == (
            f"error: {total} squares exceed the {kind} budget of {cap}; "
            "pass allow_large=True (CLI: --override-budget) to proceed\n"
        )
        code, _ = run_cli(*argv, "--workers", "1", "--override-budget")
        assert code == 2 and len(calls) == 1
        assert capsys.readouterr().err == f"error: {calls[0]} ran\n"

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

    @pytest.mark.parametrize("command", ["converge", "lipschitz"])
    def test_word_index_overflow_under_override(self, command, monkeypatch, capsys):
        """9**19 words fit int64 word indices and 9**20 do not: the range
        is refused before its level-19 sum, not after it."""
        calls = self.engine_calls(monkeypatch)
        code, out = run_cli(
            command, "--preset", "full-subdivision-3", "--functions", "const-xy",
            "--n", "19..20", "--override-budget", "--workers", "1",
        )
        assert (code, out, calls) == (2, "", [])
        assert capsys.readouterr().err == "error: 9**20 level-20 words overflow 64-bit word indices\n"

    @pytest.mark.parametrize("argv, n", [
        (("converge", "--n", "99999999999999999999"), "99999999999999999999"),
        (("converge", "--n", "0..99999999999"), "99999999999"),
        (("pairing", "--n", "200000000000", "--grid", "64"), "200000000000"),
    ])
    def test_huge_level_exits_at_once(self, run_capped, argv, n):
        """A level far past int64 word indices is refused from the level
        alone, before any power of it is formed or its range is listed."""
        done = run_capped("import sys; from dustcocycle.cli import main; sys.exit(main())", *argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: 4**{n} level-{n} words overflow 64-bit word indices\n"

    def test_bad_range(self, monkeypatch, capsys):
        code, _ = run_cli("converge", "--functions", "const-xy", "--n", "5..3")
        assert code == 2
        # a negative pairing level is refused before the oracle; given
        # apart from --n, argparse would take -1..3 for an option
        calls = self.engine_calls(monkeypatch)
        code, _ = run_cli("pairing", "--n=-1..3", "--grid", "64")
        assert (code, calls) == (2, [])
        assert "error: level must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("pairing", "--n", "-1..3", "--grid", "64"),
                                      ("lipschitz", "--n", "-2..3"),
                                      ("converge", "--n", "-1")])
    def test_negative_level_apart_from_its_flag(self, monkeypatch, capsys, argv):
        """A negative level given apart from ``--n`` reaches the level
        check, before any engine call, not argparse's "expected one
        argument"."""
        calls = self.engine_calls(monkeypatch)
        code, out = run_cli(*argv)
        assert (code, out, calls) == (2, "", [])
        assert capsys.readouterr().err == "error: level must be >= 0\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lipschitz_refuses_non_finite_values(self, monkeypatch, capsys, bad):
        """An observable that is NaN or inf at some vertex makes the sum of
        the table's first level raise, before its Lipschitz estimates, and
        the command exit 2."""
        monkeypatch.setitem(cocycle.DIRECT_PRESETS, "bent-xy", bent_triple(bad))
        code, _ = run_cli("lipschitz", "--functions", "bent-xy", "--n", "1..3", "--workers", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: the level-1 sum over ('x+y', 'x', 'bent-y') is " in err

    @pytest.mark.parametrize("bad, workers", [(np.nan, 1), (np.nan, 2), (np.inf, 1), (np.inf, 2)])
    def test_phi_json_refuses_a_non_finite_sum(self, monkeypatch, capsys, bad, workers):
        """JSON has no NaN: a level's sum that is not finite exits 2 with
        one error line and no warning, and nothing is written."""
        monkeypatch.setitem(cocycle.DIRECT_PRESETS, "bent-xy", bent_triple(bad))
        code, out = run_cli("converge", "--functions", "bent-xy", "--n", "9", "--format", "json",
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

    @pytest.mark.parametrize("name, failures", [
        ("scalar_kernel", ["FAIL scalar kernel mismatch"]),
        ("matrix_kernel", ["FAIL matrix kernel oracle mismatch",
                           "FAIL matrix kernel oracle mismatch (f = g = h)"]),
    ])
    def test_selftest_fails_on_a_nan(self, monkeypatch, capsys, name, failures):
        """A kernel that returns NaN at square 5 of the 200 that selftest
        checks fails those checks: a NaN is no difference within 1e-12."""
        kernel = getattr(K, name)

        def nan_at_5(*args, **kwargs):
            got = kernel(*args, **kwargs)
            if got.shape == (200,):
                got[5] = np.nan
            return got

        monkeypatch.setattr(K, name, nan_at_5)
        code, out = run_cli("selftest")
        assert code == 1
        assert capsys.readouterr().err.splitlines() == failures

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
        multi-worker sum runs them on several helper threads, not serially,
        and none on the calling thread."""
        threads, helpers = [], []
        task = cocycle._leaf_sums_for_range

        def counted(*args, **kwargs):
            threads.append(threading.current_thread())
            return task(*args, **kwargs)

        class Recording(threading.Thread):
            def start(self):
                helpers.append(self)
                super().start()

        parallel = []
        phi_n = cli.phi_n

        def recorded(*args, workers=None, **kwargs):
            start, started = len(threads), len(helpers)
            val = phi_n(*args, workers=workers, **kwargs)
            if workers > 1:
                parallel.append((workers, threads[start:], len(helpers) - started))
            return val

        monkeypatch.setattr(cocycle, "_leaf_sums_for_range", counted)
        monkeypatch.setattr(cocycle.threading, "Thread", Recording)
        monkeypatch.setattr(cli, "phi_n", recorded)
        code, out = run_cli("selftest")
        assert code == 0
        assert "worker determinism (n=9): ok" in out
        assert parallel
        for workers, ran, started in parallel:
            assert len(ran) > 1
            assert threading.main_thread() not in ran
            assert started == min(workers, len(ran)) > 1

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
