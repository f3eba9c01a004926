"""Tests of the benchmark itself, at the quick (tiny-level) sizes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_source_tree()

import dustcocycle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN = Path(run.__file__).resolve()


def _quick_pair(name):
    work = workloads.make(name, 7, tracer.Meter(), quick=True)
    ops = workloads.Ops()
    run._pair(work, ops, (run.WORKERS, 1))
    return ops


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_quick_workload_passes_its_checks(name):
    ops = _quick_pair(name)
    assert ops.attempted > 0
    assert ops.failures() == []


def _wrong_phi_target(work, p, monkeypatch):
    work.target += 1.0


def _tightened_bounds(work, p, monkeypatch):
    p.extra["bounds"] = {k: b * 1e-6 for k, b in p.extra["bounds"].items()}


def _wrong_chern_number(work, p, monkeypatch):
    monkeypatch.setattr(workloads, "CHERN_TWICE", 3.0)


@pytest.mark.parametrize(
    "name, spoil, missed",
    [
        ("pullback-converge", _wrong_phi_target, "accuracy"),
        ("lipschitz-direct", _tightened_bounds, "bound"),
        ("pairing-chern", _wrong_chern_number, "oracle"),
    ],
)
def test_wrong_target_is_a_failed_op_not_an_exception(name, spoil, missed, monkeypatch):
    work = workloads.make(name, 7, tracer.Meter(), quick=True)
    p = work.run_pass(1)
    spoil(work, p, monkeypatch)
    ops = workloads.Ops()
    work.check(p, ops)
    assert ops.failed > 0
    assert any(msg.startswith(missed) for msg in ops.failures())


def test_exact_counts_repeat_and_self_time_accounts_for_wall():
    meter = tracer.Meter()
    work = workloads.make("pullback-converge", 3, meter, quick=True)
    traces = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr.attached(dustcocycle, meter):
            p = work.run_pass(1)
        traces.append((p, tr))
    (p, a), (_, b) = traces
    assert a.exact_counts() == b.exact_counts()
    assert all(v > 0 for v in a.exact_counts().values())
    busy = tracer.busy_times(a.spans)
    assert sum(busy.values()) <= p.wall
    assert sum(busy.values()) > 0.5 * p.wall
    # detached again: the engine's attributes are the originals
    assert dustcocycle._kernels.scalar_kernel is dustcocycle._kernels._VARIANTS[
        dustcocycle._kernels.BACKEND]["scalar_kernel"]


def test_pool_tasks_are_spanned_on_the_worker_threads():
    meter = tracer.Meter()
    work = workloads.make("pullback-converge", 3, meter, quick=True)
    tr = tracer.Tracer()
    with tr.attached(dustcocycle, meter):
        # 4**9 words: four thread-pool tasks
        dustcocycle.cocycle.phi_n(workloads.DUST, 9, *work.obs, workers=2)
    tasks = [s for s in tr.spans if s.name == "cocycle.task"]
    assert tr.exact_counts()["cocycle.tasks"] == len(tasks) == 4
    (top,) = [s for s in tr.spans if s.name == "cocycle.phi_n"]
    assert all(s.parent == top.id and s.thread != top.thread for s in tasks)
    busy = tracer.busy_times(tr.spans)
    assert 0 < busy["cocycle.self"] < sum(s.end - s.start for s in tasks)


def test_self_time_subtracts_the_union_of_children():
    S = tracer.Span
    spans = [
        S(0, "cocycle.phi_n", 0.0, 10.0, None, "main"),
        S(1, "kernels.kernel", 1.0, 4.0, 0, "w1"),
        S(2, "kernels.kernel", 2.0, 5.0, 0, "w2"),
        S(3, "oracle.evaluate", 7.0, 8.0, 0, "w1"),
    ]
    busy = tracer.busy_times(spans)
    assert busy["cocycle.self"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert busy["kernels.kernel"] == pytest.approx(6.0)


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)])
def test_cli_quick_prints_every_metric(trace, units):
    out = _run_cli(
        [str(RUN), "--workload", "pairing-chern", "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=run.ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run_cli(
        ["perfbench/run.py", "--workload", "lipschitz-direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
