"""Smoke test of the benchmark harness on tiny grids.

    python3 -m pytest -q perfbench

Every workload runs with its grids shrunk (8x8, n=64, 4x4x4) so the whole
file takes seconds.  The dict op skips the pinned angle thresholds, which
are frozen for 32x32 only; its manifest and repeat checks still run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
from spans import Tracer

TINY = {
    "spectrum-40": run.spectrum_workload(("8x8", "9x7")),
    "dict-32": run.dict_workload("8x8", limits=None),
    "approx-32": run.approx_workload("8x8", 200),
    "verify-mixed": run.verify_workload("64", "8x8", "4x4x4"),
}


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.WORK_ROOT / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)


def _result(capsys, units):
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in units}
    printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[1]
               for line in lines[:-1] if " = " in line}
    for name, unit in units:
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])
        assert printed[name] == unit
    assert printed["failed_ops_ratio"] == "ratio"
    return result


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_printed_with_its_unit(workload, tiny, capsys):
    result = run.measure(workload, seed=1, seconds=0.0, trace=False)
    assert result == _result(capsys, run.END_TO_END)
    assert result["correct"] and result["failed"] == 0
    result = run.measure(workload, seed=1, seconds=0.0, trace=True)
    assert result == _result(capsys, run.PER_LAYER)
    assert result["correct"] and result["failed"] == 0


def test_self_times_sum_to_op_wall(tiny, work, monkeypatch):
    # One pool worker serializes the jobs, so spans never overlap in time.
    monkeypatch.setenv("MDPROLATE_THREADS", "1")
    cli, cycle = run.prepare("spectrum-40", 1, work)
    untraced = [run.run_op(cli, cycle[0].argv, work / f"u{k}")[0] for k in range(5)]
    tracer, traced = Tracer(), []
    for k in range(5):
        with tracer.installed():
            wall, code, _ = run.run_op(cli, cycle[0].argv, work / f"t{k}", tracer, k)
        assert code == 0
        traced.append(wall)
    overhead = float(np.median(traced) - np.median(untraced))
    selfs = tracer.self_times()
    for k, wall in enumerate(traced):
        total = sum(selfs[s.id] for s in tracer.spans if s.op == k)
        assert 0.0 <= wall - total <= max(overhead, 1e-3)


def test_pool_spans_attach_to_their_op_and_bindings_are_restored(tiny, work,
                                                                monkeypatch):
    monkeypatch.setenv("MDPROLATE_THREADS", "2")
    cli, cycle = run.prepare("verify-mixed", 1, work)
    readme = next(op for op in cycle if "readme.json" in op.argv[2])
    originals = (np.linalg.eigh, cli.load_band_config, cli.main)
    tracer = Tracer()
    with tracer.installed():
        _, code, _ = run.run_op(cli, readme.argv, work / "out", tracer, 7)
    assert code == 0
    assert (np.linalg.eigh, cli.load_band_config, cli.main) == originals
    by_id = {s.id: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == "cli.main" and all(s.op == 7 for s in tracer.spans)
    workers = {s.thread for s in tracer.spans} - {root.thread}
    assert workers, "verify ran no job in a pool thread"
    for span in tracer.spans:
        if span.thread in workers and by_id[span.parent].thread == root.thread:
            assert by_id[span.parent].name == "verify.verify_config"
    assert all(t >= 0.0 for t in tracer.self_times().values())


def test_forced_failure_is_counted_not_raised(monkeypatch, capsys):
    def failing(configs, seed):
        ops, warmup = TINY["approx-32"](configs, seed)
        return [replace(op, argv=(*op.argv, "--tolerance", "1e-12")) for op in ops], warmup

    monkeypatch.setitem(run.WORKLOADS, "approx-32", failing)
    result = run.measure("approx-32", seed=1, seconds=0.0, trace=False)
    assert result == _result(capsys, run.END_TO_END)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_bare_directory_exits_nonzero_without_a_result(work):
    work.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    shutil.copytree(Path(run.__file__).parent, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dict-32",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
