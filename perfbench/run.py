#!/usr/bin/env python3
"""Closed-loop benchmark of the mdprolate command line.

    python3 perfbench/run.py --workload spectrum-40 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` and the run exits nonzero if it is missing.  One process runs one
workload.  An op is one in-process call to ``mdprolate.cli.main(argv)``
with a fresh ``--out`` directory and captured stdout.  A single client
issues ops back to back (closed loop, one op in flight) until ``--seconds``
have passed and the current cycle of ops is complete.  Output checks run
after the timed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced cycles and reports per-layer metrics from the spans
(see ``spans.py``); spans are written to ``.perfbench_work/``.  Human-
readable lines go first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spans import LINALG, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 9

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("linalg.eigh.s", "s"),
    ("linalg.eigvalsh.s", "s"),
    ("linalg.svd.s", "s"),
    ("linalg.eig.calls", "count"),
    ("linalg.eig.input_bytes", "bytes"),
    ("operator.materialize_cubic.self_s", "s"),
    ("operator.materialize_cubic.bytes", "bytes"),
    ("operator.spectrum.self_s", "s"),
    ("operator.apply_cubic.self_s", "s"),
    ("operator.apply_cubic.calls", "count"),
    ("operator.separable_eigenvalues.self_s", "s"),
    ("operator.eigvecs_computed", "count"),
    ("operator.eigvec_useful_ratio", "ratio"),
    ("parallelepiped.pp_materialize.self_s", "s"),
    ("parallelepiped.pp_materialize.bytes", "bytes"),
    ("prolate.multiband_kernel.self_s", "s"),
    ("prolate.sinc_kernel.self_s", "s"),
    ("prolate.decompose.self_s", "s"),
    ("prolate.dpss.self_s", "s"),
    ("prolate.dpss.calls", "count"),
    ("dictionary.sample_signal.self_s", "s"),
    ("dictionary.sample_signal.calls", "count"),
    ("dictionary.project.self_s", "s"),
    ("dictionary.project.calls", "count"),
    ("dictionary.approx_mse.self_s", "s"),
    ("dictionary.build_phi.self_s", "s"),
    ("dictionary.build_psi.self_s", "s"),
    ("dictionary.orthonormalize.self_s", "s"),
    ("dictionary.subspace_cos_theta.self_s", "s"),
    ("dictionary.gram.self_s", "s"),
    ("dictionary.cross_band_gram_violations.self_s", "s"),
    ("dictionary.pseudo_eigen_residuals.self_s", "s"),
    ("reports.export_dictionary.self_s", "s"),
    ("reports.write.self_s", "s"),
    ("reports.files_written", "count"),
    ("reports.bytes_written", "bytes"),
    ("verify.verify_config.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("bands.load_band_config.self_s", "s"),
    ("cli.self_s", "s"),
    ("bands.self_s", "s"),
    ("prolate.self_s", "s"),
    ("operator.self_s", "s"),
    ("parallelepiped.self_s", "s"),
    ("dictionary.self_s", "s"),
    ("verify.self_s", "s"),
    ("reports.self_s", "s"),
    ("linalg.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
)
# reports.write.self_s sums these writers; export_dictionary is its own metric.
REPORT_WRITERS = ("write_text_atomic", "write_csv", "write_json", "report_rows_csv",
                  "report_rows_json", "write_spectrum_csv", "write_eigenvectors_csv")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MDPROLATE_THREADS")

# -- inputs -----------------------------------------------------------------

# README two-box union plus the matched parallelogram (a=1, b=0.4, c=0, d=1).
README_CONFIG = {
    "dim": 2,
    "cubic": [{"center": [-0.15, -0.10], "half_widths": [0.10, 0.10]},
              {"center": [0.20, 0.15], "half_widths": [0.10, 0.10]}],
    "parallelepiped": [{"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0,
                        "half_widths": [0.1, 0.1], "center": [0.0, 0.0]}],
    "grid": [32, 32],
}
# Two-band 1-D reference union [-0.15, -0.05] u [0.15, 0.25].
ONED_CONFIG = {
    "dim": 1,
    "cubic": [{"center": [-0.10], "half_widths": [0.05]},
              {"center": [0.20], "half_widths": [0.05]}],
    "grid": [512],
}
CUBE3D_CONFIG = {
    "dim": 3,
    "cubic": [{"center": [-0.15, -0.10, -0.10], "half_widths": [0.10, 0.10, 0.10]},
              {"center": [0.20, 0.15, 0.15], "half_widths": [0.10, 0.10, 0.10]}],
    "grid": [12, 12, 12],
}
CONFIGS = {"readme": README_CONFIG, "oned": ONED_CONFIG, "cube3d": CUBE3D_CONFIG}

# Thresholds frozen in tests/pinned.py for the README union at 32x32.
PINNED_DICT_32 = {"cos_theta": 1.0 - 2.5e-7, "max_projection_residual_sq": 5e-7,
                  "max_gram_offdiag": 1.2e-4}
DICT_EPS = 0.2  # the CLI's default eps for dict


def band_measures(doc) -> list[float]:
    return [math.prod(2.0 * w for w in band["half_widths"]) for band in doc["cubic"]]


def pp_measure(doc) -> float:
    return sum(4.0 * b["half_widths"][0] * b["half_widths"][1]
               / abs(b["a"] * b["d"] - b["b"] * b["c"])
               for b in doc.get("parallelepiped", []))


def parse_grid(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("x"))


# -- output checks ------------------------------------------------------------
# Each returns a list of problems; an empty list means the op's output is right.


def check_spectrum(out: Path, doc, dims) -> list[str]:
    problems = []
    total = math.prod(dims)
    for name, measure in (("cubic", sum(band_measures(doc))),
                          ("parallelepiped", pp_measure(doc))):
        summary = json.loads((out / f"{name}_summary.json").read_text())
        lam = np.loadtxt(out / f"{name}_eigenvalues.csv", delimiter=",",
                         skiprows=1, usecols=1, ndmin=1)
        expected = total * measure
        if lam.size != total or summary["size"] != total:
            problems.append(f"{name}: {lam.size} eigenvalues, expected {total}")
        if abs(summary["trace"] - expected) > 1e-9 * expected:
            problems.append(f"{name}: trace {summary['trace']!r} != {expected!r}")
        if abs(lam.sum() - expected) > 1e-9 * expected:
            problems.append(f"{name}: eigenvalue sum {lam.sum()!r} != {expected!r}")
        if lam.min() < -1e-10 or lam.max() > 1.0 + 1e-10:
            problems.append(f"{name}: eigenvalues outside [0, 1]: "
                            f"[{lam.min()!r}, {lam.max()!r}]")
        gap = summary["trace"] - summary["frobenius_sq"]
        if abs(gap - float(np.sum(lam * (1.0 - lam)))) > 1e-8:
            problems.append(f"{name}: trace - frobenius_sq != sum lam (1 - lam)")
    return problems


def dict_sizes(doc, dims) -> tuple[int, list[int]]:
    """The CLI's (1 +/- eps) sizing rule for p and the per-band counts q."""
    total = math.prod(dims)
    measures = band_measures(doc)
    p = sum(math.ceil(total * m * (1.0 + DICT_EPS)) for m in measures)
    q = [math.floor(total * m * (1.0 - DICT_EPS)) for m in measures]
    return p, q


def check_dict(out: Path, doc, dims, limits) -> list[str]:
    problems = []
    p, q = dict_sizes(doc, dims)
    rows = {r["metric"]: r["value"]
            for r in json.loads((out / "dict_report.json").read_text())}
    if limits is not None:
        if rows["cos_theta"] < limits["cos_theta"]:
            problems.append(f"cos_theta {rows['cos_theta']!r} too small")
        for metric in ("max_projection_residual_sq", "max_gram_offdiag"):
            if rows[metric] > limits[metric]:
                problems.append(f"{metric} {rows[metric]!r} too large")
    phi = json.loads((out / "phi" / "manifest.json").read_text())
    psi = json.loads((out / "psi" / "manifest.json").read_text())
    if phi["atom_count"] != p or len(phi["atoms"]) != p:
        problems.append(f"phi has {phi['atom_count']} atoms, expected p = {p}")
    per_band = [sum(1 for a in psi["atoms"] if a["band"] == i) for i in range(len(q))]
    if psi["atom_count"] != sum(q) or per_band != q:
        problems.append(f"psi has per-band counts {per_band}, expected q = {q}")
    return problems


def check_rows_passed(out: Path, report: str) -> list[str]:
    rows = json.loads((out / report).read_text())
    failed = [f"{r['experiment']} {r['metric']}" for r in rows if not r["passed"]]
    return [f"{report}: failed rows {failed}"] if failed or not rows else []


def digest(out: Path) -> str:
    """SHA-256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation (without ``--out``) and how to check its output."""

    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]
    eigvecs_needed: int  # eigenvectors of the M N operator the op really uses


# A workload maps (config directory, workload seed) to one cycle of ops and a
# small warm-up argv.
Workload = Callable[[Path, int], tuple[list[Op], list[str]]]
WARM_GRID = "8x8"


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**63))


def spectrum_workload(grids) -> Workload:
    def build(configs: Path, seed: int):
        rng = random.Random(seed)
        order = list(grids)
        rng.shuffle(order)
        cfg = str(configs / "readme.json")
        ops = [Op(("spectrum", "--config", cfg, "--grid", g, "--seed", _cli_seed(rng)),
                  lambda out, dims=parse_grid(g): check_spectrum(out, README_CONFIG, dims),
                  0)
               for g in order]
        return ops, ["spectrum", "--config", cfg, "--grid", WARM_GRID]
    return build


def dict_workload(grid, limits=PINNED_DICT_32) -> Workload:
    def build(configs: Path, seed: int):
        rng = random.Random(seed)
        cfg = str(configs / "readme.json")
        dims = parse_grid(grid)
        op = Op(("dict", "--config", cfg, "--grid", grid, "--format", "json",
                 "--seed", _cli_seed(rng)),
                lambda out: check_dict(out, README_CONFIG, dims, limits),
                dict_sizes(README_CONFIG, dims)[0])
        return [op], ["dict", "--config", cfg, "--grid", WARM_GRID, "--format", "json"]
    return build


def approx_workload(grid, trials) -> Workload:
    def build(configs: Path, seed: int):
        rng = random.Random(seed)
        cfg = str(configs / "readme.json")
        op = Op(("approx", "--config", cfg, "--grid", grid, "--trials", str(trials),
                 "--format", "json", "--seed", _cli_seed(rng)),
                lambda out: check_rows_passed(out, "approx_report.json"),
                math.prod(parse_grid(grid)))
        # The warm-up only has to run the code path; at its tiny size the
        # Monte-Carlo error is not meant to meet the default tolerance.
        return [op], ["approx", "--config", cfg, "--grid", WARM_GRID, "--trials", "50",
                      "--tolerance", "1", "--format", "json"]
    return build


def verify_workload(oned, readme, cube3d) -> Workload:
    def build(configs: Path, seed: int):
        rng = random.Random(seed)
        cli_seed = _cli_seed(rng)
        ops = [Op(("verify", "--config", str(configs / f"{name}.json"), "--grid", grid,
                   "--format", "json", "--seed", cli_seed),
                  lambda out: check_rows_passed(out, "verify_report.json"), 0)
               for name, grid in (("oned", oned), ("readme", readme),
                                  ("cube3d", cube3d))]
        shift = rng.randrange(len(ops))
        return (ops[shift:] + ops[:shift],
                ["verify", "--config", str(configs / "oned.json"), "--grid", "64",
                 "--format", "json"])
    return build


WORKLOADS: dict[str, Workload] = {
    "spectrum-40": spectrum_workload(("40x40", "41x39")),
    "dict-32": dict_workload("32x32"),
    "approx-32": approx_workload("32x32", 1000),
    "verify-mixed": verify_workload("512", "32x32", "12x12x12"),
}

# -- running ops ----------------------------------------------------------------


@dataclass
class OpRecord:
    op: Op
    out: Path
    wall: float
    code: int | None
    traced: bool
    error: str = ""


def run_op(cli, argv, out: Path, tracer=None, op_id=None) -> tuple[float, int | None, str]:
    """Run one CLI call; returns (wall seconds, exit code or None, error)."""
    argv = [*argv, "--out", str(out)]
    error = ""
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argument
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing op counts as failed; the loop goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    return wall, code, error


def run_loop(cli, cycle: list[Op], seconds: float, work: Path, tracer=None):
    """Closed loop over whole cycles until ``seconds`` have passed.

    With a tracer, even cycles run traced and odd cycles untraced, and at
    least one of each runs.  Returns the records and the loop wall time.
    """
    records: list[OpRecord] = []
    start = time.perf_counter()
    cycles = 0
    while True:
        traced = tracer is not None and cycles % 2 == 0
        for op in cycle:
            out = work / f"op{len(records):04d}"
            if traced:
                with tracer.installed():
                    wall, code, error = run_op(cli, op.argv, out, tracer, len(records))
            else:
                wall, code, error = run_op(cli, op.argv, out)
            records.append(OpRecord(op, out, wall, code, traced, error))
        cycles += 1
        if (time.perf_counter() - start >= seconds
                and (tracer is None or cycles >= 2)):
            return records, time.perf_counter() - start


def check_records(records: list[OpRecord]) -> int:
    """Check every op's output and the byte-identity of repeats; returns the
    number of failed ops and reports each problem on stderr."""
    first_digest: dict[tuple[str, ...], str] = {}
    failed = 0
    for index, rec in enumerate(records):
        if rec.code != 0:
            problems = [f"exit code {rec.code} {rec.error}".strip()]
        else:
            try:
                problems = rec.op.check(rec.out)
                found = digest(rec.out)
            except Exception as exc:  # a malformed output is a failed op
                problems, found = [f"{type(exc).__name__}: {exc}"], None
            expected = first_digest.setdefault(rec.op.argv, found)
            if found != expected:
                problems.append("output differs from an earlier run of the same op")
        if problems:
            failed += 1
            print(f"op {index} ({rec.op.argv[0]}) failed: "
                  + "; ".join(problems), file=sys.stderr)
    return failed


# -- set-up time ----------------------------------------------------------------


def prepare(workload: str, seed: int, work: Path):
    """Everything a run does before its first timed op: import the package,
    write the configs, and make one small warm-up call."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from mdprolate import cli

    configs = work / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for name, doc in CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    cycle, warmup = WORKLOADS[workload](configs, seed)
    _, code, error = run_op(cli, warmup, work / "warmup")
    if code != 0:
        sys.exit(f"perfbench: warm-up {' '.join(warmup)} exited {code} {error}")
    return cli, cycle


def setup_seconds(workload: str, seed: int) -> float:
    """Time from process start to ready in a fresh interpreter that runs
    :func:`prepare`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe exited {proc.returncode}")
    return elapsed


# -- reporting ------------------------------------------------------------------


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def end_to_end_metrics(records, loop_s, setup_samples) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(r.wall for r in records),
        "ops_per_s": len(records) / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, records) -> dict[str, float]:
    traced = [i for i, r in enumerate(records) if r.traced]
    values = tracer.summary(traced)
    for solver in LINALG:  # solver spans have no children: self time is all
        values[f"linalg.{solver}.s"] = values.get(f"linalg.{solver}.self_s", 0.0)
    values["reports.write.self_s"] = sum(
        values.get(f"reports.{name}.self_s", 0.0) for name in REPORT_WRITERS)
    needed = statistics.fmean(records[i].op.eigvecs_needed for i in traced)
    computed = values.get("operator.eigvecs_computed", 0.0)
    values["operator.eigvec_useful_ratio"] = needed / computed if computed else 1.0
    # Each traced op against the untraced runs of the same argv, so a mixed
    # cycle compares like with like.
    untraced = defaultdict(list)
    for r in records:
        if not r.traced:
            untraced[r.op.argv].append(r.wall)
    values["bench.trace_overhead_s"] = statistics.median(
        records[i].wall - statistics.median(untraced[records[i].op.argv]) for i in traced)
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def report(metrics: dict[str, float], units, attempted: int, failed: int) -> dict:
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units}}
    for name, unit in units:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_ops_ratio = {failed / attempted:.6g} ratio")
    print(json.dumps(result))
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup = [] if trace else [setup_seconds(workload, seed)
                                  for _ in range(SETUP_PROBES)]
        cli, cycle = prepare(workload, seed, work)
        tracer = Tracer() if trace else None
        records, loop_s = run_loop(cli, cycle, seconds, work / "ops", tracer)
        failed = check_records(records)
        machine = machine_record()
        print("machine = " + json.dumps(machine, sort_keys=True))
        print(f"ops = {len(records)} in {loop_s:.3f} s, closed loop, 1 client")
        print("op_walls_s = " + json.dumps([round(r.wall, 4) for r in records]))
        if trace:
            spans_file = WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl"
            tracer.dump(spans_file, {"workload": workload, "seed": seed,
                                     "machine": machine})
            print(f"spans -> {spans_file.relative_to(ROOT)}")
            metrics, units = per_layer_metrics(tracer, records), PER_LAYER
        else:
            metrics, units = end_to_end_metrics(records, loop_s, setup), END_TO_END
        return report(metrics, units, len(records), failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: run the set-up alone and print 'ready'")
    args = parser.parse_args(argv)
    if not (SRC / "mdprolate" / "cli.py").is_file():
        sys.exit(f"perfbench: no mdprolate source under {SRC}; "
                 "run from the root of a source checkout")
    if args.setup_probe:
        work = WORK_ROOT / f"probe-{os.getpid()}"
        try:
            prepare(args.workload, args.seed, work)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
