"""Command-line interface: configuration ingestion and deterministic emission.

Subcommands
-----------
spectrum        eigenvalue CSV + summary JSON for every operator in a config
dict            build the exact and modulated-DPSS dictionaries, export both,
                report subspace angle / coherence / projection residuals
approx          Monte-Carlo approximation error against the eigenvalue tail
verify          run the invariant property suite, exit 1 on any failure
bands validate  report band-geometry violations without building anything

Shared flags: ``--config <path>``, ``--out <dir>``, ``--format csv|json``,
``--seed <u64>``, ``--eps <f>``, ``--grid MxN``.  ``MDPROLATE_THREADS``
caps parallelism.  Identical config and seed produce byte-identical output
files.  Exit codes: 0 success, 1 verification failure, 2 configuration or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dictionary as dct
from .bands import (BandConfig, BandError, ConfigError, SamplingGrid,
                    load_band_config)
from .operator import (DenseCovariance, OperatorSpec, SizeCapError,
                       materialize_cubic, spectrum, spectrum_values,
                       transition_count)
from .parallelepiped import PPOperatorSpec, pp_materialize
from .prolate import cluster_counts, decompose, multiband_kernel
from .reports import (ReportRow, export_dictionary, report_rows_csv,
                      report_rows_json, write_eigenvectors_csv, write_json,
                      write_spectrum_csv)
from .verify import default_config, max_workers, verify_config

__all__ = ["main"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved run options shared by the subcommands."""

    bands: BandConfig
    out: Path
    fmt: str
    seed: int
    eps: float
    trials: int
    p: int | None
    q: tuple[int, ...] | None

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise ConfigError(f"eps must be in (0, 1/2), got {self.eps}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")


def _parse_grid(text: str) -> SamplingGrid:
    try:
        return SamplingGrid(tuple(int(part) for part in text.lower().split("x")))
    except ValueError as exc:
        raise ConfigError(f"bad --grid {text!r}: {exc}") from None


def _resolve(args, *, need_config: bool) -> RunConfig:
    if args.config is not None:
        bands = load_band_config(args.config)
    elif need_config:
        raise ConfigError("--config is required for this command")
    else:
        bands = default_config()
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        bands = BandConfig(grid=grid, cubic=bands.cubic,
                           parallelepiped=bands.parallelepiped)
    q = None
    if args.q is not None:
        try:
            q = tuple(int(piece) for piece in args.q.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --q {args.q!r}: {exc}") from None
    return RunConfig(bands=bands, out=Path(args.out), fmt=args.format,
                     seed=args.seed, eps=args.eps, trials=args.trials,
                     p=args.p, q=q)


def _write_report(rows: list[ReportRow], cfg: RunConfig, name: str) -> Path:
    path = cfg.out / f"{name}.{cfg.fmt}"
    if cfg.fmt == "json":
        report_rows_json(path, rows)
    else:
        report_rows_csv(path, rows)
    return path


def _summary(name: str, cov: DenseCovariance, lam: np.ndarray, eps: float) -> dict:
    counts = cluster_counts(lam, eps)
    return {
        "operator": name,
        "size": int(lam.size),
        "trace": cov.trace(),
        "frobenius_sq": cov.frobenius_sq(),
        "eps": eps,
        "near_one": counts.near_one,
        "middle": counts.middle,
        "near_zero": counts.near_zero,
        "transition_count": transition_count(lam, min(eps, 0.5)),
    }


def _spectrum_jobs(cfg: RunConfig, vectors: bool):
    """One job per operator, each returning (name, covariance, descending
    eigenvalues, eigenvectors or None); only 1-D jobs compute vectors, and
    only when asked."""
    jobs = []
    bands = cfg.bands
    if bands.cubic is not None and bands.grid.dim == 1:
        def oned():
            n = bands.grid.dims[0]
            cov = DenseCovariance(matrix=multiband_kernel(n, bands.cubic), dims=(n,),
                                  spec=OperatorSpec(grid=bands.grid, bands=bands.cubic))
            if vectors:
                sp = decompose(cov.matrix)
                return "multiband1d", cov, sp.eigenvalues, sp.eigenvectors
            return "multiband1d", cov, spectrum_values(cov), None
        jobs.append(oned)
    elif bands.cubic is not None:
        def cubic():
            cov = materialize_cubic(OperatorSpec(grid=bands.grid, bands=bands.cubic))
            return "cubic", cov, spectrum_values(cov), None
        jobs.append(cubic)
    if bands.parallelepiped:
        def ppjob():
            cov = pp_materialize(PPOperatorSpec(grid=bands.grid,
                                                bands=bands.parallelepiped))
            return "parallelepiped", cov, spectrum_values(cov), None
        jobs.append(ppjob)
    return jobs


def cmd_spectrum(args) -> int:
    cfg = _resolve(args, need_config=True)
    jobs = _spectrum_jobs(cfg, args.vectors)
    results = []
    if len(jobs) == 1:
        results.append(jobs[0]())
    else:
        with ThreadPoolExecutor(max_workers=min(max_workers(), len(jobs))) as pool:
            results.extend(pool.map(lambda f: f(), jobs))
    for name, cov, lam, vectors in sorted(results, key=lambda r: r[0]):
        write_spectrum_csv(cfg.out / f"{name}_eigenvalues.csv", lam)
        write_json(cfg.out / f"{name}_summary.json",
                   _summary(name, cov, lam, cfg.eps))
        if vectors is not None:
            write_eigenvectors_csv(cfg.out / f"{name}_eigenvectors.csv", vectors)
        print(f"{name}: {lam.size} eigenvalues -> {cfg.out}")
    return 0


def _dict_sizing(cfg: RunConfig) -> tuple[int, list[int]]:
    bands = cfg.bands.cubic
    total = cfg.bands.grid.size
    measure = bands.measure()
    limit = min(1.0, 1.0 / measure - 1.0)
    if not 0.0 < cfg.eps < limit:
        raise ConfigError(f"eps must be in (0, {limit:g}) for this band union")
    if cfg.p is not None:
        p = cfg.p
    else:
        p = sum(int(np.ceil(total * bands.band(i).measure() * (1.0 + cfg.eps)))
                for i in range(bands.num_bands))
    if cfg.q is not None:
        if len(cfg.q) != bands.num_bands:
            raise ConfigError(f"--q needs {bands.num_bands} counts")
        q = list(cfg.q)
    else:
        q = [int(np.floor(total * bands.band(i).measure() * (1.0 - cfg.eps)))
             for i in range(bands.num_bands)]
    if not 0 < p <= total:
        raise ConfigError(f"dictionary size p = {p} outside (0, {total}]")
    if any(not 0 < qi <= total for qi in q):
        raise ConfigError(f"per-band counts {q} outside (0, {total}]")
    return p, q


def cmd_dict(args) -> int:
    cfg = _resolve(args, need_config=True)
    if cfg.bands.cubic is None:
        raise ConfigError("dict requires cubic bands")
    if cfg.bands.grid.dim != 2:
        raise ConfigError(f"dict requires a 2-D grid, got {cfg.bands.grid.dim}-D")
    p, q = _dict_sizing(cfg)
    spec = OperatorSpec(grid=cfg.bands.grid, bands=cfg.bands.cubic)
    sp = spectrum(materialize_cubic(spec))
    phi = dct.build_phi(spec, p, spec_spectrum=sp)
    psi = dct.build_psi(spec, q)
    export_dictionary(phi, cfg.out / "phi")
    export_dictionary(psi, cfg.out / "psi")

    phi_basis = dct.orthonormalize(phi)
    cos_theta = dct.subspace_cos_theta(phi, psi)
    gram = np.abs(psi.gram())
    np.fill_diagonal(gram, 0.0)
    resid = max(
        float(np.linalg.norm(a.tensor - dct.project(phi_basis, a.tensor)) ** 2)
        for a in psi.atoms)
    params = (f"grid={'x'.join(map(str, cfg.bands.grid.dims))};"
              f"eps={cfg.eps:g};p={p};q={','.join(map(str, q))}")
    rows = [
        ReportRow("dict", params, "cos_theta", cos_theta, None, True),
        ReportRow("dict", params, "max_gram_offdiag", float(gram.max()), None, True),
        ReportRow("dict", params, "max_projection_residual_sq", resid, None, True),
    ]
    path = _write_report(rows, cfg, "dict_report")
    for row in rows:
        print(f"{row.metric} = {row.value:.12g}")
    print(f"report -> {path}")
    return 0


def cmd_approx(args) -> int:
    cfg = _resolve(args, need_config=True)
    if cfg.bands.cubic is None:
        raise ConfigError("approx requires cubic bands")
    spec = OperatorSpec(grid=cfg.bands.grid, bands=cfg.bands.cubic)
    total = cfg.bands.grid.size
    if cfg.p is not None:
        p = cfg.p
    else:
        p = min(total, int(np.ceil(total * cfg.bands.cubic.measure()
                                   * (1.0 + cfg.eps))))
    if not 0 <= p <= total:
        raise ConfigError(f"p = {p} outside [0, {total}]")
    sp = spectrum(materialize_cubic(spec))
    if p == 0:
        basis = dct.SubspaceBasis(q=np.zeros((total, 0), dtype=complex),
                                  dims=cfg.bands.grid.dims, rank=0, tolerance=0.0)
    else:
        basis = dct.orthonormalize(dct.build_phi(spec, p, spec_spectrum=sp))
    report = dct.approx_mse(basis, spec, cfg.trials, cfg.seed, spec_spectrum=sp)
    empirical, tail = report.empirical_mean, report.analytic_tail
    rel = abs(empirical - tail) / tail if tail > 1e-12 else 0.0
    tol = args.tolerance
    params = (f"grid={'x'.join(map(str, cfg.bands.grid.dims))};p={p};"
              f"rank={basis.rank};trials={cfg.trials};seed={cfg.seed}")
    rows = [
        ReportRow("approx", params, "empirical_mean_residual", empirical, None, True),
        ReportRow("approx", params, "analytic_tail", tail, None, True),
        ReportRow("approx", params, "relative_error", rel, tol, rel <= tol),
    ]
    path = _write_report(rows, cfg, "approx_report")
    print(f"empirical = {empirical:.12g}, tail = {tail:.12g}, "
          f"relative error = {rel:.3g} (tolerance {tol:g})")
    print(f"report -> {path}")
    return 0 if rel <= tol else 1


def cmd_verify(args) -> int:
    cfg = _resolve(args, need_config=False)
    rows = verify_config(cfg.bands, eps=cfg.eps, seed=cfg.seed)
    path = _write_report(rows, cfg, "verify_report")
    failures = [r for r in rows if not r.passed]
    for row in rows:
        mark = "PASS" if row.passed else "FAIL"
        print(f"[{mark}] {row.experiment} {row.metric} = {row.value:.6g}"
              + (f" (tolerance {row.tolerance:g})" if row.tolerance is not None
                 else ""))
    print(f"report -> {path}")
    if failures:
        print(f"{len(failures)} of {len(rows)} checks failed", file=sys.stderr)
        return 1
    return 0


def cmd_bands_validate(args) -> int:
    if args.config is None:
        raise ConfigError("--config is required for this command")
    try:
        load_band_config(args.config)  # constructors reject every violation
    except BandError as exc:
        for v in exc.violations:
            print(f"[FAIL] {v.code} bands={list(v.bands)}: {v.message}")
        return 1
    print("ok")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdprolate",
        description="Spectra, dictionaries and diagnostics for multiband "
                    "time/band-limiting operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eps_default: float):
        p.add_argument("--config", help="band configuration JSON")
        p.add_argument("--out", default="mdprolate-out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=eps_default)
        p.add_argument("--grid", help="grid override, e.g. 32x32 or 256")
        p.add_argument("--trials", type=int, default=2000)
        p.add_argument("--p", type=int, default=None,
                       help="explicit dictionary size (overrides the eps rule)")
        p.add_argument("--q", default=None,
                       help="explicit per-band counts, comma separated")

    sp = sub.add_parser("spectrum", help="eigenvalue CSV + summary JSON")
    common(sp, eps_default=0.05)
    sp.add_argument("--vectors", action="store_true",
                    help="also write eigenvector CSV (1-D operators)")
    sp.set_defaults(func=cmd_spectrum)

    dp = sub.add_parser("dict", help="dictionary export + angle report")
    common(dp, eps_default=0.2)
    dp.set_defaults(func=cmd_dict)

    ap = sub.add_parser("approx", help="Monte-Carlo approximation error report")
    common(ap, eps_default=0.2)
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="pass/fail threshold on the relative error")
    ap.set_defaults(func=cmd_approx)

    vp = sub.add_parser("verify", help="full property-suite report")
    common(vp, eps_default=0.2)
    vp.set_defaults(func=cmd_verify)

    bp = sub.add_parser("bands", help="band-geometry utilities")
    bsub = bp.add_subparsers(dest="bands_command", required=True)
    bv = bsub.add_parser("validate", help="report configuration violations")
    common(bv, eps_default=0.2)
    bv.set_defaults(func=cmd_bands_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BandError, SizeCapError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
