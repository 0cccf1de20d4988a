"""Command-line interface: configuration ingestion and deterministic emission.

Subcommands
-----------
spectrum        eigenvalue CSV + summary JSON for every operator in a config
dict            build the exact and modulated-DPSS dictionaries, export both,
                report subspace angle / coherence / projection residuals
approx          Monte-Carlo approximation error against the eigenvalue tail
verify          run the invariant property suite, exit 1 on any failure
bands validate  report band-geometry violations, and bands whose kernel
                is not finite on the grid: the tables a solve reads are
                built, after the size cap, and nothing is solved

Flags shared by the four data commands: ``--config <path>``, ``--out <dir>``,
``--format csv|json``, ``--seed <u64>``, ``--eps <f>``, ``--grid MxN``.  Each
adds only the flags it reads (``spectrum --vectors``, ``dict --p --q``,
``approx --trials --p --tolerance``); ``bands validate`` takes ``--config``
alone.  Every value is checked as it is parsed.  Operators run one after
another; ``MDPROLATE_THREADS`` >= 2 runs up to that many at once in a pool.
Identical config and seed produce byte-identical output files on the same
machine and BLAS thread setting.  Exit codes: 0 success, 1 verification
failure, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dictionary as dct
from .bands import (BandConfig, BandError, ConfigError, SamplingGrid,
                    load_band_config)
from .operator import (DenseCovariance, OperatorSpec, SizeCapError,
                       _draw_spectrum, materialize_cubic, spectrum,
                       spectrum_values)
from .parallelepiped import _operators
from .prolate import cluster_counts
from .reports import (ReportRow, export_dictionary, report_rows_csv,
                      report_rows_json, write_eigenvectors_csv, write_json,
                      write_spectrum_csv)
from .verify import default_config, max_workers, verify_config

__all__ = ["main"]


def _option(convert, requirement: str, ok=lambda value: True):
    """An argparse ``type``: the text through ``convert``, which must succeed
    and satisfy ``ok``, or the flag is rejected with ``requirement`` and the
    text (exit 2, JSON)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
    return parse


_GRID = _option(lambda text: SamplingGrid(
    tuple(int(part) for part in text.lower().split("x"))),
    "grid must be sizes >= 2 joined by 'x', e.g. 32x32 or 256")
_SEED = _option(int, "seed must fit in an unsigned 64-bit integer",
                lambda seed: 0 <= seed < 2**64)
_EPS = _option(float, "eps must be in (0, 1/2)", lambda eps: 0.0 < eps < 0.5)
_TRIALS = _option(int, "trials must be >= 1", lambda trials: trials >= 1)
_TOLERANCE = _option(float, "tolerance must be finite and >= 0",
                     lambda tol: 0.0 <= tol < np.inf)
_COUNTS = _option(lambda text: tuple(int(piece) for piece in text.split(",")),
                  "q must be comma-separated integers")


def _check_out(out: Path) -> None:
    """Reject an ``--out`` that can never be a directory before any work is
    done: an existing non-directory, or a path through one.  Creates
    nothing."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {str(out)!r}: {str(path)!r} is not a "
                                  "directory")
            return


def _resolve(args) -> BandConfig:
    """The run's band configuration (``verify``'s built-in one when no
    ``--config`` is given), with ``--grid`` applied; ``--out`` is checked
    first."""
    _check_out(args.out)
    config = (default_config() if args.config is None
              else load_band_config(args.config))
    if args.grid is not None:
        config = BandConfig(grid=args.grid, cubic=config.cubic,
                            parallelepiped=config.parallelepiped)
    return config


def _write_report(rows: list[ReportRow], args, name: str) -> Path:
    path = args.out / f"{name}.{args.format}"
    if args.format == "json":
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
        "transition_count": counts.middle,
    }


def cmd_spectrum(args) -> int:
    config = _resolve(args)
    if args.vectors and config.grid.dim != 1:
        raise ConfigError("--vectors needs a 1-D configuration, got a "
                          f"{config.grid.dim}-D grid")
    jobs = _operators(config)

    def run(job):
        # Summarize inside the job so that, besides the spec's O(n) tables,
        # only its spectrum outlives it: the solve's blocks are freed before
        # the next job builds its own.
        name, spec, materialize = job
        cov = materialize(spec)
        if args.vectors:
            sp = spectrum(cov)
            lam, vectors = sp.eigenvalues, sp.tensors.T
        else:
            lam, vectors = spectrum_values(cov), None
        return name, _summary(name, cov, lam, args.eps), lam, vectors

    workers = min(max_workers(), len(jobs))
    if workers <= 1:
        results = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    for name, summary, lam, vectors in sorted(results, key=lambda r: r[0]):
        write_spectrum_csv(args.out / f"{name}_eigenvalues.csv", lam)
        write_json(args.out / f"{name}_summary.json", summary)
        if vectors is not None:
            write_eigenvectors_csv(args.out / f"{name}_eigenvectors.csv", vectors)
        print(f"{name}: {lam.size} eigenvalues -> {args.out}")
    return 0


def _dict_sizing(spec: OperatorSpec, args) -> tuple[int, list[int]]:
    bands = spec.bands
    total = spec.grid.size
    p, q = dct._sizes(spec, args.eps)
    if args.p is not None:
        p = args.p
    else:
        # p stays within the grid only for eps below this limit; q's rule
        # needs eps < 1, which the parser's (0, 1/2) already keeps.
        measure = bands.measure()
        limit = 1.0 / measure - 1.0
        if args.eps >= limit:
            fits = f"eps must be in (0, {limit:g})" if limit > 0.0 else "no eps fits"
            raise ConfigError(f"{fits} for this band union (measure {measure:g}); "
                              "set the dictionary sizes with --p and --q")
    if args.q is not None:
        if len(args.q) != bands.num_bands:
            raise ConfigError(f"--q needs {bands.num_bands} counts")
        q = list(args.q)
    if not 0 < p <= total:
        raise ConfigError(f"dictionary size p = {p} outside (0, {total}]")
    if any(not 0 < qi <= total for qi in q):
        raise ConfigError(f"per-band counts {q} outside (0, {total}]")
    return p, q


def _phi_basis(phi: dct.Dictionary) -> dct.SubspaceBasis:
    """The span of a phi dictionary: its atoms are orthonormal eigen-tensors
    already, so they are stacked as the basis as they are, with no SVD and
    no rank cut."""
    return dct.SubspaceBasis(q=phi.stacked(), dims=phi.grid.dims, rank=len(phi),
                             tolerance=0.0)


def cmd_dict(args) -> int:
    config = _resolve(args)
    if config.cubic is None:
        raise ConfigError("dict requires cubic bands")
    if config.grid.dim != 2:
        raise ConfigError(f"dict requires a 2-D grid, got {config.grid.dim}-D")
    spec = OperatorSpec(grid=config.grid, bands=config.cubic)
    p, q = _dict_sizing(spec, args)
    phi = dct.build_phi(spec, p)
    psi = dct.build_psi(spec, q)
    export_dictionary(phi, args.out / "phi")
    export_dictionary(psi, args.out / "psi")

    phi_basis = _phi_basis(phi)
    cos_theta = dct.subspace_cos_theta(phi_basis, psi)
    gram = np.abs(psi.gram())
    np.fill_diagonal(gram, 0.0)
    # Residuals x - P x of every psi atom at once, formed in place so the
    # only full-size temporaries are one product and one conjugate.
    atoms, basis = psi.stacked(), phi_basis.q
    atoms -= basis @ (basis.T @ atoms.conj()).conj()
    resid = float(np.max(np.einsum("ij,ij->j", atoms.conj(), atoms).real))
    params = (f"grid={'x'.join(map(str, config.grid.dims))};"
              f"eps={args.eps:g};p={p};q={','.join(map(str, q))}")
    rows = [
        ReportRow("dict", params, "cos_theta", cos_theta, None, True),
        ReportRow("dict", params, "max_gram_offdiag", float(gram.max()), None, True),
        ReportRow("dict", params, "max_projection_residual_sq", resid, None, True),
    ]
    path = _write_report(rows, args, "dict_report")
    for row in rows:
        print(f"{row.metric} = {row.value:.12g}")
    print(f"report -> {path}")
    return 0


def cmd_approx(args) -> int:
    config = _resolve(args)
    if config.cubic is None:
        raise ConfigError("approx requires cubic bands")
    spec = OperatorSpec(grid=config.grid, bands=config.cubic)
    total = config.grid.size
    p = args.p if args.p is not None else min(total, dct._sizes(spec, args.eps)[0])
    if not 0 <= p <= total:
        raise ConfigError(f"p = {p} outside [0, {total}]")
    sp = _draw_spectrum(materialize_cubic(spec), p)
    basis = _phi_basis(dct.build_phi(spec, p, spec_spectrum=sp))
    report = dct.approx_mse(basis, spec, args.trials, args.seed, spec_spectrum=sp)
    empirical, tail = report.empirical_mean, report.analytic_tail
    rel = abs(empirical - tail) / tail if tail > 1e-12 else 0.0
    tol = args.tolerance
    params = (f"grid={'x'.join(map(str, config.grid.dims))};p={p};"
              f"rank={basis.rank};trials={args.trials};seed={args.seed}")
    rows = [
        ReportRow("approx", params, "empirical_mean_residual", empirical, None, True),
        ReportRow("approx", params, "analytic_tail", tail, None, True),
        ReportRow("approx", params, "relative_error", rel, tol, rel <= tol),
    ]
    path = _write_report(rows, args, "approx_report")
    print(f"empirical = {empirical:.12g}, tail = {tail:.12g}, "
          f"relative error = {rel:.3g} (tolerance {tol:g})")
    print(f"report -> {path}")
    return 0 if rel <= tol else 1


def cmd_verify(args) -> int:
    rows = verify_config(_resolve(args), eps=args.eps, seed=args.seed)
    path = _write_report(rows, args, "verify_report")
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
    try:
        config = load_band_config(args.config)  # constructors reject every violation
        for _, spec, materialize in _operators(config):
            # The size cap, then the table a solve reads, each band term
            # checked finite as it is built.
            materialize(spec).tables.solved
    except BandError as exc:
        for v in exc.violations:
            print(f"[FAIL] {v.code} bands={list(v.bands)}: {v.message}")
        return 1
    print("ok")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises command-line errors as :class:`ConfigError` (exit 2, JSON),
    and takes flags only as spelled in full: no unique prefix stands for a
    flag.  Subparsers are built by this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call reuses it."""
    parser = _Parser(
        prog="mdprolate",
        description="Spectra, dictionaries and diagnostics for multiband "
                    "time/band-limiting operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def data_command(name, help, func, eps_default, config_required=True):
        """A subcommand with the flags every data command shares."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=config_required,
                       help="band configuration JSON")
        p.add_argument("--out", type=Path, default="mdprolate-out",
                       help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--eps", type=_EPS, default=eps_default)
        p.add_argument("--grid", type=_GRID, help="grid override, e.g. 32x32 or 256")
        p.set_defaults(func=func)
        return p

    sp = data_command("spectrum", "eigenvalue CSV + summary JSON", cmd_spectrum, 0.05)
    sp.add_argument("--vectors", action="store_true",
                    help="also write eigenvector CSV (1-D configurations)")
    dp = data_command("dict", "dictionary export + angle report", cmd_dict, 0.2)
    ap = data_command("approx", "Monte-Carlo approximation error report",
                      cmd_approx, 0.2)
    ap.add_argument("--trials", type=_TRIALS, default=2000)
    for cmd in (dp, ap):
        cmd.add_argument("--p", type=int, default=None,
                         help="explicit dictionary size (overrides the eps rule)")
    dp.add_argument("--q", type=_COUNTS, default=None,
                    help="explicit per-band counts, comma separated")
    ap.add_argument("--tolerance", type=_TOLERANCE, default=0.10,
                    help="pass/fail threshold on the relative error")
    data_command("verify", "full property-suite report", cmd_verify, 0.2,
                 config_required=False)

    bp = sub.add_parser("bands", help="band-geometry utilities")
    bsub = bp.add_subparsers(dest="bands_command", required=True)
    bv = bsub.add_parser("validate", help="report configuration violations")
    bv.add_argument("--config", required=True, help="band configuration JSON")
    bv.set_defaults(func=cmd_bands_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, BandError, SizeCapError, OSError) as exc:
        # OSError: the outputs could not be written (no permission, a full
        # disk, or --out replaced by a file while the run was solving).
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
