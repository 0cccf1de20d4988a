"""Self-contained property suite over a band configuration.

Every check emits :class:`~mdprolate.reports.ReportRow` records with an
explicit pass/fail, so a caller can render the whole suite and exit
nonzero when anything fails.

The configuration's operator list (``parallelepiped._operators``, the one
the CLI's ``spectrum`` also reads) drives the suite: each operator, 1-D
multiband, cubic or parallelogram, runs its geometry's rows.  Each starts
with one shared block on the eigenvalues alone: trace = samples x measure,
eigenvalues in [0, 1], and ``trace - ||.||_F^2 = sum lambda (1 - lambda)``.
Then come the geometry's own rows: FFT apply against the dense product,
separable factorization for a single box and residual/coherence bounds on
modulated-DPSS dictionaries (2-D cubic); the logarithmic gap bound (1-D
and 2-D cubic); modulation invariance (1-D); Hermitian symmetry and
eigenvalue invariance under band translation (parallelogram), the latter
solving the translated operator from its complex table, so that row
compares the demodulated route with the complex one.  No row gathers a
table-backed operator to solve it: dense matrices are read only as the
FFT apply's reference, by the corruption hook and as the hand-built 1-D
kernels of the modulation row.

Operators are checked one after another, each dense solve using every
core through BLAS; ``MDPROLATE_THREADS`` >= 2 runs up to that many at once
in a thread pool instead.  Setting ``MDPROLATE_TEST_CORRUPT`` perturbs a
copy of every materialized operator in the shared block on purpose and
checks that copy, so ``trace_rel_err`` fails for every geometry; this is
how the failure path is exercised end to end.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bands import (BandConfig, ConfigError, CubicBandUnion, ParallelepipedBand,
                    SamplingGrid)
from .dictionary import (build_psi, cross_band_gram_violations,
                         pseudo_eigen_residuals)
from .operator import (DenseCovariance, OperatorSpec, apply_cubic, gap_bound,
                       materialize_cubic, separable_eigenvalues, spectrum_values,
                       transition_count, vec)
from .parallelepiped import (PPOperatorSpec, _operators, _shift_deviation,
                             pp_entry, pp_materialize)
from .prolate import sinc_kernel
from .reports import ReportRow

__all__ = ["verify_config", "default_config", "max_workers"]

CORRUPT_ENV = "MDPROLATE_TEST_CORRUPT"
THREADS_ENV = "MDPROLATE_THREADS"


def max_workers() -> int:
    """Worker cap for parallel jobs, from MDPROLATE_THREADS (default 1: jobs
    run inline, each dense solve already uses every core through BLAS)."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if value >= 1:
            return value
    return 1


def default_config() -> BandConfig:
    """Built-in desk-scale configuration exercising every operator kind."""
    cubic = CubicBandUnion(
        centers=[[-0.10, 0.20], [0.20, -0.10]],
        half_widths=[[0.05, 0.05], [0.05, 0.05]])
    pp = (ParallelepipedBand(1.0, 0.5, 0.0, 1.0, (0.1, 0.1), (0.05, -0.05)),)
    return BandConfig(grid=SamplingGrid((16, 16)), cubic=cubic, parallelepiped=pp)


def _row(experiment, params, metric, value, tolerance, passed) -> ReportRow:
    return ReportRow(experiment=experiment, params=params, metric=metric,
                     value=float(value), tolerance=tolerance, passed=bool(passed))


def _params(grid: SamplingGrid, num_bands: int, eps: float) -> str:
    return f"grid={'x'.join(map(str, grid.dims))};J={num_bands};eps={eps:g}"


def _corrupt_requested() -> bool:
    return os.environ.get(CORRUPT_ENV, "") not in ("", "0")


def _operator_rows(experiment: str, params: str, cov: DenseCovariance,
                   measure: float, *, identity: bool = True):
    """Rows every geometry shares: trace = samples x measure, eigenvalues in
    [0, 1] and (unless ``identity`` is off) ``trace - ||.||_F^2 =
    sum lambda (1 - lambda)``.

    Returns the rows, the descending eigenvalues and the trace-Frobenius gap
    so a geometry can add its own rows.
    """
    if _corrupt_requested():
        # Test hook: force the trace identity to fail.  Gathered matrices
        # are read-only, and a hand-built covariance is solved from its matrix.
        matrix = cov.matrix.copy()
        matrix[0, 0] += 0.37
        cov = DenseCovariance(matrix, dims=cov.dims)
    lam = spectrum_values(cov)
    expected = cov.size * measure
    err = abs(lam.sum() - expected) / expected
    in_range = float(max(-lam.min(), lam.max() - 1.0))
    gap = cov.trace() - cov.frobenius_sq()
    rows = [
        _row(experiment, params, "trace_rel_err", err, 1e-9, err <= 1e-9),
        _row(experiment, params, "eigenvalue_range_excess", in_range, 1e-10,
             in_range <= 1e-10),
    ]
    if identity:
        ident = abs(gap - float(np.sum(lam * (1.0 - lam))))
        rows.append(_row(experiment, params, "gap_identity_abs_err", ident, 1e-8,
                         ident <= 1e-8))
    return rows, lam, gap


def _cubic_rows(spec: OperatorSpec, eps: float, seed: int) -> list[ReportRow]:
    """Cubic and psi dictionary rows; on three or more axes only the shared
    rows (no separable route, closed-form gap bound or psi dictionary)."""
    grid, bands = spec.grid, spec.bands
    params = _params(grid, bands.num_bands, eps)
    cov = materialize_cubic(spec)
    if grid.dim > 2:
        return _operator_rows("cubic", params, cov, bands.measure())[0]
    rows, lam, gap = _operator_rows("cubic", params, cov, bands.measure())
    total = grid.size

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        y = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
        via_apply = apply_cubic(spec, y)
        via_dense = cov.matrix @ vec(y)
        worst = max(worst, float(np.linalg.norm(vec(via_apply) - via_dense)
                                 / np.linalg.norm(via_dense)))
    rows.append(_row("cubic", params, "apply_vs_dense_rel_err", worst, 1e-10,
                     worst <= 1e-10))

    sep = separable_eigenvalues(grid.dims[0], grid.dims[1], bands.band(0))
    dense_one = spectrum_values(materialize_cubic(
        OperatorSpec(grid=grid, bands=bands.band(0))))
    sep_err = float(np.max(np.abs(sep - dense_one)))
    rows.append(_row("cubic", params, "separable_vs_dense_max_err", sep_err, 1e-9,
                     sep_err <= 1e-9))

    bound = gap_bound(grid.dims, bands.num_bands)
    rows.append(_row("cubic", params, "gap_log_bound_ratio", gap / bound, 1.0,
                     gap <= bound))

    trans = transition_count(lam, 0.05)
    limit = total - int(np.floor(total * bands.measure()))
    rows.append(_row("cubic", params, "transition_count_at_0.05", trans, float(limit),
                     trans <= limit))
    # Informational: fraction of the nominal count MN*measure found above
    # 0.95; approaches 1 as the grid grows but has no usable fixed floor at
    # small sizes.
    plateau = int(np.count_nonzero(lam > 0.95))
    rows.append(_row("cubic", params, "near_one_fraction_at_0.95",
                     plateau / (total * bands.measure()), None, True))
    return rows + _dictionary_rows(spec, eps)


def _dictionary_rows(spec: OperatorSpec, eps: float) -> list[ReportRow]:
    grid, bands = spec.grid, spec.bands
    rows: list[ReportRow] = []
    total = grid.size
    params = _params(grid, bands.num_bands, eps)
    q = [max(1, int(np.floor(total * spec.bands.band(i).measure() * (1.0 - eps))))
         for i in range(bands.num_bands)]
    psi = build_psi(spec, q, check_gram=False)

    resid = pseudo_eigen_residuals(spec, psi)
    excess = float(np.max(resid[:, 0] - resid[:, 1]))
    rows.append(_row("dictionary", params, "pseudo_eigen_residual_excess", excess,
                     1e-8, excess <= 1e-8))

    bad = cross_band_gram_violations(psi)
    rows.append(_row("dictionary", params, "cross_band_gram_violations", len(bad),
                     0.0, len(bad) == 0))
    return rows


def _parallelepiped_rows(spec: PPOperatorSpec, eps: float,
                         seed: int) -> list[ReportRow]:
    grid, bands = spec.grid, spec.bands
    params = _params(grid, len(bands), eps)
    rows, lam, gap = _operator_rows("parallelepiped", params, pp_materialize(spec),
                                    spec.measure())
    # Informational: same-order comparison against the cubic-form log bound.
    rows.append(_row("parallelepiped", params, "gap_vs_cubic_bound_ratio",
                     gap / gap_bound(grid.dims, len(bands)), None, True))

    rng = np.random.default_rng(7)
    worst = 0.0
    for band in bands:
        idx = rng.integers(0, min(grid.dims), size=(8, 4))
        fwd = pp_entry(band, idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3])
        rev = pp_entry(band, idx[:, 2], idx[:, 3], idx[:, 0], idx[:, 1])
        worst = max(worst, float(np.max(np.abs(fwd - np.conj(rev)))))
    rows.append(_row("parallelepiped", params, "hermitian_symmetry_max_err", worst,
                     1e-15, worst <= 1e-15))

    delta = _safe_shift(bands)
    shifted = PPOperatorSpec(grid=grid,
                             bands=tuple(b.shifted(delta) for b in bands))
    dev = _shift_deviation(lam, shifted)
    rows.append(_row("parallelepiped", params, "center_shift_max_dev", dev, 1e-9,
                     dev <= 1e-9))
    return rows


def _safe_shift(bands) -> tuple[float, float]:
    """A nonzero translation keeping every band inside the Nyquist square."""
    corners = np.vstack([b.corners() for b in bands])
    room = 0.5 - np.abs(corners).max()
    step = min(max(room * 0.5, 0.0), 0.02)
    return (step, -step)


def _oned_rows(spec: OperatorSpec, eps: float, seed: int) -> list[ReportRow]:
    bands = spec.bands
    n = spec.grid.dims[0]
    params = f"n={n};J={bands.num_bands};eps={eps:g}"
    rows, _, gap = _operator_rows("multiband1d", params, materialize_cubic(spec),
                                  bands.measure(), identity=False)

    bound = gap_bound((n,), bands.num_bands)
    rows.append(_row("multiband1d", params, "gap_log_bound_ratio", gap / bound, 1.0,
                     gap <= bound))
    # Informational: the same bound read with log base 10 instead of e.
    bound10 = 4.0 * n * bands.num_bands / np.pi**2 * (3.0 + np.log10(n))
    rows.append(_row("multiband1d", params, "gap_log10_bound_ratio", gap / bound10,
                     None, True))

    worst = 0.0
    for f, w in zip(bands.centers[:, 0], bands.half_widths[:, 0]):
        shifted = spectrum_values(DenseCovariance(sinc_kernel(n, f, w), dims=(n,)))
        base = spectrum_values(DenseCovariance(sinc_kernel(n, 0.0, w), dims=(n,)))
        worst = max(worst, float(np.max(np.abs(shifted - base))))
    rows.append(_row("multiband1d", params, "modulation_invariance_max_err", worst,
                     1e-9, worst <= 1e-9))
    return rows


# The rows of each operator ``parallelepiped._operators`` lists, by name.
_SUITES = {"multiband1d": _oned_rows, "cubic": _cubic_rows,
           "parallelepiped": _parallelepiped_rows}


def verify_config(config: BandConfig, *, eps: float = 0.2,
                  seed: int = 0) -> list[ReportRow]:
    """Run every applicable invariant suite for the configuration.

    Returns the full deterministic list of report rows; the caller decides
    what a failing row means (the CLI exits 1).
    """
    jobs = [functools.partial(_SUITES[name], spec, eps, seed)
            for name, spec in _operators(config)]
    workers = min(max_workers(), len(jobs))
    if workers <= 1:
        chunks = [job() for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda f: f(), jobs))
    return sorted((row for chunk in chunks for row in chunk), key=ReportRow.key)
