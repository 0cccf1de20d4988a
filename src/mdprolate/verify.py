"""Self-contained property suite over a band configuration.

Every check emits :class:`~mdprolate.reports.ReportRow` records with an
explicit pass/fail, so a caller can render the whole suite and exit
nonzero when anything fails.

One suite checks every operator of the configuration's operator list
(``parallelepiped._operators``, the one the CLI's ``spectrum`` also
reads), whether 1-D multiband, cubic in any dimension or parallelogram.
It materializes the operator and solves its eigenvalues once, then writes
the shared block, the same rows for every operator: trace = samples x
measure, eigenvalues in [0, 1], ``trace - ||.||_F^2 = sum lambda (1 -
lambda)``, the count of eigenvalues in [0.05, 0.95] against the bound that
gap gives, the fraction of the nominal count above 0.95, and eigenvalue
invariance under translation of the whole band set by ``_STEP``.  No
configuration is built for the moved set: a band term is periodic in its
centre, so a band moved past 1/2 is the same spectrum, moved.  The
translation row is certified from the tables with no second eigensolve
(``_tables._Tables.shift_deviation``): the moved set's complex table,
recentred by the step and the solved table's centre, minus the table the
shared block solved, has a Frobenius norm that bounds the 2-norm of the
two spectra's difference (1-D n = 512 reads about 2.7e-14).  The
logarithmic gap bound follows in every dimension, enforced for boxes and
only compared for parallelograms.  Two geometry groups close the suite: on
2-D boxes, FFT apply against the dense product, the separable
factorization of the first box and residual/coherence bounds on
modulated-DPSS dictionaries; on parallelograms, Hermitian symmetry of
sampled entries.
No row holds an n x n array or reads ``.matrix``: the FFT apply's dense
reference is summed from table entries a band of rows at a time
(``_tables._dense_product``).  Every row reads the one table object the
spec holds, so each operator's table is built once per run.

Operators are checked one after another, each dense solve using every
core through BLAS; ``MDPROLATE_THREADS`` >= 2 runs up to that many at once
in a thread pool instead.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bands import (BandConfig, ConfigError, CubicBandUnion, ParallelepipedBand,
                    SamplingGrid)
from .dictionary import (_sizes, build_psi, cross_band_gram_violations,
                         pseudo_eigen_residuals)
from .operator import (OperatorSpec, apply_cubic, gap_bound,
                       materialize_cubic, separable_eigenvalues, spectrum_values,
                       transition_count, vec)
from .parallelepiped import PPOperatorSpec, _operators, pp_entry
from .reports import ReportRow

__all__ = ["verify_config", "default_config", "max_workers"]

THREADS_ENV = "MDPROLATE_THREADS"

# How far eigenvalue_range_excess lets an eigenvalue lie outside [0, 1].
_RANGE_TOL = 1e-10
# How far the translation rows move every band, per axis (signs alternate).
_STEP = 0.02


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


def _suite(name: str, spec, materialize, eps: float, seed: int) -> list[ReportRow]:
    """Every row of one operator, materialized by ``materialize``: the
    shared block with the gap bound, then the 2-D box rows or the
    parallelogram's Hermitian row."""
    grid = spec.grid
    pp = isinstance(spec, PPOperatorSpec)
    count, measure = len(spec.bands), spec.measure()
    dims = "x".join(map(str, grid.dims))
    params = f"{'n' if grid.dim == 1 else 'grid'}={dims};J={count};eps={eps:g}"

    def row(metric, value, tolerance, experiment=name) -> ReportRow:
        value = float(value)
        return ReportRow(experiment, params, metric, value, tolerance,
                         tolerance is None or value <= tolerance)

    cov = materialize(spec)
    lam = spectrum_values(cov)
    expected = cov.size * measure
    gap = cov.trace() - cov.frobenius_sq()
    # Each eigenvalue in [0.05, 0.95] adds at least 0.05 * 0.95 to sum lam (1
    # - lam): the gap, to the identity row's 1e-8, plus at most t (1 + t) for
    # each eigenvalue the range row lets lie within t of [0, 1].  So the
    # transition row holds whenever those two do; an eigenvalue far outside
    # fails it.
    outside = cov.size * _RANGE_TOL * (1.0 + _RANGE_TOL)
    rows = [row("trace_rel_err", abs(lam.sum() - expected) / expected, 1e-9),
            row("eigenvalue_range_excess", max(-lam.min(), lam.max() - 1.0),
                _RANGE_TOL),
            row("gap_identity_abs_err",
                abs(gap - float(np.sum(lam * (1.0 - lam)))), 1e-8),
            row("center_shift_max_dev", _translation_deviation(cov), 1e-9),
            row("transition_count_at_0.05", transition_count(lam, 0.05),
                (gap + 1e-8 + outside) / (0.05 * 0.95)),
            # Informational: fraction of the nominal count N * measure found
            # above 0.95; approaches 1 as the grid grows but has no usable
            # fixed floor at small sizes.
            row("near_one_fraction_at_0.95",
                np.count_nonzero(lam > 0.95) / expected, None),
            # The closed-form bound is proved for boxes; a parallelogram's
            # gap is only compared with it (informational).
            row("gap_vs_cubic_bound_ratio" if pp else "gap_log_bound_ratio",
                gap / gap_bound(grid.dims, count), None if pp else 1.0)]
    if pp:
        # Hermitian symmetry of sampled parallelogram entries.
        rng = np.random.default_rng(7)
        worst = 0.0
        for band in spec.bands:
            idx = rng.integers(0, np.tile(grid.dims, 2), size=(8, 4))
            fwd = pp_entry(band, idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3])
            rev = pp_entry(band, idx[:, 2], idx[:, 3], idx[:, 0], idx[:, 1])
            worst = max(worst, float(np.max(np.abs(fwd - np.conj(rev)))))
        rows.append(row("hermitian_symmetry_max_err", worst, 1e-15))
    elif grid.dim == 2:
        # 2-D boxes: FFT apply against the dense product, the separable route
        # for the first box, and the psi dictionary's residual and
        # cross-band Gram rows (no separable route or psi past two axes).
        rng = np.random.default_rng(seed)
        ys = [rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
              for _ in range(3)]
        via_dense = cov.tables.dense_product(np.stack([vec(y) for y in ys], axis=1))
        worst = max(float(np.linalg.norm(vec(apply_cubic(spec, y)) - dense)
                          / np.linalg.norm(dense))
                    for y, dense in zip(ys, via_dense.T))
        first = spec.bands.band(0)
        sep = separable_eigenvalues(grid.dims[0], grid.dims[1], first)
        dense_one = spectrum_values(materialize_cubic(
            OperatorSpec(grid=grid, bands=first)))
        psi = build_psi(spec, [max(1, q) for q in _sizes(spec, eps)[1]],
                        check_gram=False)
        resid = pseudo_eigen_residuals(spec, psi)
        rows += [
            row("apply_vs_dense_rel_err", worst, 1e-10),
            row("separable_vs_dense_max_err", np.max(np.abs(sep - dense_one)), 1e-9),
            row("pseudo_eigen_residual_excess", np.max(resid[:, 0] - resid[:, 1]),
                1e-8, "dictionary"),
            row("cross_band_gram_violations", len(cross_band_gram_violations(psi)),
                0.0, "dictionary")]
    return rows


def _translation_deviation(cov) -> float:
    """``shift_deviation`` of ``cov``'s tables against their own band set
    moved by :data:`_STEP` on every axis, the sign alternating from + on
    axis 0."""
    bands = cov.tables.bands
    step = _STEP * (-1.0) ** np.arange(bands.centers.shape[1])
    return cov.tables.shift_deviation(bands._replace(centers=bands.centers + step))


def verify_config(config: BandConfig, *, eps: float = 0.2,
                  seed: int = 0) -> list[ReportRow]:
    """Run the invariant suite on every operator of the configuration.

    Returns the full deterministic list of report rows; the caller decides
    what a failing row means (the CLI exits 1).
    """
    jobs = [functools.partial(_suite, name, spec, materialize, eps, seed)
            for name, spec, materialize in _operators(config)]
    workers = min(max_workers(), len(jobs))
    if workers <= 1:
        chunks = [job() for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda f: f(), jobs))
    return sorted((row for chunk in chunks for row in chunk), key=ReportRow.key)
