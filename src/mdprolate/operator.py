"""Time- and band-limiting operator for cubic (box) subbands, any d.

The operator is the Hermitian MN x MN matrix ``sum_i kron(B_N_i, B_M_i)``
(in d axes, one 1-D sinc factor per axis) acting on the column-major
vectorization of an M x N tensor Y (first axis fastest, so that
``vec(u v^T) = kron(v, u)``).  That matrix is the covariance of the sampled
process whose power spectrum is the indicator of the band union, so its
eigenvalues lie in [0, 1], sum to ``M N ||bands||``, and cluster sharply
near 1 and 0.

Every entry depends only on the index difference, so the operator is built
once as a difference table (see :mod:`mdprolate.prolate`): a band-sum of
outer products of per-axis 1-D sinc tables.  :func:`materialize_cubic`
gathers the table into the dense matrix; :func:`apply_cubic` applies it to
a tensor of any dimension by FFT circulant embedding, without forming the
matrix.

The dense route is intentionally exact-over-fast: matrices are materialized
up to a configurable size cap (default 4096 total samples) and decomposed
with a dense Hermitian eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import CubicBandUnion, SamplingGrid
from .prolate import (EigensolverError, _apply, _cubic_table, _fix_phases,
                      _gather, dpss, modulate)

__all__ = [
    "OperatorSpec",
    "DenseCovariance",
    "SpectrumND",
    "SizeCapError",
    "VerificationError",
    "DEFAULT_SIZE_CAP",
    "apply_cubic",
    "materialize_cubic",
    "spectrum",
    "spectrum_values",
    "separable_eigenvalues",
    "separable_spectrum",
    "transition_count",
    "trace_frobenius_gap",
    "gap_bound",
    "GapReport",
    "vec",
    "ivec",
]

DEFAULT_SIZE_CAP = 4096


class SizeCapError(ValueError):
    """Requested dense materialization exceeds the size cap."""


class VerificationError(RuntimeError):
    """A mathematically guaranteed identity failed; signals an implementation bug."""


@dataclass(frozen=True)
class OperatorSpec:
    """A sampling grid together with the cubic band union limiting it."""

    grid: SamplingGrid
    bands: CubicBandUnion

    def __post_init__(self):
        if self.bands.analog:
            raise ValueError("operator bands must be digital; apply scale_analog first")
        if self.grid.dim != self.bands.dim:
            raise ValueError(
                f"grid is {self.grid.dim}-D but bands are {self.bands.dim}-D")


def vec(y: np.ndarray) -> np.ndarray:
    """Column-major vectorization (first axis fastest)."""
    return np.asarray(y).reshape(-1, order="F")


def ivec(v: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`vec` for the given tensor shape."""
    return np.asarray(v).reshape(dims, order="F")


@dataclass(frozen=True)
class DenseCovariance:
    """Materialized operator: dense Hermitian matrix plus its provenance.

    ``spec`` is the :class:`OperatorSpec` (or the parallelepiped analogue)
    the matrix came from; ``dims`` fixes the vec/ivec tensor shape.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    spec: object

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def frobenius_sq(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)


@dataclass(frozen=True)
class SpectrumND:
    """Descending eigenvalues and matching eigen-tensors.

    ``tensors[k]`` is the k-th eigen-tensor, shaped like the sampling grid
    and of unit Frobenius norm; tensors are pairwise orthonormal under
    ``<A, B> = trace(B^H A)``.
    """

    eigenvalues: np.ndarray
    tensors: np.ndarray  # (P, *dims)

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tensors.shape[1:]


def apply_cubic(spec: OperatorSpec, y: np.ndarray) -> np.ndarray:
    """Apply the operator to a tensor shaped like the grid, any dimension,
    without materializing it.

    Matches ``materialize_cubic(spec).matrix @ vec(y)`` under :func:`vec`.
    """
    y = np.asarray(y)
    if y.shape != spec.grid.dims:
        raise ValueError(f"input shape {y.shape} does not match grid {spec.grid.dims}")
    return _apply(_cubic_table(spec.grid.dims, spec.bands), y)


def materialize_cubic(spec: OperatorSpec,
                      size_cap: int = DEFAULT_SIZE_CAP) -> DenseCovariance:
    """Dense Hermitian matrix of the operator, any dimension d.

    The matrix is the band-sum of Kronecker products
    ``kron(B_{N_{d-1}}, ..., B_{N_0})``, consistent with the first-axis-
    fastest vectorization.  Total sample count must not exceed ``size_cap``.
    """
    total = spec.grid.size
    if total > size_cap:
        raise SizeCapError(
            f"grid of {total} samples exceeds the cap {size_cap}; "
            "use apply_cubic for operator action instead")
    dims = spec.grid.dims
    return DenseCovariance(matrix=_gather(_cubic_table(dims, spec.bands)),
                           dims=dims, spec=spec)


def spectrum(cov: DenseCovariance) -> SpectrumND:
    """Full eigendecomposition of a materialized operator.

    Eigenvectors are reshaped to eigen-tensors with the same vec ordering
    used by the materialization, phase-fixed for determinism.
    """
    try:
        vals, vecs = np.linalg.eigh(cov.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigendecomposition failed for size {cov.size}: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = _fix_phases(vecs[:, order])
    tensors = np.stack([ivec(vecs[:, k], cov.dims) for k in range(cov.size)])
    return SpectrumND(eigenvalues=vals, tensors=tensors)


def spectrum_values(cov: DenseCovariance) -> np.ndarray:
    """Descending eigenvalues only (cheaper than :func:`spectrum`)."""
    try:
        vals = np.linalg.eigvalsh(cov.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigendecomposition failed for size {cov.size}: {exc}") from exc
    return vals[::-1]


def separable_eigenvalues(m: int, n: int, band: CubicBandUnion) -> np.ndarray:
    """Descending eigenvalues ``lambda_l * lambda_k`` of a single-band 2-D
    operator, from the two 1-D spectra (no dense materialization)."""
    if band.num_bands != 1 or band.dim != 2:
        raise ValueError("separable route needs exactly one 2-D band")
    lam0 = dpss(m, band.half_widths[0, 0]).eigenvalues
    lam1 = dpss(n, band.half_widths[0, 1]).eigenvalues
    prods = np.outer(lam0, lam1).ravel()
    return np.sort(prods, kind="stable")[::-1]


def separable_spectrum(m: int, n: int, band: CubicBandUnion) -> SpectrumND:
    """Spectrum of a single-band 2-D operator built from two 1-D spectra.

    Eigen-tensors are modulated outer products ``(E_f0 s_l)(E_f1 s_k)^T``
    with eigenvalues ``lambda_l * lambda_k``, sorted descending by product
    (ties broken by ascending (l, k)); the eigenvalues are independent of
    the band center because the modulation is unitary.
    """
    if band.num_bands != 1 or band.dim != 2:
        raise ValueError("separable route needs exactly one 2-D band")
    f0, f1 = band.centers[0]
    w0, w1 = band.half_widths[0]
    s0, s1 = dpss(m, w0), dpss(n, w1)
    prods = np.outer(s0.eigenvalues, s1.eigenvalues)
    l_idx, k_idx = np.unravel_index(np.arange(m * n), (m, n))
    order = np.lexsort((k_idx, l_idx, -prods.ravel()))
    u = modulate(s0.eigenvectors, f0) if f0 else s0.eigenvectors.astype(complex)
    v = modulate(s1.eigenvectors, f1) if f1 else s1.eigenvectors.astype(complex)
    tensors = np.empty((m * n, m, n), dtype=complex)
    for rank, flat in enumerate(order):
        l, k = l_idx[flat], k_idx[flat]
        tensors[rank] = np.outer(u[:, l], v[:, k])
    return SpectrumND(eigenvalues=prods.ravel()[order], tensors=tensors)


def transition_count(eigs: np.ndarray, eps: float) -> int:
    """Number of eigenvalues inside the transition region [eps, 1 - eps]."""
    eigs = np.asarray(eigs, dtype=float)
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    if eigs.size > 1 and np.any(np.diff(eigs) > 1e-12):
        raise ValueError("eigenvalues must be sorted descending")
    return int(np.count_nonzero((eigs >= eps) & (eigs <= 1.0 - eps)))


class GapReport(NamedTuple):
    trace: float
    frobenius_sq: float
    gap: float


def gap_bound(dims: tuple[int, ...], num_bands: int) -> float:
    """Closed-form upper bound on ``trace - ||.||_F^2`` for cubic operators.

    For a 2-D grid (M, N) with J bands the bound is
    ``(4 M J / pi^2)(3 + ln N) + (4 N J / pi^2)(3 + ln M)``; the 1-D form is
    ``(4 n J / pi^2)(3 + ln n)``.  Natural logarithm throughout.
    """
    if len(dims) == 1:
        n = dims[0]
        return 4.0 * n * num_bands / np.pi**2 * (3.0 + np.log(n))
    if len(dims) == 2:
        m, n = dims
        return (4.0 * m * num_bands / np.pi**2 * (3.0 + np.log(n))
                + 4.0 * n * num_bands / np.pi**2 * (3.0 + np.log(m)))
    raise ValueError("gap bound is defined for 1-D and 2-D grids only")


def trace_frobenius_gap(cov: DenseCovariance) -> GapReport:
    """Trace, squared Frobenius norm, and their gap ``sum lambda (1-lambda)``.

    For cubic operators on 1-D or 2-D grids the gap is checked against its
    logarithmic upper bound (:func:`gap_bound`); a violation raises
    :class:`VerificationError` because it can only come from a kernel bug.
    Parallelepiped covariances get the same triple with no hard bound (only
    an order-of-magnitude statement exists for them).
    """
    tr = cov.trace()
    fsq = cov.frobenius_sq()
    gap = tr - fsq
    spec = cov.spec
    if isinstance(spec, OperatorSpec) and len(cov.dims) <= 2:
        bound = gap_bound(cov.dims, spec.bands.num_bands)
        if gap > bound:
            raise VerificationError(
                f"trace-Frobenius gap {gap:.6g} exceeds its bound {bound:.6g} "
                f"for dims {cov.dims}, J = {spec.bands.num_bands}")
    return GapReport(trace=tr, frobenius_sq=fsq, gap=gap)
