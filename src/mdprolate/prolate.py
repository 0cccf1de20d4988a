"""One-dimensional concentration kernels: the package's 1-D public API.

The covariance of a unit-power multiband process sampled at n points is a
dense Hermitian matrix whose (m, n) entry is a sum of modulated sinc terms,
one per band.  Its eigenvectors for a single baseband interval are the
discrete prolate spheroidal sequences (DPSS); eigenvalues cluster sharply
near 1 and 0 with about ``2 n W`` values near 1 per band of half-width W.

Everything here is desk-scale (n up to a few thousand) and decomposed by
a dense eigensolver.  The kernels are gathered from difference tables
(:mod:`mdprolate._tables`) and decomposed through the package's one
solver entry point (:mod:`mdprolate._solver`), which reduces a
multilevel Toeplitz kernel to a real symmetric form of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._solver import _eigh
from ._tables import _axis_table, _boxes, _gather, _hermitian, _strided, _Tables
from .bands import CubicBandUnion

__all__ = [
    "sinc_kernel",
    "multiband_kernel",
    "dpss",
    "decompose",
    "modulate",
    "cluster_counts",
    "ClusterCounts",
    "Spectrum1D",
    "EigensolverError",
]


class EigensolverError(RuntimeError):
    """Dense eigendecomposition failed; message carries the offending problem."""


def _hermitize(a: np.ndarray) -> np.ndarray:
    # Removes last-bit roundoff asymmetry that destabilizes eigensolvers.
    return (a + a.conj().T) / 2.0


def _check_band(f_c: float, half_width: float) -> None:
    if not 0.0 < half_width <= 0.5:
        raise ValueError(f"half-width must be in (0, 1/2], got {half_width}")
    # Written so that a NaN centre fails it too.
    if not abs(f_c) + half_width <= 0.5 + 1e-12:
        raise ValueError(
            f"band [{f_c - half_width}, {f_c + half_width}] exceeds [-1/2, 1/2]")


def _check_length(n) -> None:
    """Reject a 1-D length that is not an integer of at least 1 (numpy
    integers are integers)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"length must be an integer >= 1, got {n!r}")


def sinc_kernel(n: int, f_c: float, half_width: float) -> np.ndarray:
    """Covariance kernel of one band ``[f_c - W, f_c + W]``.

    Entry (m, k) is ``exp(2j pi f_c (m-k)) * sin(2 pi W (m-k)) / (pi (m-k))``
    with diagonal ``2 W``.  Returned matrix is exactly Hermitian and PSD up
    to roundoff.
    """
    _check_length(n)
    _check_band(f_c, half_width)
    return _gather(_hermitian(_axis_table(n, f_c, half_width).astype(complex)))


def multiband_kernel(n: int, union: CubicBandUnion) -> np.ndarray:
    """Covariance kernel of a 1-D multiband union: entrywise sum of
    modulated sinc kernels.  Trace equals ``n * union.measure()``."""
    _check_length(n)
    if union.dim != 1:
        raise ValueError(f"expected a 1-D band union, got dim {union.dim}")
    return _gather(_Tables(_boxes((n,), union)).table)


def _hermitian_exactly(a: np.ndarray) -> bool:
    """Whether ``a == a^H`` holds exactly, compared a block of rows at a
    time so no full-size copy is made."""
    n = a.shape[0]
    step = max(1, 65536 // n)
    for lo in range(0, n, step):
        if not np.array_equal(a[lo:lo + step], a[:, lo:lo + step].T.conj()):
            return False
    return True


@dataclass(frozen=True)
class Spectrum1D:
    """Descending eigenvalues and phase-fixed eigenvectors of a kernel."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def count_above(self, threshold: float) -> int:
        return int(np.count_nonzero(self.eigenvalues > threshold))


def decompose(kernel: np.ndarray) -> Spectrum1D:
    """Full dense Hermitian eigendecomposition, descending order.

    A kernel with a non-finite entry is rejected; input that is not
    exactly Hermitian is replaced by its Hermitian part first.  A complex
    kernel that is multilevel Toeplitz over the grid its rows show, as a
    gathered kernel of any dimension is, is solved through its real form;
    any other by the dense complex solve.
    """
    kernel = np.asarray(kernel)
    if kernel.ndim != 2 or not 0 < kernel.shape[0] == kernel.shape[1]:
        raise ValueError("kernel must be a non-empty square matrix")
    if not np.isfinite(kernel).all():
        raise ValueError("kernel has a non-finite entry")
    if not _hermitian_exactly(kernel):
        kernel = _hermitize(kernel)
    vals, vecs = _eigh(kernel, True)
    return Spectrum1D(vals, vecs.tensors().T)


def dpss(n: int, half_width: float) -> Spectrum1D:
    """Discrete prolate spheroidal sequences of length n for half-width W.

    Computed as the full eigendecomposition of the real symmetric baseband
    kernel ``sinc_kernel(n, 0, W)``, read as the strided view of its 1-D
    table, which needs no copy; eigenvectors are real with the
    largest-magnitude entry positive.
    """
    _check_length(n)
    _check_band(0.0, half_width)
    kernel = _strided(_hermitian(_axis_table(n, 0.0, half_width)))
    vals, vecs = _eigh(kernel, True)
    return Spectrum1D(vals, vecs.tensors().T)


def modulate(v: np.ndarray, f_c: float) -> np.ndarray:
    """Frequency-shift a vector (or the columns of a matrix) by f_c.

    Norm-preserving; maps eigenvectors of the baseband kernel to
    eigenvectors of the band-pass kernel at the same eigenvalues.
    """
    v = np.asarray(v)
    phases = np.exp(2j * np.pi * f_c * np.arange(v.shape[0]))
    if v.ndim == 1:
        return phases * v
    return phases[:, None] * v


class ClusterCounts(NamedTuple):
    near_one: int
    middle: int
    near_zero: int


def cluster_counts(eigs: np.ndarray, eps: float) -> ClusterCounts:
    """Counts of eigenvalues above ``1 - eps``, inside ``[eps, 1 - eps]``,
    and below ``eps``.

    ``eigs`` must be sorted descending; ``eps`` in (0, 1/2].  The three
    counts always sum to ``len(eigs)``.
    """
    eigs = np.asarray(eigs, dtype=float)
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    if eigs.size > 1 and np.any(np.diff(eigs) > 1e-12):
        raise ValueError("eigenvalues must be sorted descending")
    near_one = int(np.count_nonzero(eigs > 1.0 - eps))
    near_zero = int(np.count_nonzero(eigs < eps))
    return ClusterCounts(near_one, eigs.size - near_one - near_zero, near_zero)
