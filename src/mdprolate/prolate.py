"""One-dimensional concentration kernels, and the difference-table core
every operator in the package is built from.

The covariance of a unit-power multiband process sampled at n points is a
dense Hermitian matrix whose (m, n) entry is a sum of modulated sinc terms,
one per band.  Its eigenvectors for a single baseband interval are the
discrete prolate spheroidal sequences (DPSS); eigenvalues cluster sharply
near 1 and 0 with about ``2 n W`` values near 1 per band of half-width W.

Everything here is desk-scale (n up to a few thousand): kernels are
gathered densely from their difference tables and decomposed by a dense
Hermitian eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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

# Below this |x| the ratio sin(x)/x is replaced by its limit 1; kills the
# removable singularity without a branch-visible jump.
_SINC_GUARD = 1e-8


class EigensolverError(RuntimeError):
    """Dense eigendecomposition failed; message carries the offending problem."""


def _sin_ratio(x: np.ndarray) -> np.ndarray:
    """sin(x)/x with the limit value at the removable singularity."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_GUARD
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, np.sin(safe) / safe)


def _hermitize(a: np.ndarray) -> np.ndarray:
    # Removes last-bit roundoff asymmetry that destabilizes eigensolvers.
    return (a + a.conj().T) / 2.0


def _check_band(f_c: float, half_width: float) -> None:
    if not 0.0 < half_width <= 0.5:
        raise ValueError(f"half-width must be in (0, 1/2], got {half_width}")
    if abs(f_c) + half_width > 0.5 + 1e-12:
        raise ValueError(
            f"band [{f_c - half_width}, {f_c + half_width}] exceeds [-1/2, 1/2]")


# ---------------------------------------------------------------------------
# difference tables
#
# Every operator here is multilevel Toeplitz: entry (i, j) of its matrix
# depends only on the index difference i - j.  A table holds the values for
# every difference, shape (2 n_0 - 1, ..., 2 n_{d-1} - 1) with the zero
# difference at index n - 1 on each axis.  It is built once per operator,
# then gathered into the dense matrix or applied by FFT.


def _axis_table(n: int, f_c: float, half_width: float) -> np.ndarray:
    """1-D band kernel at differences 1-n..n-1 (real when f_c = 0)."""
    t = np.arange(1 - n, n)
    base = 2.0 * half_width * _sin_ratio(2.0 * np.pi * half_width * t)
    if f_c == 0.0:
        return base
    return np.exp(2j * np.pi * f_c * t) * base


def _hermitian(table: np.ndarray) -> np.ndarray:
    """Table of the Hermitian part ``(A + A^H) / 2`` of its matrix."""
    flipped = table[(slice(None, None, -1),) * table.ndim]
    return (table + flipped.conj()) / 2.0


def _cubic_table(dims: tuple[int, ...], union: CubicBandUnion) -> np.ndarray:
    """Band-sum of outer products of per-axis tables, multiplied from the
    last axis to the first (the ``kron(B_{N_{d-1}}, ..., B_{N_0})`` order)."""
    acc = np.zeros(tuple(2 * n - 1 for n in dims), dtype=complex)
    for c, w in zip(union.centers, union.half_widths):
        factors = [_hermitian(_axis_table(n, c[ax], w[ax]).astype(complex))
                   for ax, n in enumerate(dims)]
        term = factors[-1]
        for fac in factors[-2::-1]:
            term = np.multiply.outer(term, fac)
        acc += term.T  # outer products run last axis first
    return _hermitian(acc)


def _gather(table: np.ndarray) -> np.ndarray:
    """Dense matrix of a table, rows and columns in first-axis-fastest order."""
    dims = tuple((s + 1) // 2 for s in table.shape)
    center = table[tuple(slice(n - 1, None) for n in dims)]
    strides = center.strides[::-1]
    view = np.lib.stride_tricks.as_strided(
        center, shape=dims[::-1] * 2,
        strides=strides + tuple(-s for s in strides), writeable=False)
    total = int(np.prod(dims))
    return view.reshape(total, total)


def _apply(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix-free product of a table's matrix with a tensor y, through a
    circulant embedding of size ``table.shape`` (any d)."""
    transfer = np.fft.fftn(np.fft.ifftshift(table))
    padded = np.fft.fftn(y, s=table.shape, axes=tuple(range(y.ndim)))
    full = np.fft.ifftn(transfer * padded)
    return full[tuple(slice(0, n) for n in y.shape)]


def sinc_kernel(n: int, f_c: float, half_width: float) -> np.ndarray:
    """Covariance kernel of one band ``[f_c - W, f_c + W]``.

    Entry (m, k) is ``exp(2j pi f_c (m-k)) * sin(2 pi W (m-k)) / (pi (m-k))``
    with diagonal ``2 W``.  Returned matrix is exactly Hermitian and PSD up
    to roundoff.
    """
    if n < 1:
        raise ValueError("kernel size must be positive")
    _check_band(f_c, half_width)
    return _gather(_hermitian(_axis_table(n, f_c, half_width).astype(complex)))


def multiband_kernel(n: int, union: CubicBandUnion) -> np.ndarray:
    """Covariance kernel of a 1-D multiband union: entrywise sum of
    modulated sinc kernels.  Trace equals ``n * union.measure()``."""
    if union.dim != 1:
        raise ValueError(f"expected a 1-D band union, got dim {union.dim}")
    return _gather(_cubic_table((n,), union))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Deterministic sign/phase: largest-magnitude entry of each column made
    real positive."""
    lead = np.argmax(np.abs(vecs), axis=0)
    pivots = vecs[lead, np.arange(vecs.shape[1])]
    if np.iscomplexobj(vecs):
        mags = np.abs(pivots)
        safe = np.where(mags > 0, mags, 1.0)
        scale = np.where(mags > 0, np.conj(pivots) / safe, 1.0)
    else:
        scale = np.where(pivots < 0, -1.0, 1.0)
    return vecs * scale


def _descending(vals: np.ndarray, vecs: np.ndarray):
    # Stable sort preserves eigensolver order among machine-precision ties.
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


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
    """Full dense Hermitian eigendecomposition, descending order."""
    kernel = _hermitize(np.asarray(kernel))
    try:
        vals, vecs = np.linalg.eigh(kernel)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigendecomposition failed for {kernel.shape[0]}x{kernel.shape[0]} "
            f"kernel: {exc}") from exc
    vals, vecs = _descending(vals, vecs)
    return Spectrum1D(vals, _fix_phases(vecs))


def dpss(n: int, half_width: float) -> Spectrum1D:
    """Discrete prolate spheroidal sequences of length n for half-width W.

    Computed as the full eigendecomposition of the real symmetric baseband
    kernel ``sinc_kernel(n, 0, W)``; eigenvectors are real with the
    largest-magnitude entry positive.
    """
    if n < 1:
        raise ValueError("sequence length must be positive")
    _check_band(0.0, half_width)
    kernel = _gather(_hermitian(_axis_table(n, 0.0, half_width)))
    try:
        vals, vecs = np.linalg.eigh(kernel)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"DPSS eigenproblem failed for (n={n}, W={half_width}):"
                               f" {exc}") from exc
    vals, vecs = _descending(vals, vecs)
    return Spectrum1D(vals, _fix_phases(vecs))


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
