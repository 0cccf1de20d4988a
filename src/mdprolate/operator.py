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
outer products of per-axis 1-D sinc tables.  Every spec builds its own
band set (``_band_set()``), and the one materializer keeps any spec's
table in a :class:`DenseCovariance`, which gathers the dense matrix only
when ``.matrix`` is first read and takes its trace and Frobenius norm from
the table; :func:`apply_cubic` applies the table to a tensor of any
dimension by FFT circulant embedding.

The dense route is intentionally exact-over-fast: operators are
materialized up to a fixed size cap, ``DEFAULT_SIZE_CAP`` (4096 total
samples, 1-D grids too), and decomposed through ``prolate._eigh``: a
dense real symmetric eigensolve of the same size, exact up to roundoff,
because every operator is centro-Hermitian.  :func:`spectrum` and
:func:`spectrum_values` fill that real form straight from the table
(``prolate._orbit_blocks``, the one filler) and never gather the matrix.
A set without a centre is solved from its complex table as one real block
of the same size, and so is a hand-built matrix, from its own table
(``prolate._toeplitz_table``).  When the boxes pair up as mirrors about
one centre, the materialization also keeps the operator's real table
demodulated to that centre, and the real form falls apart into one block
per character of the group that J and the table's commuting axis
symmetries generate.  A set with J alone, such as the
README union, gives an even and an odd block of half the size.  A single
2-D box also has the reversal of axis 0, and so four blocks; the 3-D
two-box union on a cube has the swap of axes 1 and 2, and four blocks
too.  The table solved is the demodulated one averaged over those
symmetries, which moves no entry by more than a few ulp of its
zero-difference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import CubicBandUnion, SamplingGrid
from .prolate import (_apply, _BandSet, _boxes, _demodulate, _Demodulated, _eigh,
                      _Eigenvectors, _frobenius_sq, _gather, _table, cluster_counts,
                      dpss, modulate)

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

    def measure(self) -> float:
        return self.bands.measure()

    def _band_set(self) -> _BandSet:
        """The band set of the box union (shape: the half-widths)."""
        return _boxes(self.grid.dims, self.bands)


def vec(y: np.ndarray) -> np.ndarray:
    """Column-major vectorization (first axis fastest)."""
    return np.asarray(y).reshape(-1, order="F")


def ivec(v: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`vec` for the given tensor shape."""
    return np.asarray(v).reshape(dims, order="F")


class DenseCovariance:
    """Materialized operator: its difference table, or a dense Hermitian
    matrix built by hand, plus its provenance.

    ``spec`` is the :class:`OperatorSpec` (or the parallelepiped analogue)
    the operator came from; ``dims`` fixes the vec/ivec tensor shape.  The
    materializers keep the operator's difference ``table``, and ``matrix``
    is gathered from it on first access, then cached (read-only, so it
    cannot drift from the table).  :meth:`trace` and :meth:`frobenius_sq`
    are always computed from the table when there is one, so their bits do
    not depend on whether ``matrix`` was ever read.  ``demodulated`` is set
    for point-symmetric band sets: the real table of the same operator
    shifted to the centre.  The eigensolver reads that table, or ``table``
    itself for a set without a centre, so a table-backed operator is
    decomposed without gathering, and ``verify`` forms its dense reference
    from ``table`` too: nothing in the package reads a table-backed
    ``matrix``.  A hand-built covariance passes ``matrix`` instead of
    ``table``, and is decomposed from the matrix's own table when it has
    one, as every gathered kernel does.  The matrix must be ``n x n`` with
    ``n = prod(dims)``, the table ``(2 dims - 1)`` per axis.
    """

    def __init__(self, matrix: np.ndarray | None = None, *,
                 dims: tuple[int, ...], spec: object = None,
                 table: np.ndarray | None = None,
                 demodulated: _Demodulated | None = None):
        if (matrix is None) == (table is None):
            raise ValueError("a covariance needs exactly one of matrix and table")
        self.dims = tuple(dims)
        name, shape, want = (
            ("matrix", np.shape(matrix), (self.size,) * 2) if table is None
            else ("table", np.shape(table), tuple(2 * n - 1 for n in self.dims)))
        if shape != want:
            raise ValueError(f"{name} of shape {shape} does not fit dims "
                             f"{self.dims}: expected {want}")
        self._matrix = matrix
        self.table = table
        self.spec = spec
        self.demodulated = demodulated

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _gather(self.table)
        return self._matrix

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))

    def trace(self) -> float:
        if self.table is None:
            return float(np.trace(self.matrix).real)
        # Every diagonal entry is the zero-difference entry.
        return float(self.size * self.table[tuple(n - 1 for n in self.dims)].real)

    def frobenius_sq(self) -> float:
        if self.table is None:
            return float(np.vdot(self.matrix, self.matrix).real)
        return _frobenius_sq(self.table)


class SpectrumND:
    """Descending eigenvalues and matching eigen-tensors.

    ``tensors[k]`` is the k-th eigen-tensor, shaped like the sampling grid
    and of unit Frobenius norm; tensors are pairwise orthonormal under
    ``<A, B> = trace(B^H A)``.

    A spectrum from :func:`spectrum` holds the eigenvectors as the solver
    returned them (``prolate._Eigenvectors``: one real block per
    character of the symmetry group, or one full-size block, with their
    order, pivot factors and centre phase).  ``tensors`` is
    then written from them on first access and cached, one C-contiguous
    ``(P, *dims)`` array; :meth:`leading` writes only the first few, and
    :meth:`combine` forms linear combinations without any eigen-tensor.
    A spectrum built from ``tensors`` directly reads them in both.  A
    spectrum from :func:`spectrum` holds all its eigenvectors.  One from
    :func:`_draw_spectrum` (approx's) holds only those of positive
    eigenvalues and each block's leading p: :meth:`leading` reads up to
    them, :meth:`combine` takes zero coefficients past them, and
    ``tensors`` raises.  ``build_phi``, which reads the leading p, solves
    for those alone and makes no spectrum.
    """

    def __init__(self, eigenvalues: np.ndarray, tensors: np.ndarray | None = None,
                 *, vectors: _Eigenvectors | None = None):
        if (tensors is None) == (vectors is None):
            raise ValueError("a spectrum needs exactly one of tensors and vectors")
        self.eigenvalues = eigenvalues
        self._tensors = tensors
        self._vectors = vectors
        self.dims = tuple(tensors.shape[1:]) if vectors is None else vectors.dims

    @property
    def tensors(self) -> np.ndarray:  # (P, *dims)
        if self._tensors is None:
            self._tensors = self._vectors.tensors()
        return self._tensors

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def leading(self, p: int) -> np.ndarray:
        """The first p eigen-tensors, ``(p, *dims)``, bitwise equal to
        ``tensors[:p]``, without writing the others."""
        if self._tensors is not None:
            return self._tensors[:p]
        return self._vectors.tensors(p)

    def combine(self, c: np.ndarray) -> np.ndarray:
        """``sum_k c[:, k] tensors[k]`` for coefficient rows c, shape
        ``(b, P)``: b tensors, ``(b, *dims)``, equal to the product with
        ``tensors`` up to roundoff."""
        if self._vectors is None:
            return np.tensordot(c, self._tensors, axes=1)
        return self._vectors.combine(c)


def apply_cubic(spec: OperatorSpec, y: np.ndarray) -> np.ndarray:
    """Apply the operator to a tensor shaped like the grid, any dimension,
    without materializing it.

    Matches ``materialize_cubic(spec).matrix @ vec(y)`` under :func:`vec`.
    """
    y = np.asarray(y)
    if y.shape != spec.grid.dims:
        raise ValueError(f"input shape {y.shape} does not match grid {spec.grid.dims}")
    return _apply(_table(spec._band_set()), y)


def materialize_cubic(spec: OperatorSpec) -> DenseCovariance:
    """The operator as a covariance, any dimension d.

    Its matrix is the band-sum of Kronecker products
    ``kron(B_{N_{d-1}}, ..., B_{N_0})``, consistent with the first-axis-
    fastest vectorization; it is gathered from the difference table on
    first access to ``.matrix`` and is read-only.  Total sample count must
    not exceed ``DEFAULT_SIZE_CAP``.
    """
    return _covariance(spec, "; use apply_cubic for operator action instead")


def _covariance(spec, advice: str = "") -> DenseCovariance:
    """The covariance of any spec's own band set, after the size-cap check
    (``advice`` ends its message); the one materializer of every geometry."""
    total = spec.grid.size
    if total > DEFAULT_SIZE_CAP:
        raise SizeCapError(f"grid of {total} samples exceeds the cap "
                           f"{DEFAULT_SIZE_CAP}{advice}")
    bands = spec._band_set()
    return DenseCovariance(table=_table(bands), dims=bands.dims, spec=spec,
                           demodulated=_demodulate(bands))


def spectrum(cov: DenseCovariance) -> SpectrumND:
    """Full eigendecomposition of a materialized operator.

    Eigen-tensors use the same vec ordering as the materialization and are
    phase-fixed for determinism.  They are kept as the solver's blocks and
    written only when read (see :class:`SpectrumND`).  A point-symmetric
    band set is solved as one real block per character of its symmetry
    group (an even and an odd one for J alone) from its demodulated table,
    any other band set as one real block from its complex table, both
    without gathering ``cov.matrix``; a hand-built covariance from its
    matrix's own table when it has one, else from the matrix.
    """
    vals, vectors = _decompose(cov, True)
    return SpectrumND(vals, vectors=vectors)


def spectrum_values(cov: DenseCovariance) -> np.ndarray:
    """Descending eigenvalues only (cheaper than :func:`spectrum`)."""
    return _decompose(cov, False)[0]


def _decompose(cov: DenseCovariance, vectors: bool, leading: int | None = None,
               positive: bool = False):
    """``_eigh`` of :func:`_solved`, or of a hand-built covariance's matrix;
    ``leading`` keeps only the eigenvectors the first ``leading``
    eigen-tensors need, and with ``positive`` those of positive
    eigenvalues too."""
    a = cov.matrix if cov.table is None else _solved(cov)
    return _eigh(a, vectors, cov.dims, leading, positive)


def _draw_spectrum(cov: DenseCovariance, p: int = 0) -> SpectrumND:
    """The spectrum random draws read: every eigenvalue, and only the
    eigenvectors with a nonzero draw weight (positive eigenvalue) or among
    a block's leading p, cut right after each block is solved, so phi's
    first p are read from the same solve."""
    vals, vectors = _decompose(cov, True, p, positive=True)
    return SpectrumND(vals, vectors=vectors)


def _solved(cov: DenseCovariance) -> _Demodulated:
    """The table a table-backed covariance is decomposed from: the
    demodulated one when there is one, else the table as it is."""
    return cov.demodulated or _Demodulated(None, cov.table, ())


def separable_eigenvalues(m: int, n: int, band: CubicBandUnion) -> np.ndarray:
    """Descending eigenvalues ``lambda_l * lambda_k`` of a single-band 2-D
    operator, from the two 1-D spectra (no dense materialization)."""
    return _dpss_products(m, n, band, dpss)[2]


def separable_spectrum(m: int, n: int, band: CubicBandUnion) -> SpectrumND:
    """Spectrum of a single-band 2-D operator built from two 1-D spectra.

    Eigen-tensors are modulated outer products ``(E_f0 s_l)(E_f1 s_k)^T``
    with eigenvalues ``lambda_l * lambda_k``, sorted descending by product
    (ties broken by ascending (l, k)); the eigenvalues are independent of
    the band center because the modulation is unitary.
    """
    u, v, prods, l_idx, k_idx = _dpss_products(m, n, band, dpss)
    tensors = u.T[l_idx, :, None] * v.T[k_idx, None, :]
    return SpectrumND(eigenvalues=prods, tensors=tensors)


def _dpss_products(m: int, n: int, band: CubicBandUnion, dpss_of):
    """``(u, v, products, l, k)`` for the single box ``band``: its DPSS
    families from ``dpss_of`` (:func:`dpss` or a cache of it), modulated to
    the box centre, and the products ``lambda_l * mu_k``, descending with
    ties by ascending (l, k), with the orders of each."""
    if band.num_bands != 1 or band.dim != 2:
        raise ValueError("separable route needs exactly one 2-D band")
    (f0, f1), (w0, w1) = band.centers[0], band.half_widths[0]
    s0, s1 = dpss_of(m, w0), dpss_of(n, w1)
    prods = np.outer(s0.eigenvalues, s1.eigenvalues).ravel()
    # A stable sort keeps ties in flat order, which is ascending (l, k).
    order = np.argsort(-prods, kind="stable")
    l_idx, k_idx = np.unravel_index(order, (m, n))
    return (modulate(s0.eigenvectors, f0), modulate(s1.eigenvectors, f1),
            prods[order], l_idx, k_idx)


def transition_count(eigs: np.ndarray, eps: float) -> int:
    """Number of eigenvalues inside the transition region [eps, 1 - eps]:
    the middle count of :func:`~mdprolate.prolate.cluster_counts`."""
    return cluster_counts(eigs, eps).middle


class GapReport(NamedTuple):
    trace: float
    frobenius_sq: float
    gap: float


def gap_bound(dims: tuple[int, ...], num_bands: int) -> float:
    """Closed-form upper bound on ``trace - ||.||_F^2`` for cubic operators.

    On grid (n_0, ..., n_{d-1}) with J bands the bound is
    ``sum_j (4 J / pi^2)(3 + ln n_j) prod_{i != j} n_i``: ``J (4 / pi^2)(3 +
    ln n)`` in 1-D, the per-band lemma, and ``(4 M J / pi^2)(3 + ln N) +
    (4 N J / pi^2)(3 + ln M)`` in 2-D.  For PSD factors with eigenvalues in
    [0, 1], ``gap(A (x) B) = tr A gap(B) + ||B||_F^2 gap(A) <= n_A gap(B) +
    n_B gap(A)``, so one box's gap is bounded by induction over the axes,
    and a union's gap by the sum of its boxes' (each box's operator being
    positive semidefinite).  Natural logarithm throughout.
    """
    total, size = 0.0, math.prod(dims)
    for n in dims:
        total += 4.0 * (size // n) * num_bands / np.pi**2 * (3.0 + np.log(n))
    return total


def trace_frobenius_gap(cov: DenseCovariance) -> GapReport:
    """Trace, squared Frobenius norm, and their gap ``sum lambda (1-lambda)``.

    For cubic operators in any dimension the gap is checked against its
    logarithmic upper bound (:func:`gap_bound`); a violation raises
    :class:`VerificationError` because it can only come from a kernel bug.
    Parallelepiped covariances get the same triple with no hard bound (only
    an order-of-magnitude statement exists for them).
    """
    tr = cov.trace()
    fsq = cov.frobenius_sq()
    gap = tr - fsq
    spec = cov.spec
    if isinstance(spec, OperatorSpec):
        bound = gap_bound(cov.dims, spec.bands.num_bands)
        if gap > bound:
            raise VerificationError(
                f"trace-Frobenius gap {gap:.6g} exceeds its bound {bound:.6g} "
                f"for dims {cov.dims}, J = {spec.bands.num_bands}")
    return GapReport(trace=tr, frobenius_sq=fsq, gap=gap)
