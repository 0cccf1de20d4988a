"""Eigen-tensor dictionaries and their cheap modulated-DPSS surrogates.

Two dictionaries represent a multiband 2-D process:

* ``phi`` - the exact route: leading eigen-tensors of the materialized
  operator, from one dense solve per symmetry block of its real form.
* ``psi`` - the cheap route: per band, outer products of modulated DPSS
  vectors ``(E_f0 s_l)(E_f1 s_k)^T`` ranked by the eigenvalue product
  ``lambda_l * lambda_k``, built from 1-D decompositions only.

With the usual (1 +/- eps) sizing the two spans nearly coincide; closeness
is measured by the subspace angle (smallest principal-angle cosine).  Two
non-asymptotic sanity bounds hold for every psi dictionary and are exposed
as check functions: the pseudo-eigenvalue residual bound
``||B(psi) - lam psi||_F^2 <= 1 - lam^2`` and the cross-band coherence
bound ``|<psi_1, psi_2>| <= 3 sqrt(1 - min(lam_1, lam_2))`` (the latter
only guaranteed at large sizes, so it is auto-checked only when
min(M, N) >= 128).

Inner products are Frobenius: ``<A, B> = trace(B^H A)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import CubicBandUnion, SamplingGrid
from .operator import (OperatorSpec, SpectrumND, VerificationError, _covariance,
                       _decompose, _dpss_products, _draw_spectrum, ivec,
                       materialize_cubic, vec)
from .prolate import _apply, _table, _transfer, dpss

__all__ = [
    "Atom",
    "Dictionary",
    "SubspaceBasis",
    "build_phi",
    "build_psi",
    "orthonormalize",
    "project",
    "subspace_cos_theta",
    "sample_signal",
    "approx_mse",
    "ApproxReport",
    "cross_band_gram_violations",
    "pseudo_eigen_residuals",
    "GRAM_CHECK_MIN_SIZE",
]

# The cross-band coherence bound is a large-size statement; below this
# min(M, N) it is reported but not enforced.
GRAM_CHECK_MIN_SIZE = 128

RANK_TOL = 1e-10

# approx_mse draws and projects this many trials per pair of GEMMs.  For P
# samples its block-sized scratch is about six (_TRIAL_BLOCK, P) complex
# arrays, 6144 P bytes: the weights, combine's block-order coefficients and
# products, the unfold scratch, the signals and their projections (5.4 arrays
# measured at 32 x 32).  The K real eigenvectors of length P the draws keep
# (those of positive eigenvalues, see operator._draw_spectrum) take 8 P K
# bytes: for the README union, K = 754 of 1024 at 32 x 32, about the same as
# the scratch, and K = 2560 of 4096 at 64 x 64, 3.3 times it.  Below P = 768
# the scratch is under 4.7 MB.
_TRIAL_BLOCK = 64

# pseudo_eigen_residuals applies the operator to as many atoms at once as fit
# in this many bytes of padded (2M - 1, 2N - 1) FFT buffer.  Larger batches
# are no faster at 32 x 32 and leave a fragmented heap that raises the peak
# RSS of later, larger solves.
_APPLY_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class Atom:
    """One dictionary element: a unit-Frobenius M x N tensor plus provenance."""

    tensor: np.ndarray
    source: str  # "phi" | "psi"
    eigenvalue: float
    rank: int | None = None  # phi: position in the global eigenvalue order
    band: int | None = None  # psi: which subband
    indices: tuple[int, int] | None = None  # psi: (l, k) DPSS orders


@dataclass(frozen=True)
class Dictionary:
    """Ordered atoms over a common grid and band union."""

    atoms: tuple[Atom, ...]
    grid: SamplingGrid
    bands: CubicBandUnion
    source: str

    def __len__(self) -> int:
        return len(self.atoms)

    def stacked(self) -> np.ndarray:
        """(M N, K) matrix whose columns are the vectorized atoms; complex
        (M N, 0) when there are none."""
        if not self.atoms:
            return np.zeros((self.grid.size, 0), dtype=complex)
        return np.column_stack([vec(a.tensor) for a in self.atoms])

    def gram(self) -> np.ndarray:
        x = self.stacked()
        return x.conj().T @ x


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a dictionary span, with its numerical rank."""

    q: np.ndarray  # (M N, rank), orthonormal columns
    dims: tuple[int, ...]
    rank: int
    tolerance: float


def _sizes(spec: OperatorSpec, eps: float) -> tuple[int, list[int]]:
    """The (1 +/- eps) dictionary sizes on ``spec``'s grid of N samples:
    ``p = sum_i ceil(N m_i (1 + eps))`` phi atoms and ``q_i = floor(N m_i
    (1 - eps))`` psi atoms of band i, m_i its measure."""
    total, bands = spec.grid.size, spec.bands
    measures = [bands.band(i).measure() for i in range(bands.num_bands)]
    return (sum(int(np.ceil(total * m * (1.0 + eps))) for m in measures),
            [int(np.floor(total * m * (1.0 - eps))) for m in measures])


def build_phi(spec: OperatorSpec, p: int, *,
              spec_spectrum: SpectrumND | None = None) -> Dictionary:
    """First p eigen-tensors of the materialized operator, by descending
    eigenvalue (stable order among ties).

    Pass ``spec_spectrum`` to reuse an existing decomposition; only its
    first p eigen-tensors are written (``SpectrumND.leading``).  Without
    it the operator is solved for those p alone: each symmetry block keeps
    only the eigenvectors the first p need, cut right after it is solved
    (``prolate._eigh``'s ``leading``), so the next block is solved beside
    them and not beside all of them.  The atoms are bitwise those read
    from a full :func:`spectrum`.
    """
    total = spec.grid.size
    if not 0 <= p <= total:
        raise ValueError(f"p = {p} outside [0, {total}]")
    if spec_spectrum is None:
        eigenvalues, vectors = _decompose(materialize_cubic(spec), True, leading=p)
        tensors = vectors.tensors(p)
    else:
        eigenvalues, tensors = spec_spectrum.eigenvalues, spec_spectrum.leading(p)
    atoms = tuple(
        Atom(tensor=tensors[k], source="phi",
             eigenvalue=float(eigenvalues[k]), rank=k)
        for k in range(p))
    return Dictionary(atoms=atoms, grid=spec.grid, bands=spec.bands, source="phi")


def build_psi(spec: OperatorSpec, q, *, check_gram: bool = True) -> Dictionary:
    """Per-band modulated-DPSS outer-product atoms.

    ``q`` is one count per band (a scalar applies to every band).  Within a
    band, atoms are ranked by ``lambda_l * lambda_k`` descending, ties
    broken lexicographically by (l, k); bands are concatenated in input
    order.  Needs only 1-D eigendecompositions, so it scales past the dense
    materialization cap.
    """
    if spec.grid.dim != 2:
        raise ValueError("psi dictionaries are built on 2-D grids")
    m, n = spec.grid.dims
    counts = np.broadcast_to(np.asarray(q, dtype=int),
                             (spec.bands.num_bands,)).copy()
    if np.any(counts < 0) or np.any(counts > m * n):
        raise ValueError(f"per-band counts must lie in [0, {m * n}]")
    # Boxes of equal widths share their DPSS families.
    dpss_of = functools.cache(dpss)
    atoms = []
    for i in range(spec.bands.num_bands):
        u, v, prods, l_idx, k_idx = _dpss_products(m, n, spec.bands.band(i), dpss_of)
        for r in range(counts[i]):
            l, k = int(l_idx[r]), int(k_idx[r])
            atoms.append(Atom(tensor=np.outer(u[:, l], v[:, k]), source="psi",
                              eigenvalue=float(prods[r]), band=i,
                              indices=(l, k)))
    out = Dictionary(atoms=tuple(atoms), grid=spec.grid, bands=spec.bands,
                     source="psi")
    if check_gram and min(m, n) >= GRAM_CHECK_MIN_SIZE:
        bad = cross_band_gram_violations(out)
        if bad:
            raise VerificationError(
                f"{len(bad)} cross-band coherence bound violations at size "
                f"({m}, {n}); first: {bad[0]}")
    return out


def cross_band_gram_violations(d: Dictionary, *, slack: float = 1e-12) -> list:
    """Cross-band atom pairs violating ``|<a, b>| <= 3 sqrt(1 - min lam)``.

    Returns (i, j, |gram|, bound) tuples, i < j in row-major order; empty
    when the coherence bound holds for every pair of atoms from different
    bands.
    """
    gram = np.abs(d.gram())
    bands = np.array([a.band for a in d.atoms], dtype=object)
    lam = np.array([a.eigenvalue for a in d.atoms], dtype=float)
    bound = 3.0 * np.sqrt(np.maximum(1.0 - np.minimum.outer(lam, lam), 0.0))
    bad = (np.triu(bands[:, None] != bands[None, :], k=1)
           & (gram > bound + slack))
    return [(int(i), int(j), float(gram[i, j]), float(bound[i, j]))
            for i, j in zip(*np.nonzero(bad))]


def pseudo_eigen_residuals(spec: OperatorSpec, d: Dictionary) -> np.ndarray:
    """(K, 2) array of [residual^2, bound] per psi atom.

    residual^2 = ||B(psi) - lam psi||_F^2 where B is the full multiband
    operator and lam the atom's per-band eigenvalue product; the bound
    ``1 - lam^2`` holds exactly at every size.  The operator's table and
    its circulant transfer are built once and applied to blocks of stacked
    atoms by batched FFT.
    """
    dims = spec.grid.dims
    table = _table(spec._band_set())
    transfer = _transfer(table)
    lam = np.array([a.eigenvalue for a in d.atoms], dtype=float)
    rows = np.empty((len(d.atoms), 2))
    rows[:, 1] = 1.0 - lam * lam
    block = max(1, _APPLY_BLOCK_BYTES // (16 * table.size))
    for start in range(0, len(d.atoms), block):
        y = np.stack([a.tensor for a in d.atoms[start:start + block]])
        if y.shape[1:] != dims:
            raise ValueError(f"input shape {y.shape[1:]} does not match grid {dims}")
        scale = lam[start:start + len(y)].reshape((-1,) + (1,) * len(dims))
        resid = (_apply(table, y, transfer) - scale * y).reshape(len(y), -1)
        rows[start:start + len(y), 0] = np.linalg.norm(resid, axis=1) ** 2
    return rows


def orthonormalize(d: Dictionary) -> SubspaceBasis:
    """Orthonormal basis of a dictionary's span via SVD of the stacked atoms.

    Numerical rank cuts at singular values below ``1e-10 * sigma_max``;
    preferred over normal equations because psi is only near-orthogonal
    across bands.
    """
    if len(d.atoms) == 0:
        raise ValueError("cannot orthonormalize an empty dictionary")
    x = d.stacked()
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    tol = RANK_TOL * s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol))
    return SubspaceBasis(q=u[:, :rank], dims=tuple(d.grid.dims), rank=rank,
                         tolerance=tol)


def project(basis: SubspaceBasis, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a tensor onto the basis span."""
    y = np.asarray(y)
    if y.shape != basis.dims:
        raise ValueError(f"input shape {y.shape} does not match basis dims "
                         f"{basis.dims}")
    coeffs = basis.q.conj().T @ vec(y)
    return ivec(basis.q @ coeffs, basis.dims)


def _as_basis(obj) -> SubspaceBasis:
    return obj if isinstance(obj, SubspaceBasis) else orthonormalize(obj)


def subspace_cos_theta(a, b) -> float:
    """Subspace angle cosine between two dictionaries (or bases).

    Defined as the infimum over unit tensors of the smaller span of the
    projected norm onto the other span, i.e. the smallest singular value of
    ``Q_a^H Q_b`` with ``a`` the smaller-rank side.  1 when the smaller
    span is contained in the larger, as the empty span of a rank-0 basis
    is in every span; 0 when some direction is orthogonal.
    """
    qa, qb = _as_basis(a), _as_basis(b)
    if qa.dims != qb.dims:
        raise ValueError("dictionaries live on different grids")
    if qa.rank > qb.rank:
        qa, qb = qb, qa
    if qa.rank == 0:
        return 1.0
    sv = np.linalg.svd(qa.q.conj().T @ qb.q, compute_uv=False)
    return float(np.clip(sv[-1], 0.0, 1.0))


def _roots(eigenvalues: np.ndarray) -> np.ndarray:
    """``sqrt(lambda_k)``, negative roundoff clipped to zero."""
    return np.sqrt(np.clip(eigenvalues, 0.0, None))


def _weights(roots: np.ndarray, seed: int) -> np.ndarray:
    """Coefficients ``sqrt(lambda_k) g_k`` of one draw, with independent
    circular complex standard Gaussians ``g_k`` from ``default_rng(seed)``.

    One ``standard_normal(2 P)`` call gives the real parts, then the
    imaginary parts: the same numbers as two calls of size P.  Each half is
    multiplied by ``1 / sqrt 2`` (the factor numpy's complex-by-real
    division by ``sqrt 2`` applies) and then by the roots, straight into
    the real and imaginary parts of the result: the values of
    ``roots * ((g_re + 1j g_im) / sqrt 2)``, bit for bit wherever a root
    is positive, without its complex temporaries.
    """
    n = roots.size
    g = np.random.default_rng(seed).standard_normal(2 * n)
    g *= 1.0 / np.sqrt(2)
    w = np.empty(n, dtype=complex)
    np.multiply(roots, g[:n], out=w.real)
    np.multiply(roots, g[n:], out=w.imag)
    return w


def sample_signal(spec, seed: int, *,
                  spec_spectrum: SpectrumND | None = None) -> np.ndarray:
    """One random tensor with the operator as its covariance.

    Draws ``x = sum_k sqrt(lambda_k) g_k Phi_k`` with independent circular
    complex standard Gaussians ``g_k`` from ``default_rng(seed)``;
    deterministic per seed.  Accepts cubic or parallelepiped operator
    specs; pass ``spec_spectrum`` to amortize the decomposition.  Drawn
    through ``SpectrumND.combine``, as in ``approx_mse``: no eigen-tensor.
    Without ``spec_spectrum`` the operator is solved for the draw alone
    (``operator._draw_spectrum``): each block keeps only the eigenvectors
    of positive eigenvalues, as the weights of the others are exactly
    zero, and the draw is bitwise that from a full :func:`spectrum`.
    """
    sp = spec_spectrum or _draw_spectrum(_covariance(spec))
    return sp.combine(_weights(_roots(sp.eigenvalues), seed)[None])[0]


class ApproxReport(NamedTuple):
    """Empirical mean and analytic tail of the residual energy."""

    empirical_mean: float
    analytic_tail: float


def approx_mse(basis: SubspaceBasis, spec, trials: int, seed: int, *,
               spec_spectrum: SpectrumND | None = None) -> ApproxReport:
    """Mean squared residual of random signals against a phi basis.

    Empirical mean of ``||x - P x||_F^2`` over ``trials`` draws (trial t
    uses seed ``seed + t``, the weights ``sample_signal`` draws for that
    seed) next to its analytic value, the eigenvalue tail
    ``sum_{k >= p} lambda_k`` for a basis of the p leading eigen-tensors.

    Trials run in blocks of ``_TRIAL_BLOCK``: ``SpectrumND.combine`` forms
    a block's signals from the solver's real eigenvector blocks,
    without any eigen-tensor, and one GEMM pair projects them, so the
    residual stays an explicit, empirical one.  The signals equal
    ``sample_signal``'s up to roundoff.  Without ``spec_spectrum`` the
    operator is solved for the draws alone, as ``sample_signal`` does, and
    the report is bitwise that from a full :func:`spectrum`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sp = spec_spectrum or _draw_spectrum(_covariance(spec))
    if tuple(basis.dims) != sp.dims:
        raise ValueError(f"input shape {sp.dims} does not match basis dims "
                         f"{basis.dims}")
    tail = float(np.sum(sp.eigenvalues[basis.rank:]))
    q = basis.q
    # Signals are read as columns in vec order (first axis fastest), the
    # order of the basis rows; for a solved spectrum that is a view of
    # combine's output.
    to_vec = (0,) + tuple(range(len(sp.dims), 0, -1))
    # An empty combine computes the pivot factors before the buffers below.
    sp.combine(np.empty((0, sp.size)))
    # The weight and projection buffers are allocated once and reused by
    # every block: fresh block-sized arrays per block fragment the heap and
    # raise the peak RSS of later calls.
    block = min(trials, _TRIAL_BLOCK)
    w = np.empty((block, sp.size), dtype=complex)
    px = np.empty((q.shape[0], block), dtype=complex)
    roots = _roots(sp.eigenvalues)
    total = 0.0
    for start in range(0, trials, block):
        b = min(block, trials - start)
        for i in range(b):
            w[i] = _weights(roots, seed + start + i)
        x = sp.combine(w[:b]).transpose(to_vec).reshape(b, -1).T
        # q^H x as conj(q^T conj(x)): the conjugate goes through px, so no
        # adjoint copy of the basis is made.
        np.conjugate(x, out=px[:, :b])
        np.matmul(q, np.conjugate(q.T @ px[:, :b]), out=px[:, :b])
        x -= px[:, :b]
        total += float(np.vdot(x, x).real)
    return ApproxReport(total / trials, tail)
