"""Eigen-tensor dictionaries and their cheap modulated-DPSS surrogates.

Two dictionaries represent a multiband 2-D process:

* ``phi`` - the exact route: leading eigen-tensors of the materialized
  operator, one global eigendecomposition of size M N.
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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import CubicBandUnion, SamplingGrid
from .operator import (DEFAULT_SIZE_CAP, OperatorSpec, SpectrumND,
                       VerificationError, apply_cubic, ivec, materialize_cubic,
                       spectrum, vec)
from .parallelepiped import PPOperatorSpec, pp_materialize
from .prolate import dpss, modulate

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
        """(M N, K) matrix whose columns are the vectorized atoms."""
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


def build_phi(spec: OperatorSpec, p: int, *,
              spec_spectrum: SpectrumND | None = None,
              size_cap: int = DEFAULT_SIZE_CAP) -> Dictionary:
    """First p eigen-tensors of the materialized operator, by descending
    eigenvalue (stable order among ties).

    Pass ``spec_spectrum`` to reuse an existing decomposition.
    """
    total = spec.grid.size
    if not 0 <= p <= total:
        raise ValueError(f"p = {p} outside [0, {total}]")
    sp = spec_spectrum or spectrum(materialize_cubic(spec, size_cap=size_cap))
    atoms = tuple(
        Atom(tensor=sp.tensors[k], source="phi",
             eigenvalue=float(sp.eigenvalues[k]), rank=k)
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
    cache: dict[tuple[int, float], object] = {}

    def _dpss(size, w):
        key = (size, float(w))
        if key not in cache:
            cache[key] = dpss(size, w)
        return cache[key]

    atoms = []
    for i in range(spec.bands.num_bands):
        f0, f1 = spec.bands.centers[i]
        w0, w1 = spec.bands.half_widths[i]
        s0, s1 = _dpss(m, w0), _dpss(n, w1)
        u = modulate(s0.eigenvectors, f0)
        v = modulate(s1.eigenvectors, f1)
        prods = np.outer(s0.eigenvalues, s1.eigenvalues).ravel()
        l_idx, k_idx = np.unravel_index(np.arange(m * n), (m, n))
        order = np.lexsort((k_idx, l_idx, -prods))
        for flat in order[: counts[i]]:
            l, k = int(l_idx[flat]), int(k_idx[flat])
            atoms.append(Atom(tensor=np.outer(u[:, l], v[:, k]), source="psi",
                              eigenvalue=float(prods[flat]), band=i,
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

    Returns (i, j, |gram|, bound) tuples; empty when the coherence bound
    holds for every pair of atoms from different bands.
    """
    gram = np.abs(d.gram())
    out = []
    for i, ai in enumerate(d.atoms):
        for j in range(i + 1, len(d.atoms)):
            aj = d.atoms[j]
            if ai.band == aj.band:
                continue
            bound = 3.0 * np.sqrt(max(1.0 - min(ai.eigenvalue, aj.eigenvalue), 0.0))
            if gram[i, j] > bound + slack:
                out.append((i, j, float(gram[i, j]), float(bound)))
    return out


def pseudo_eigen_residuals(spec: OperatorSpec, d: Dictionary) -> np.ndarray:
    """(K, 2) array of [residual^2, bound] per psi atom.

    residual^2 = ||B(psi) - lam psi||_F^2 where B is the full multiband
    operator and lam the atom's per-band eigenvalue product; the bound
    ``1 - lam^2`` holds exactly at every size.
    """
    rows = np.empty((len(d.atoms), 2))
    for idx, atom in enumerate(d.atoms):
        lam = atom.eigenvalue
        resid = apply_cubic(spec, atom.tensor) - lam * atom.tensor
        rows[idx, 0] = np.linalg.norm(resid) ** 2
        rows[idx, 1] = 1.0 - lam * lam
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
    span is contained in the larger, 0 when some direction is orthogonal.
    """
    qa, qb = _as_basis(a), _as_basis(b)
    if qa.dims != qb.dims:
        raise ValueError("dictionaries live on different grids")
    if qa.rank > qb.rank:
        qa, qb = qb, qa
    sv = np.linalg.svd(qa.q.conj().T @ qb.q, compute_uv=False)
    return float(np.clip(sv[-1], 0.0, 1.0))


def sample_signal(spec, seed: int, *, spec_spectrum: SpectrumND | None = None,
                  size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """One random tensor with the operator as its covariance.

    Draws ``x = sum_k sqrt(lambda_k) g_k Phi_k`` with independent circular
    complex standard Gaussians ``g_k`` from ``default_rng(seed)``;
    deterministic per seed.  Accepts cubic or parallelepiped operator
    specs; pass ``spec_spectrum`` to amortize the decomposition.
    """
    sp = spec_spectrum or _spectrum_of(spec, size_cap)
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)) / np.sqrt(2)
    weights = np.sqrt(np.clip(sp.eigenvalues, 0.0, None)) * g
    return np.tensordot(weights, sp.tensors, axes=(0, 0))


def _spectrum_of(spec, size_cap: int) -> SpectrumND:
    if isinstance(spec, OperatorSpec):
        return spectrum(materialize_cubic(spec, size_cap=size_cap))
    if isinstance(spec, PPOperatorSpec):
        return spectrum(pp_materialize(spec, size_cap=size_cap))
    raise TypeError(f"cannot sample from {type(spec).__name__}")


class ApproxReport(NamedTuple):
    """Empirical mean and analytic tail of the residual energy."""

    empirical_mean: float
    analytic_tail: float


def approx_mse(basis: SubspaceBasis, spec, trials: int, seed: int, *,
               spec_spectrum: SpectrumND | None = None) -> ApproxReport:
    """Mean squared residual of random signals against a phi basis.

    Empirical mean of ``||x - P x||_F^2`` over ``trials`` draws (trial t
    uses seed ``seed + t``) next to its analytic value, the eigenvalue tail
    ``sum_{k >= p} lambda_k`` for a basis of the p leading eigen-tensors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sp = spec_spectrum or _spectrum_of(spec, DEFAULT_SIZE_CAP)
    tail = float(np.sum(sp.eigenvalues[basis.rank:]))
    total = 0.0
    for t in range(trials):
        x = sample_signal(spec, seed + t, spec_spectrum=sp)
        r = x - project(basis, x)
        total += float(np.linalg.norm(r) ** 2)
    return ApproxReport(total / trials, tail)
