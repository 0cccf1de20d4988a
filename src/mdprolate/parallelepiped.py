"""Time- and band-limiting operator for parallelogram-shaped 2-D subbands.

A sheared band couples the two sample axes, so unlike the cubic case the
covariance has no Kronecker structure and no separable eigen-tensors.  It
does have a closed form: integrating ``exp(2j pi (t f + s g))`` over the
parallelogram ``{|a f + b g| <= W0, |c f + d g| <= W1}`` with determinant
``V = a d - b c`` gives, for sample-index differences t (axis 0) and
s (axis 1),

    (4 W0 W1 / |V|) * sinr(2 pi W0 (t d - s c) / V)
                    * sinr(2 pi W1 (s a - t b) / V)

where ``sinr(x) = sin(x)/x``.  Off-origin bands pick up the plain phase
factor ``exp(2j pi (c0 t + c1 s))``, which shifts no eigenvalue because it
amounts to a unitary diagonal conjugation; a band set that is
point-symmetric about some centre is therefore decomposed from its real
table demodulated to that centre (see ``prolate._demodulate``).  The
removable singularities lie along two lattice lines (t d = s c and
s a = t b), not only the diagonal; ``sinr`` handles them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import (BandError, ParallelepipedBand, SamplingGrid,
                    parallelepiped_violations)
from .operator import (DEFAULT_SIZE_CAP, DenseCovariance, SizeCapError,
                       spectrum_values)
from .prolate import _demodulate, _hermitian, _sin_ratio

__all__ = [
    "PPOperatorSpec",
    "pp_entry",
    "pp_materialize",
    "pp_center_invariance",
]


@dataclass(frozen=True)
class PPOperatorSpec:
    """A 2-D sampling grid limited to a union of disjoint parallelograms."""

    grid: SamplingGrid
    bands: tuple[ParallelepipedBand, ...]

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        if self.grid.dim != 2:
            raise ValueError("parallelepiped operators require a 2-D grid")
        if not self.bands:
            raise ValueError("at least one band is required")
        bad = parallelepiped_violations(self.bands)
        if bad:
            raise BandError(bad)

    def measure(self) -> float:
        return float(sum(b.measure() for b in self.bands))


def pp_entry(band: ParallelepipedBand, m, n, p, q) -> np.ndarray:
    """Covariance between samples (m, n) and (p, q) for one band.

    Index arguments broadcast, so whole blocks of entries can be evaluated
    at once.  The diagonal value (m = p, n = q) is the band area
    ``4 W0 W1 / |V|``.
    """
    return _pp_term(band, np.asarray(m) - np.asarray(p),
                    np.asarray(n) - np.asarray(q), band.center)


def _pp_term(band: ParallelepipedBand, t, s, center) -> np.ndarray:
    """One band's kernel at index differences (t, s), moved to ``center``."""
    w0, w1 = band.half_widths
    v = band.det
    alpha = t * band.d - s * band.c
    beta = s * band.a - t * band.b
    value = (4.0 * w0 * w1 / abs(v)
             * _sin_ratio(2.0 * np.pi * w0 * alpha / v)
             * _sin_ratio(2.0 * np.pi * w1 * beta / v))
    c0, c1 = center
    return np.exp(2j * np.pi * c0 * t) * np.exp(2j * np.pi * c1 * s) * value


def _differences(spec: PPOperatorSpec):
    m, n = spec.grid.dims
    return np.arange(1 - m, m)[:, None], np.arange(1 - n, n)[None, :]


def _pp_table(spec: PPOperatorSpec) -> np.ndarray:
    """Band-sum difference table, (2M-1, 2N-1), of the operator's matrix."""
    t, s = _differences(spec)
    acc = np.zeros((t.size, s.size), dtype=complex)
    for band in spec.bands:
        acc += _pp_term(band, t, s, band.center)
    return _hermitian(acc)


def _pp_demodulated(spec: PPOperatorSpec):
    """``prolate._demodulate`` for a parallelogram set (shape: the
    transform and the half-widths)."""
    t, s = _differences(spec)
    return _demodulate([b.center for b in spec.bands],
                       [(b.a, b.b, b.c, b.d) + b.half_widths for b in spec.bands],
                       lambda i, offset: _pp_term(spec.bands[i], t, s, offset))


def pp_materialize(spec: PPOperatorSpec,
                   size_cap: int = DEFAULT_SIZE_CAP) -> DenseCovariance:
    """The parallelepiped operator as a covariance, kept as its difference
    table.

    Same vec ordering as the cubic materialization (first axis fastest);
    trace equals ``M N`` times the total band area.  ``.matrix`` is
    gathered on first access and is read-only.
    """
    total = spec.grid.size
    if total > size_cap:
        raise SizeCapError(f"grid of {total} samples exceeds the cap {size_cap}")
    return DenseCovariance(table=_pp_table(spec), dims=spec.grid.dims,
                           spec=spec, demodulated=_pp_demodulated(spec))


def pp_center_invariance(spec: PPOperatorSpec, shifted: PPOperatorSpec) -> float:
    """Largest deviation between the sorted spectra of two specs that differ
    only in band centers.

    Band locations do not move eigenvalues (the center phase is a unitary
    diagonal conjugation), so the return value is a pure numerical residual.
    Both specs demodulate to the same real table, so the shifted operator is
    decomposed from its dense matrix instead: the value cross-checks the
    table route against the matrix route.
    """
    if spec.grid != shifted.grid or len(spec.bands) != len(shifted.bands):
        raise ValueError("specs must share grid and band count")
    for i, (a, b) in enumerate(zip(spec.bands, shifted.bands)):
        same = (a.a == b.a and a.b == b.b and a.c == b.c and a.d == b.d
                and a.half_widths == b.half_widths)
        if not same:
            raise ValueError(f"band {i} differs in shape, not only in center")
    lam = spectrum_values(pp_materialize(spec))
    cov = pp_materialize(shifted)
    lam_shift = spectrum_values(DenseCovariance(matrix=cov.matrix, dims=cov.dims,
                                                spec=None))
    return float(np.max(np.abs(lam - lam_shift)))
