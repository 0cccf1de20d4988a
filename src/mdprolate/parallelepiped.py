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

Only that kernel is particular to parallelograms: the spec builds its own
band set (:meth:`PPOperatorSpec._band_set`), and table, demodulation and
materialization are shared with boxes.  As the first module that sees both
geometries, this one also lists a configuration's operators, each with its
materializer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import (BandConfig, BandError, ParallelepipedBand, SamplingGrid,
                    parallelepiped_violations)
from .operator import (DenseCovariance, OperatorSpec, _covariance, _solved,
                       materialize_cubic)
from .prolate import _BandSet, _frobenius_sq, _recentred, _sin_ratio, _table

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
        for i, band in enumerate(self.bands):
            if not isinstance(band, ParallelepipedBand):
                raise TypeError(f"band {i} is a {type(band).__name__}, "
                                "not a ParallelepipedBand")
        bad = parallelepiped_violations(self.bands)
        if bad:
            raise BandError(bad)

    def measure(self) -> float:
        return float(sum(b.measure() for b in self.bands))

    def _band_set(self) -> _BandSet:
        """The band set of the parallelograms (shape: the transform and the
        half-widths).  Its differences are formed per term, so building it
        allocates nothing before the materializer's size-cap check."""
        m, n = self.grid.dims

        def term(i, offset):
            t, s = np.arange(1 - m, m)[:, None], np.arange(1 - n, n)[None, :]
            return _pp_term(self.bands[i], t, s, offset)
        return _BandSet(self.grid.dims, np.array([b.center for b in self.bands]),
                        [(b.a, b.b, b.c, b.d) + b.half_widths for b in self.bands],
                        term)


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


def pp_materialize(spec: PPOperatorSpec) -> DenseCovariance:
    """The parallelepiped operator as a covariance, kept as its difference
    table.

    Same vec ordering as the cubic materialization (first axis fastest);
    trace equals ``M N`` times the total band area.  ``.matrix`` is
    gathered on first access and is read-only.
    """
    return _covariance(spec)


def pp_center_invariance(spec: PPOperatorSpec, shifted: PPOperatorSpec) -> float:
    """Bound on the 2-norm distance between the sorted spectra of two specs
    that differ only in band centers, taken from their tables without any
    eigensolve (:func:`_shift_deviation` on ``shifted``'s band set).

    One common translation moves no eigenvalue (the center phase is a
    unitary diagonal conjugation), and the bound is then tight: a pure
    numerical residual.  Bands moved independently do change the spectrum;
    the bound still holds but is loose, since the table difference then
    carries the change of the bands' relative positions.
    """
    if spec.grid != shifted.grid or len(spec.bands) != len(shifted.bands):
        raise ValueError("specs must share grid and band count")
    moved = shifted._band_set()
    for i, (a, b) in enumerate(zip(spec._band_set().shapes, moved.shapes)):
        if a != b:
            raise ValueError(f"band {i} differs in shape, not only in center")
    return _shift_deviation(pp_materialize(spec), moved)


def _shift_deviation(cov: DenseCovariance, moved: _BandSet) -> float:
    """Bound on ``||lam - lam'||_2``, lam the spectrum ``_eigh`` solves for
    ``cov`` and lam' that of ``moved``, the band set of ``cov.spec`` with
    its bands moved, without an eigensolve.

    Moving every band by one step conjugates the operator by a unitary
    diagonal modulation, which moves no eigenvalue.  A band term is defined
    at any centre and is periodic in it, so the moved set need not lie
    inside the Nyquist cube.  Its complex table, recentred
    (``prolate._recentred``) by the step between the two sets' mean band
    centres plus the centre of the table ``cov`` is solved from
    (``operator._solved``), is that table up to roundoff.  The Frobenius
    norm of the difference, summed over the table with each difference's
    multiplicity, bounds ``||lam - lam'||_2`` (Hoffman & Wielandt 1953).
    """
    solved = _solved(cov)
    step = moved.centers.mean(axis=0) - cov.spec._band_set().centers.mean(axis=0)
    if solved.center is not None:
        step = step + solved.center
    return float(np.sqrt(_frobenius_sq(_recentred(_table(moved), step) - solved.table)))


def _operators(config: BandConfig) -> list[tuple[str, object, object]]:
    """A configuration's operators as ``(name, spec, materialize)`` triples:
    the cubic union as ``multiband1d`` (1-D) or ``cubic``, then
    ``parallelepiped``.  The materializers are read from this module's
    globals when the list is made, so a wrapper bound there is called."""
    ops = []
    if config.cubic is not None:
        name = "multiband1d" if config.grid.dim == 1 else "cubic"
        ops.append((name, OperatorSpec(config.grid, config.cubic), materialize_cubic))
    if config.parallelepiped:
        ops.append(("parallelepiped", PPOperatorSpec(config.grid, config.parallelepiped),
                    pp_materialize))
    return ops
