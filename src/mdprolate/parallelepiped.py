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
table demodulated to that centre (see ``_tables._demodulate``).  The
removable singularities lie along two lattice lines (t d = s c and
s a = t b), not only the diagonal; ``sinr`` handles them uniformly.

Only that kernel is particular to parallelograms: the spec builds its own
band set into its table object (:attr:`PPOperatorSpec._tables`), and
tables, demodulation and materialization are shared with boxes.  As the
first module that sees both geometries, this one also lists a
configuration's operators, each with its materializer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bands import (BandConfig, BandError, ParallelepipedBand, SamplingGrid,
                    parallelepiped_violations)
from ._tables import _BandSet, _sin_ratio, _Tables
from .operator import DenseCovariance, OperatorSpec, _covariance, materialize_cubic

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

    @functools.cached_property
    def _tables(self) -> _Tables:
        """The table object of the parallelograms (band shape: the transform
        and the half-widths), made on first read and kept.  Its differences
        are formed per term, so making it allocates nothing before the
        materializer's size-cap check.  The kernel reads the bands, not the
        spec, so the spec and its tables form no reference cycle and are
        freed as soon as the spec is."""
        (m, n), bands = self.grid.dims, self.bands

        def term(i, offset):
            t, s = np.arange(1 - m, m)[:, None], np.arange(1 - n, n)[None, :]
            return _pp_term(bands[i], t, s, offset)
        return _Tables(_BandSet(
            self.grid.dims, np.array([b.center for b in bands]),
            [(b.a, b.b, b.c, b.d) + b.half_widths for b in bands], term))


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
    eigensolve (``_Tables.shift_deviation`` on ``shifted``'s band set).

    One common translation moves no eigenvalue (the center phase is a
    unitary diagonal conjugation), and the bound is then tight: a pure
    numerical residual.  Bands moved independently do change the spectrum;
    the bound still holds but is loose, since the table difference then
    carries the change of the bands' relative positions.
    """
    if spec.grid != shifted.grid or len(spec.bands) != len(shifted.bands):
        raise ValueError("specs must share grid and band count")
    moved = shifted._tables.bands
    for i, (a, b) in enumerate(zip(spec._tables.bands.shapes, moved.shapes)):
        if a != b:
            raise ValueError(f"band {i} differs in shape, not only in center")
    return pp_materialize(spec).tables.shift_deviation(moved)


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
