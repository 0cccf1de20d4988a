"""The translation rows certify a translation from the tables alone.

Moving every band by one step conjugates the operator by a unitary
diagonal modulation, so the shifted operator's complex table, recentred
(``_tables._recentred``) by the step between the two band sets' mean
centres plus the centre of the table the original is solved from, is that
table up to roundoff.  ``_Tables.shift_deviation`` returns the Frobenius norm of
the difference, summed over the table with each difference's multiplicity:
by Hoffman and Wielandt a bound on the 2-norm of the difference of the two
sorted spectra, reached with no eigensolve.  It takes the moved band set
itself, so no configuration is built for it, and a band may be moved past
1/2.  The recentred table of a point-symmetric set has an exactly even
real part, which still splits into the even and odd blocks of the
full-size real form.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec,
                       ParallelepipedBand, PPOperatorSpec, SamplingGrid,
                       pp_center_invariance, spectrum_values)
from mdprolate import _solver, _tables
from mdprolate._tables import _Tables
from mdprolate.bands import BandError
from mdprolate.operator import _covariance

from conftest import random_cubic_union, random_pp_bands
import pinned

MATCHED = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1))
README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
EPS = np.finfo(float).eps


def _spec(dims, geometry):
    grid = SamplingGrid(dims)
    if geometry == "intervals":
        return OperatorSpec(grid, CubicBandUnion.from_intervals(pinned.REF_INTERVALS))
    if geometry == "readme":
        return OperatorSpec(grid, README)
    return PPOperatorSpec(grid=grid, bands=(MATCHED.shifted((0.02, -0.02)),))


def _moved(spec, delta):
    """``spec`` with band i moved by ``delta[i]``."""
    if isinstance(spec, PPOperatorSpec):
        return PPOperatorSpec(grid=spec.grid, bands=tuple(
            b.shifted(tuple(d)) for b, d in zip(spec.bands, delta)))
    return OperatorSpec(spec.grid, CubicBandUnion(spec.bands.centers + delta,
                                                  spec.bands.half_widths))


def _corners(spec):
    """One row per band corner, one column per axis."""
    if isinstance(spec, PPOperatorSpec):
        return np.vstack([b.corners() for b in spec.bands])
    bands = spec.bands
    return np.vstack([bands.centers - bands.half_widths,
                      bands.centers + bands.half_widths])


def _translated(spec):
    """``spec``'s band set with every band moved by verify's fixed step,
    0.02 with its sign alternating by axis."""
    bands = spec._tables.bands
    step = 0.02 * (-1.0) ** np.arange(spec.grid.dim)
    return bands._replace(centers=bands.centers + step)


def _full_r(table):
    """The full-size real form R of a complex table."""
    [r] = _solver._orbit_blocks(table, _tables._orbits(
        tuple((s + 1) // 2 for s in table.shape), ()))
    return r


def _recentred(cov):
    """The operator's table recentred to its band set's centre."""
    return _tables._recentred(cov.tables.table, cov.tables.solved.center)


def _dropped(recentred):
    """The Frobenius norm of the matrix of ``Im M``."""
    return np.sqrt(_tables._frobenius_sq(recentred.imag))


@pytest.mark.parametrize("dims, geometry", [
    ((511,), "intervals"), ((512,), "intervals"), ((9, 7), "matched"),
    ((32, 32), "matched"), ((32, 32), "readme"), ((41, 39), "matched"),
    ((41, 39), "readme"),
], ids=["511", "512", "9x7", "32x32", "32x32-readme", "41x39", "41x39-readme"])
def test_split_spectrum_matches_the_full_real_form(dims, geometry):
    cov = _covariance(_spec(dims, geometry))
    assert cov.tables.solved.center is not None
    recentred = _recentred(cov)
    n = cov.size
    even, odd = _solver._orbit_blocks(np.ascontiguousarray(recentred.real),
                                      _tables._orbits(cov.dims, ()))
    assert (even.shape, odd.shape) == (((n + 1) // 2,) * 2, ((n // 2),) * 2)
    split = np.sort(np.concatenate([np.linalg.eigvalsh(even),
                                    np.linalg.eigvalsh(odd)]))
    full = np.linalg.eigvalsh(_full_r(cov.tables.table))
    assert np.max(np.abs(split - full)) <= 1e-13
    assert _dropped(recentred) <= 1e-12


@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_the_value_bounds_the_full_size_deviation(dims, geometry, solver_sizes):
    """Against the translated operator solved at full size from its own
    complex table: the value bounds the deviation, up to the two solves'
    roundoff, and is itself of roundoff size."""
    spec = _spec(dims, geometry)
    cov = _covariance(spec)
    lam = spectrum_values(cov)
    shifted = _translated(spec)
    del solver_sizes[:]
    value = cov.tables.shift_deviation(shifted)
    assert solver_sizes == []
    full = np.sort(np.linalg.eigvalsh(_full_r(_tables._table(shifted))))[::-1]
    assert np.max(np.abs(lam - full)) - 2 * cov.size * EPS <= value <= 1e-13
    assert value > 0.0


@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_a_centre_off_by_a_thousandth_is_caught(dims, geometry):
    """The solved table's centre, which the shifted table is recentred by,
    moved by 1e-3 on every axis."""
    spec = _spec(dims, geometry)
    tables = _covariance(spec).tables
    off = _Tables(tables.bands)
    off.solved = tables.solved._replace(
        center=np.add(tables.solved.center, 1e-3))
    assert tables.shift_deviation(_translated(spec)) <= 1e-13
    assert off.shift_deviation(_translated(spec)) > 1e-9


@pytest.mark.parametrize("offset", [0, 1], ids=["zero-difference", "next-difference"])
@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_a_perturbed_table_entry_is_caught(dims, geometry, offset, monkeypatch):
    """One entry of the shifted table, with its Hermitian mirror, moved by
    1e-7."""
    spec = _spec(dims, geometry)
    cov = _covariance(spec)
    table_of = _tables._table

    def perturbed(bands):
        table = table_of(bands)
        at = tuple(n - 1 for n in bands.dims)
        at = (at[0] + offset,) + at[1:]
        mirror = tuple(2 * (n - 1) - i for n, i in zip(bands.dims, at))
        table[at] += 1e-7
        table[mirror] = np.conj(table[at])
        return table

    monkeypatch.setattr(_tables, "_table", perturbed)
    assert cov.tables.shift_deviation(_translated(spec)) > 1e-9


def test_a_centred_real_box_reads_zero():
    """A centred real box recentres to its own table, with ``Im M`` zero,
    and that is the table it is solved from."""
    spec = OperatorSpec(SamplingGrid((65,)), CubicBandUnion([0.0], [0.1]))
    cov = _covariance(spec)
    assert _dropped(_recentred(cov)) == 0.0
    assert cov.tables.shift_deviation(spec._tables.bands) == 0.0


def test_a_set_without_a_centre_is_compared_with_its_own_table(solver_sizes):
    """Such a set is solved from its complex table, so the shifted table is
    recentred by the step alone, and nothing is solved."""
    union = CubicBandUnion.from_intervals([(-0.3, -0.2), (0.05, 0.1)])
    spec = OperatorSpec(SamplingGrid((48,)), union)
    cov = _covariance(spec)
    assert cov.tables.solved.center is None
    assert cov.tables.shift_deviation(spec._tables.bands) == 0.0
    assert 0.0 < cov.tables.shift_deviation(_translated(spec)) <= 1e-13
    assert solver_sizes == []


KINDS = ["1-D", "2-D", "parallelogram"]


def _random_spec(rng, kind):
    """A random 1-D union, 2-D union or parallelogram set on at most 128
    samples."""
    if kind == "1-D":
        return OperatorSpec(SamplingGrid((int(rng.integers(16, 129)),)),
                            random_cubic_union(rng, 1, int(rng.integers(1, 4))))
    m = int(rng.integers(4, 13))
    grid = SamplingGrid((m, int(rng.integers(4, 128 // m + 1))))
    if kind == "2-D":
        return OperatorSpec(grid, random_cubic_union(rng, 2, int(rng.integers(1, 4))))
    return PPOperatorSpec(grid=grid, bands=random_pp_bands(rng, int(rng.integers(1, 3))))


def _random_move(rng, spec, common):
    """``spec`` moved by one random step inside Nyquist (``common``), or
    each band by its own step of up to 0.05 per axis."""
    count, dim = len(spec._tables.bands.centers), spec.grid.dim
    for _ in range(1000):
        if common:
            corners = _corners(spec)
            step = rng.uniform(-0.5 - corners.min(axis=0), 0.5 - corners.max(axis=0))
            delta = np.tile(step, (count, 1))
        else:
            delta = rng.uniform(-0.05, 0.05, size=(count, dim))
        try:
            return _moved(spec, delta)
        except BandError:
            continue
    raise RuntimeError("failed to sample a valid move")


@pytest.mark.parametrize("common", [True, False], ids=["common-step", "per-band"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_the_value_bounds_the_dense_deviation(seed, kind, common):
    """Against dense complex ``eigvalsh`` of both gathered matrices, less
    an allowance of n eps per solve.  Bands moved independently change the
    spectrum, and the bound must still hold."""
    rng = np.random.default_rng([seed, KINDS.index(kind), int(common)])
    spec = _random_spec(rng, kind)
    shifted = _random_move(rng, spec, common)
    cov, moved = _covariance(spec), _covariance(shifted)
    lam = np.linalg.eigvalsh(_tables._gather(cov.tables.table))
    lam_moved = np.linalg.eigvalsh(_tables._gather(moved.tables.table))
    value = cov.tables.shift_deviation(shifted._tables.bands)
    assert np.max(np.abs(lam - lam_moved)) - 2 * cov.size * EPS <= value
    if common:
        assert value <= 1e-12


def test_band_order_does_not_set_the_step():
    """Two equal-shape parallelograms against the same pair translated and
    listed in the other order: the step is taken between the mean centres,
    which the order does not move."""
    grid = SamplingGrid((16, 16))
    pair = tuple(ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.05, 0.05), c)
                 for c in [(-0.2, 0.1), (0.15, -0.1)])
    spec = PPOperatorSpec(grid=grid, bands=pair)
    shifted = PPOperatorSpec(grid=grid, bands=tuple(
        b.shifted((0.03, 0.02)) for b in pair[::-1]))
    assert pp_center_invariance(spec, shifted) <= 1e-13
