"""The translation cross-check solves the shifted operator's complex table
recentred to its band set's centre, as two half blocks, certified by the
imaginary part it drops.

When the shifted band set has a centre c, the table ``T(d) exp(-2 pi i c .
d)``, made exactly Hermitian (``prolate._recentred``), is the matrix M of
the operator conjugated by the centre phase, so it has the same spectrum.
``Re M`` is exactly even and splits into its even and odd blocks;
``_shift_deviation`` adds the Frobenius norm of ``Im M`` to the split
spectrum's deviation, so the value bounds the full-size route's deviation
from above (Weyl).
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, ParallelepipedBand,
                       PPOperatorSpec, SamplingGrid, spectrum_values)
from mdprolate import parallelepiped, prolate
from mdprolate.parallelepiped import _materialize, _shift_deviation

import pinned

MATCHED = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1))
README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)


def _spec(dims, geometry):
    grid = SamplingGrid(dims)
    if geometry == "intervals":
        return OperatorSpec(grid, CubicBandUnion.from_intervals(pinned.REF_INTERVALS))
    if geometry == "readme":
        return OperatorSpec(grid, README)
    return PPOperatorSpec(grid=grid, bands=(MATCHED.shifted((0.02, -0.02)),))


def _full_r(table):
    """The full-size real form R of a complex table."""
    [r] = prolate._orbit_blocks(table, prolate._orbits(
        tuple((s + 1) // 2 for s in table.shape), ()))
    return r


def _recentred(cov):
    """The shifted operator's table recentred to its band set's centre."""
    return prolate._recentred(cov.table, cov.demodulated.center)


def _dropped(recentred):
    """The Frobenius norm of the matrix of ``Im M``."""
    return np.sqrt(prolate._frobenius_sq(recentred.imag))


@pytest.mark.parametrize("dims, geometry", [
    ((511,), "intervals"), ((512,), "intervals"), ((9, 7), "matched"),
    ((32, 32), "matched"), ((32, 32), "readme"), ((41, 39), "matched"),
    ((41, 39), "readme"),
], ids=["511", "512", "9x7", "32x32", "32x32-readme", "41x39", "41x39-readme"])
def test_split_spectrum_matches_the_full_real_form(dims, geometry):
    cov = _materialize(_spec(dims, geometry))
    assert cov.demodulated is not None
    recentred = _recentred(cov)
    n = cov.size
    even, odd = prolate._orbit_blocks(np.ascontiguousarray(recentred.real),
                                      prolate._orbits(cov.dims, ()))
    assert (even.shape, odd.shape) == (((n + 1) // 2,) * 2, ((n // 2),) * 2)
    split = np.sort(np.concatenate([np.linalg.eigvalsh(even),
                                    np.linalg.eigvalsh(odd)]))
    full = np.linalg.eigvalsh(_full_r(cov.table))
    assert np.max(np.abs(split - full)) <= 1e-13
    assert _dropped(recentred) <= 1e-12


@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_the_value_bounds_the_full_size_deviation(dims, geometry):
    spec = _spec(dims, geometry)
    cov = _materialize(spec)
    lam = spectrum_values(cov)
    full = np.sort(np.linalg.eigvalsh(_full_r(cov.table)))[::-1]
    value = _shift_deviation(lam, spec)
    assert np.max(np.abs(lam - full)) - 1e-15 <= value <= 1e-13
    recentred = _recentred(cov)
    assert 0.0 < _dropped(recentred) <= value
    # The value is the split spectrum's deviation plus the dropped norm.
    split, _ = prolate._eigh(cov.size, False, prolate._Demodulated(
        cov.demodulated.center, np.ascontiguousarray(recentred.real), ()), cov.dims)
    assert value == float(np.max(np.abs(lam - split)) + _dropped(recentred))


@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_a_centre_off_by_a_thousandth_is_caught(dims, geometry, monkeypatch):
    spec = _spec(dims, geometry)
    lam = spectrum_values(_materialize(spec))
    pairs_of = parallelepiped._mirror_pairs

    def off(bands):
        center, pairs = pairs_of(bands)
        return np.add(center, 1e-3), pairs

    monkeypatch.setattr(parallelepiped, "_mirror_pairs", off)
    assert _shift_deviation(lam, spec) > 1e-9


@pytest.mark.parametrize("offset", [0, 1], ids=["zero-difference", "next-difference"])
@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_a_perturbed_table_entry_is_caught(dims, geometry, offset, monkeypatch):
    """One entry of the shifted table, with its Hermitian mirror, moved by
    1e-7."""
    spec = _spec(dims, geometry)
    lam = spectrum_values(_materialize(spec))
    table_of = parallelepiped._table

    def perturbed(bands):
        table = table_of(bands)
        at = tuple(n - 1 for n in bands.dims)
        at = (at[0] + offset,) + at[1:]
        mirror = tuple(2 * (n - 1) - i for n, i in zip(bands.dims, at))
        table[at] += 1e-7
        table[mirror] = np.conj(table[at])
        return table

    monkeypatch.setattr(parallelepiped, "_table", perturbed)
    assert _shift_deviation(lam, spec) > 1e-9


def test_a_table_without_coupling_keeps_its_even_and_odd_blocks():
    """A centred real box recentres to its own table, with ``Im M`` zero,
    so both routes solve the same even and odd blocks."""
    spec = OperatorSpec(SamplingGrid((65,)), CubicBandUnion([0.0], [0.1]))
    cov = _materialize(spec)
    assert _dropped(_recentred(cov)) == 0.0
    assert _shift_deviation(spectrum_values(cov), spec) == 0.0


def test_a_set_without_a_centre_is_solved_at_full_size(solver_sizes):
    union = CubicBandUnion.from_intervals([(-0.3, -0.2), (0.05, 0.1)])
    spec = OperatorSpec(SamplingGrid((48,)), union)
    cov = _materialize(spec)
    assert cov.demodulated is None
    lam = spectrum_values(cov)
    del solver_sizes[:]
    assert _shift_deviation(lam, spec) == 0.0
    assert solver_sizes == [48]
