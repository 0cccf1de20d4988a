"""The translation cross-check solves the shifted operator's complex real
form as two rotated half blocks, certified by the coupling it drops.

When the shifted band set has a centre c, the real form R of its complex
table is ``G diag(Ke, Ko) G^T`` up to roundoff, G the rotation of each
(even, odd) orbit pair by the centre phase.  ``prolate._rotated_halves``
returns Ke, Ko and the Frobenius norm of what is left off the diagonal;
``_shift_deviation`` adds that norm to the split spectrum's deviation, so
the value bounds the full-size route's deviation from above (Weyl).
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
    """The unrotated full-size real form R of a complex table."""
    [r] = prolate._orbit_blocks(table, prolate._orbits(
        tuple((s + 1) // 2 for s in table.shape), ()))
    return r


@pytest.mark.parametrize("dims, geometry", [
    ((511,), "intervals"), ((512,), "intervals"), ((9, 7), "matched"),
    ((32, 32), "matched"), ((32, 32), "readme"), ((41, 39), "matched"),
    ((41, 39), "readme"),
], ids=["511", "512", "9x7", "32x32", "32x32-readme", "41x39", "41x39-readme"])
def test_split_spectrum_matches_the_full_real_form(dims, geometry):
    cov = _materialize(_spec(dims, geometry))
    assert cov.demodulated is not None
    [even, odd], coupling = prolate._rotated_halves(cov.table,
                                                   cov.demodulated.center)
    n = cov.size
    assert (even.shape, odd.shape) == (((n + 1) // 2,) * 2, ((n // 2),) * 2)
    split = np.sort(np.concatenate([np.linalg.eigvalsh(even),
                                    np.linalg.eigvalsh(odd)]))
    full = np.linalg.eigvalsh(_full_r(cov.table))
    assert np.max(np.abs(split - full)) <= 1e-13
    assert coupling <= 1e-12


@pytest.mark.parametrize("dims, geometry", [
    ((7,), "intervals"), ((64,), "intervals"), ((9, 7), "matched"),
    ((5, 4), "readme"), ((8, 8), "readme"),
], ids=["7", "64", "9x7", "5x4-readme", "8x8-readme"])
def test_the_blocks_are_the_rotated_full_real_form(dims, geometry):
    """Ke, Ko and C's norm, written band by band without R, against R
    rotated by one dense orthogonal matrix M: ``M R M^T``, with ``M[o, o] =
    M[count + o, count + o] = cos phi_o`` and ``M[o, count + o] = -M[count +
    o, o] = sin phi_o`` for each free orbit o."""
    cov = _materialize(_spec(dims, geometry))
    center = cov.demodulated.center
    orbits = prolate._orbits(cov.dims, ())
    free, count = orbits.free, orbits.images.shape[1]
    coords = np.unravel_index(orbits.images[0, :free], cov.dims, order="F")
    phi = 2.0 * np.pi * sum(c * (x - (n - 1) / 2.0)
                            for c, x, n in zip(center, coords, cov.dims))
    m = np.eye(count + free)
    o = np.arange(free)
    m[o, o] = m[count + o, count + o] = np.cos(phi)
    m[o, count + o], m[count + o, o] = np.sin(phi), -np.sin(phi)
    rotated = m @ _full_r(cov.table) @ m.T
    [even, odd], coupling = prolate._rotated_halves(cov.table, center)
    scale = np.max(np.abs(rotated))
    assert np.max(np.abs(even - rotated[:count, :count])) <= 1e-14 * scale
    assert np.max(np.abs(odd - rotated[count:, count:])) <= 1e-14 * scale
    # C is roundoff on both routes, so only their difference is bounded.
    assert abs(coupling - np.linalg.norm(rotated[:count, count:])) <= (
        1e-14 * scale * np.sqrt(count * free))


@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_the_value_bounds_the_full_size_deviation(dims, geometry):
    spec = _spec(dims, geometry)
    cov = _materialize(spec)
    lam = spectrum_values(cov)
    full = np.sort(np.linalg.eigvalsh(_full_r(cov.table)))[::-1]
    value = _shift_deviation(lam, spec)
    assert np.max(np.abs(lam - full)) - 1e-15 <= value <= 1e-13
    _, coupling = prolate._rotated_halves(cov.table, cov.demodulated.center)
    assert 0.0 < coupling <= value


@pytest.mark.parametrize("dims, geometry", [((64,), "intervals"), ((9, 7), "matched")],
                         ids=["1-D", "2-D"])
def test_a_centre_off_by_a_thousandth_is_caught(dims, geometry, monkeypatch):
    spec = _spec(dims, geometry)
    lam = spectrum_values(_materialize(spec))
    rotate = prolate._rotated_halves
    monkeypatch.setattr(parallelepiped, "_rotated_halves",
                        lambda table, center: rotate(table, np.add(center, 1e-3)))
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
    cov = _materialize(OperatorSpec(SamplingGrid((65,)), CubicBandUnion([0.0], [0.1])))
    orbits = prolate._orbits(cov.dims, ())
    blocks, coupling = prolate._rotated_halves(cov.table, cov.demodulated.center)
    assert coupling == 0.0
    for got, want in zip(blocks, prolate._orbit_blocks(cov.table, orbits)):
        assert np.array_equal(got, want)


def test_a_set_without_a_centre_is_solved_at_full_size(solver_sizes):
    union = CubicBandUnion.from_intervals([(-0.3, -0.2), (0.05, 0.1)])
    spec = OperatorSpec(SamplingGrid((48,)), union)
    cov = _materialize(spec)
    assert cov.demodulated is None
    lam = spectrum_values(cov)
    del solver_sizes[:]
    assert _shift_deviation(lam, spec) == 0.0
    assert solver_sizes == [48]
