import numpy as np
import pytest

from mdprolate import (BandError, CubicBandUnion, OperatorSpec,
                       ParallelepipedBand, PPOperatorSpec, SamplingGrid,
                       materialize_cubic, pp_center_invariance, pp_entry,
                       pp_materialize, sinc_kernel, spectrum_values,
                       trace_frobenius_gap, transition_count)
from conftest import random_pp_bands

import oracles
import pinned


def test_entry_diagonal_is_area():
    band = ParallelepipedBand(1.3, -0.4, 0.2, 0.9, (0.05, 0.07), (0.1, -0.1))
    area = 4 * 0.05 * 0.07 / abs(1.3 * 0.9 - (-0.4) * 0.2)
    assert complex(pp_entry(band, 3, 5, 3, 5)) == pytest.approx(area, abs=1e-15)
    assert band.measure() == pytest.approx(area, abs=1e-15)


def test_entry_identity_transform_factorizes():
    band = ParallelepipedBand(1.0, 0.0, 0.0, 1.0, (0.1, 0.07))
    k0 = sinc_kernel(6, 0.0, 0.1)
    k1 = sinc_kernel(6, 0.0, 0.07)
    for (m, n, p, q) in [(0, 0, 3, 2), (5, 1, 0, 4), (2, 2, 2, 0)]:
        expected = k0[m, p] * k1[n, q]
        assert complex(pp_entry(band, m, n, p, q)) == pytest.approx(
            complex(expected), abs=1e-15)


def test_entry_matches_quadrature_random():
    rng = np.random.default_rng(5)
    for band in random_pp_bands(rng, 3):
        t = int(rng.integers(-5, 6))
        s = int(rng.integers(-5, 6))
        closed = complex(pp_entry(band, t, s, 0, 0))
        quad = oracles.quad_entry_parallelogram(
            band.a, band.b, band.c, band.d, *band.half_widths,
            band.center, t, s)
        assert abs(closed - quad) < 1e-8


def test_entry_hermitian_symmetry():
    rng = np.random.default_rng(9)
    band = ParallelepipedBand(0.9, 0.3, -0.2, 1.1, (0.06, 0.05), (0.1, 0.05))
    idx = rng.integers(0, 12, size=(32, 4))
    fwd = pp_entry(band, idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3])
    rev = pp_entry(band, idx[:, 2], idx[:, 3], idx[:, 0], idx[:, 1])
    np.testing.assert_allclose(fwd, np.conj(rev), atol=1e-15)


def test_materialize_trace_identity():
    rng = np.random.default_rng(2)
    bands = random_pp_bands(rng, 2)
    spec = PPOperatorSpec(grid=SamplingGrid((12, 12)), bands=bands)
    cov = pp_materialize(spec)
    assert cov.trace() == pytest.approx(144 * spec.measure(), rel=1e-9)


def test_materialize_identity_transform_reduces_to_cubic():
    pp = PPOperatorSpec(
        grid=SamplingGrid((8, 8)),
        bands=(ParallelepipedBand(1.0, 0.0, 0.0, 1.0, (0.1, 0.07), (0.1, -0.2)),))
    cu = OperatorSpec(
        grid=SamplingGrid((8, 8)),
        bands=CubicBandUnion(centers=[[0.1, -0.2]], half_widths=[[0.1, 0.07]]))
    a = pp_materialize(pp).matrix
    b = materialize_cubic(cu).matrix
    assert np.abs(a - b).max() <= 1e-12


def test_eigenvalues_in_unit_interval(matched_pp_band):
    spec = PPOperatorSpec(grid=SamplingGrid((16, 16)), bands=(matched_pp_band,))
    lam = spectrum_values(pp_materialize(spec))
    assert lam.min() > -1e-10 and lam.max() < 1 + 1e-10


def test_gap_identity(matched_pp_band):
    spec = PPOperatorSpec(grid=SamplingGrid((16, 16)), bands=(matched_pp_band,))
    cov = pp_materialize(spec)
    rep = trace_frobenius_gap(cov)
    lam = spectrum_values(cov)
    assert rep.gap == pytest.approx(float(np.sum(lam * (1 - lam))), abs=1e-8)


def test_transition_counts_pinned(matched_pp_band):
    for size in (16, 32):
        spec = PPOperatorSpec(grid=SamplingGrid((size, size)),
                              bands=(matched_pp_band,))
        lam = spectrum_values(pp_materialize(spec))
        assert transition_count(lam, 0.05) == pinned.TRANSITION_PP_J1[size]


def test_center_invariance_zero_shift(matched_pp_band):
    spec = PPOperatorSpec(grid=SamplingGrid((10, 10)), bands=(matched_pp_band,))
    assert pp_center_invariance(spec, spec) == 0.0


def test_center_invariance_sheared_shift():
    base = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1), (-0.05, 0.025))
    spec = PPOperatorSpec(grid=SamplingGrid((16, 16)), bands=(base,))
    shifted = PPOperatorSpec(grid=SamplingGrid((16, 16)),
                             bands=(base.shifted((0.1, -0.05)),))
    assert pp_center_invariance(spec, shifted) <= 1e-9


def test_center_invariance_shape_mismatch(matched_pp_band):
    other = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.05))
    a = PPOperatorSpec(grid=SamplingGrid((8, 8)), bands=(matched_pp_band,))
    b = PPOperatorSpec(grid=SamplingGrid((8, 8)), bands=(other,))
    with pytest.raises(ValueError, match="shape"):
        pp_center_invariance(a, b)


def test_shift_out_of_range_rejected(matched_pp_band):
    with pytest.raises(BandError):
        matched_pp_band.shifted((0.45, 0.0))


def test_spec_requires_disjoint_bands(matched_pp_band):
    with pytest.raises(BandError):
        PPOperatorSpec(grid=SamplingGrid((8, 8)),
                       bands=(matched_pp_band, matched_pp_band))


def test_spec_requires_2d_grid(matched_pp_band):
    with pytest.raises(ValueError, match="2-D"):
        PPOperatorSpec(grid=SamplingGrid((8,)), bands=(matched_pp_band,))


def test_spec_requires_a_band():
    with pytest.raises(ValueError, match="at least one band"):
        PPOperatorSpec(grid=SamplingGrid((8, 8)), bands=())


def test_spec_rejects_raw_mappings(matched_pp_band):
    """A raw mapping passes the geometry check, which reads mappings too,
    but is no band the kernel can read."""
    raw = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "half_widths": (0.1, 0.1),
           "center": (0.3, 0.3)}
    with pytest.raises(TypeError, match="band 1 is a dict"):
        PPOperatorSpec(grid=SamplingGrid((8, 8)), bands=[matched_pp_band, raw])


@pytest.mark.parametrize("half_widths, center", [
    ((0.1, 0.1, 0.3), (0.0, 0.0)), ((0.1, 0.1), (0.0, 0.0, 0.4)),
    ((0.1,), (0.0, 0.0)), ((0.1, 0.1), (0.0,)), (0.1, (0.0, 0.0)),
], ids=["long-half-widths", "long-center", "short-half-widths", "short-center",
        "scalar-half-widths"])
def test_band_requires_pairs(half_widths, center):
    with pytest.raises(BandError) as err:
        ParallelepipedBand(1.0, 0.0, 0.0, 1.0, half_widths, center)
    assert [(v.code, v.bands) for v in err.value.violations] == [("malformed", (0,))]
    assert "exactly two numbers" in str(err.value)


def test_center_invariance_needs_one_grid(matched_pp_band):
    a = PPOperatorSpec(grid=SamplingGrid((8, 8)), bands=(matched_pp_band,))
    b = PPOperatorSpec(grid=SamplingGrid((8, 9)), bands=(matched_pp_band,))
    with pytest.raises(ValueError, match="share grid"):
        pp_center_invariance(a, b)
