import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdprolate import (BandError, ConfigError, CubicBandUnion, NyquistError,
                       ParallelepipedBand, SamplingGrid, load_band_config,
                       scale_analog, validate)
from mdprolate.bands import cubic_violations, parallelepiped_violations


def test_measure_two_intervals(ref_intervals):
    assert ref_intervals.measure() == pytest.approx(0.2, abs=1e-15)


def test_measure_single_square():
    u = CubicBandUnion(centers=[[0.1, 0.2]], half_widths=[[0.05, 0.05]])
    assert u.measure() == pytest.approx(0.01, abs=1e-15)


def test_measure_two_rectangles():
    u = CubicBandUnion(centers=[[-0.2, -0.2], [0.2, 0.2]],
                       half_widths=[[0.05, 0.05], [0.10, 0.025]])
    assert u.measure() == pytest.approx(0.1 * 0.1 + 0.2 * 0.05, abs=1e-15)


@given(st.lists(st.tuples(st.floats(-0.4, 0.4), st.floats(0.01, 0.05)),
                min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_measure_additive_and_order_invariant(raw):
    centers = np.array([[c] for c, _ in raw])
    widths = np.array([[w] for _, w in raw])
    if cubic_violations(centers, widths):
        return
    u = CubicBandUnion(centers, widths)
    total = sum(u.band(i).measure() for i in range(len(u)))
    assert u.measure() == pytest.approx(total, rel=1e-12)
    perm = np.random.default_rng(0).permutation(len(u))
    shuffled = CubicBandUnion(centers[perm], widths[perm])
    assert shuffled.measure() == pytest.approx(u.measure(), rel=1e-12)


def test_pp_measure_identity_matches_cubic():
    pp = ParallelepipedBand(1.0, 0.0, 0.0, 1.0, (0.1, 0.1))
    cu = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.1]])
    assert pp.measure() == pytest.approx(0.04, abs=1e-15)
    assert pp.measure() == pytest.approx(cu.measure(), abs=1e-15)


def test_pp_measure_scaled_transform():
    pp = ParallelepipedBand(2.0, 0.0, 0.0, 2.0, (0.1, 0.1))
    assert pp.measure() == pytest.approx(0.01, abs=1e-15)


def test_pp_measure_unit_shear():
    pp = ParallelepipedBand(1.0, 1.0, 0.0, 1.0, (0.1, 0.1))
    assert pp.measure() == pytest.approx(0.04, abs=1e-15)


def test_validate_reference_ok(ref_intervals):
    assert validate(ref_intervals) == []


def test_validate_accepts_a_valid_mapping_and_refuses_other_types():
    assert validate({"centers": [[0.1, 0.2]], "half_widths": [[0.05, 0.05]]}) == []
    with pytest.raises(TypeError, match="cannot validate int"):
        validate(3)


def test_intervals_round_trip_and_are_one_dimensional(ref_intervals):
    again = CubicBandUnion.from_intervals(ref_intervals.intervals())
    np.testing.assert_allclose(again.centers, ref_intervals.centers, atol=1e-16)
    np.testing.assert_allclose(again.half_widths, ref_intervals.half_widths,
                               atol=1e-16)
    square = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.1]])
    with pytest.raises(ValueError, match="1-D unions"):
        square.intervals()


def test_validate_identical_bands_overlap():
    bad = cubic_violations([[0.1], [0.1]], [[0.05], [0.05]])
    assert any(v.code == "overlap" and v.bands == (0, 1) for v in bad)


def test_validate_out_of_range():
    bad = cubic_violations([[0.5]], [[0.1]])
    assert any(v.code == "range" and v.bands == (0,) for v in bad)


def test_touching_bands_accepted():
    u = CubicBandUnion(centers=[[-0.1], [0.1]], half_widths=[[0.1], [0.1]])
    assert validate(u) == []


def test_constructor_raises_on_overlap():
    with pytest.raises(BandError):
        CubicBandUnion(centers=[[0.1], [0.12]], half_widths=[[0.05], [0.05]])


@pytest.mark.parametrize("centers, half_widths", [
    ([[0.1], [0.2]], [[0.1]]),   # more centers than half-widths
    ([[0.1, 0.2]], [[0.1]]),     # more axes in the centers
])
def test_mismatched_arrays_are_reported_malformed(centers, half_widths):
    bad = cubic_violations(centers, half_widths)
    assert [(v.code, v.bands) for v in bad] == [("malformed", ())]
    assert str(np.shape(centers)) in bad[0].message
    assert str(np.shape(half_widths)) in bad[0].message
    assert validate({"centers": centers, "half_widths": half_widths}) == bad


@pytest.mark.parametrize("centers, half_widths", [
    ([], []),
    (np.zeros((0, 2)), np.zeros((0, 2))),
    ("a", "b"),
    ([[0.1, "x"]], [[0.1, 0.1]]),
], ids=["no-axes", "no-bands", "strings", "string-entry"])
def test_empty_or_non_numeric_arrays_are_reported_malformed(centers, half_widths):
    bad = cubic_violations(centers, half_widths)
    assert [(v.code, v.bands) for v in bad] == [("malformed", ())]
    assert validate({"centers": centers, "half_widths": half_widths}) == bad
    with pytest.raises(BandError) as exc:
        CubicBandUnion(centers, half_widths)
    assert exc.value.violations == bad


def test_nonpositive_half_width_rejected():
    bad = cubic_violations([[0.1]], [[0.0]])
    assert any(v.code == "half_width" for v in bad)


@pytest.mark.parametrize("half_widths", [(0.0, 0.1), (0.1, -0.05)])
def test_pp_nonpositive_half_width_rejected(half_widths):
    raw = {"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0, "half_widths": half_widths}
    assert [v.code for v in parallelepiped_violations([raw])] == ["half_width"]
    with pytest.raises(BandError, match="strictly positive"):
        ParallelepipedBand(**raw)


@pytest.mark.parametrize("half_widths", [
    [1e-170, 1e-170], [1e-120, 1e-120, 1e-120], [1e-300, 1e-30],
], ids=["2-D", "3-D", "unequal-widths"])
def test_cubic_measure_underflow_rejected(half_widths):
    """Each half-width is positive but the measure prod 2 W underflows to 0,
    which would give an operator of trace 0."""
    centers = [0.1] * len(half_widths)
    bad = cubic_violations([centers], [half_widths])
    assert [v.code for v in bad] == ["half_width"]
    with pytest.raises(BandError):
        CubicBandUnion([centers], [half_widths])


def test_pp_overlap_detected():
    band = ParallelepipedBand(1.0, 0.5, 0.0, 1.0, (0.1, 0.1))
    bad = parallelepiped_violations([band, band])
    assert any(v.code == "overlap" and v.bands == (0, 1) for v in bad)


def test_pp_disjoint_sheared_pair():
    b1 = ParallelepipedBand(1.0, 0.5, 0.0, 1.0, (0.05, 0.05), (-0.2, -0.2))
    b2 = ParallelepipedBand(1.0, -0.5, 0.0, 1.0, (0.05, 0.05), (0.2, 0.2))
    assert parallelepiped_violations([b1, b2]) == []


def test_pp_singular_transform_rejected():
    with pytest.raises(BandError):
        ParallelepipedBand(1.0, 2.0, 0.5, 1.0, (0.1, 0.1))


@pytest.mark.parametrize("a, d, half_widths", [
    (1e200, 1e200, (0.1, 0.1)), (1e300, 1e8, (1e-10, 1e-10)),
    (1.0, 1.0, (1e-170, 1e-170)),
], ids=["determinant-overflows", "area-underflows", "widths-underflow"])
def test_pp_transform_without_a_finite_nonzero_area_rejected(a, d, half_widths):
    """A determinant that overflows, or an area 4 W0 W1 / |V| that
    underflows, would give an operator of trace 0."""
    with pytest.raises(BandError) as info:
        ParallelepipedBand(a, 0.4, 0.0, d, half_widths)
    assert [v.code for v in info.value.violations] == ["transform"]


def test_pp_out_of_range_rejected():
    with pytest.raises(BandError):
        ParallelepipedBand(1.0, 0.0, 0.0, 1.0, (0.1, 0.1), (0.45, 0.0))


def test_scale_analog_basic():
    analog = CubicBandUnion(centers=[[100.0]], half_widths=[[20.0]], analog=True)
    digital = scale_analog(analog, 1.0 / 400.0)
    assert digital.centers[0, 0] == pytest.approx(0.25)
    assert digital.half_widths[0, 0] == pytest.approx(0.05)


def test_scale_analog_identity():
    u = CubicBandUnion(centers=[[0.1]], half_widths=[[0.05]], analog=True)
    out = scale_analog(u, 1.0)
    np.testing.assert_allclose(out.centers, u.centers)
    np.testing.assert_allclose(out.half_widths, u.half_widths)


def test_scale_analog_nyquist_violation():
    analog = CubicBandUnion(centers=[[300.0]], half_widths=[[20.0]], analog=True)
    with pytest.raises(NyquistError, match="axis 0"):
        scale_analog(analog, 1.0 / 400.0)


@pytest.mark.parametrize("ts", [0.0, -1.0, (1.0, 0.0)])
def test_scale_analog_rejects_a_non_positive_period(ts):
    analog = CubicBandUnion(centers=[[0.1, 0.1]], half_widths=[[0.05, 0.05]],
                            analog=True)
    with pytest.raises(ValueError, match="must be positive"):
        scale_analog(analog, ts)


def test_grid_validation():
    assert SamplingGrid((8, 8)).size == 64
    with pytest.raises(ValueError):
        SamplingGrid((1, 8))


def test_grid_rejects_fractional_dims():
    with pytest.raises(ValueError, match="integer"):
        SamplingGrid((8.7, 8))
    assert SamplingGrid((np.int64(8), 8.0)).dims == (8, 8)


@pytest.mark.parametrize("size", [math.inf, -math.inf, math.nan])
def test_grid_rejects_non_finite_dims(size):
    with pytest.raises(ValueError, match="integer"):
        SamplingGrid((size, 8))


def test_load_band_config(tmp_path):
    doc = {"dim": 2,
           "cubic": [{"center": [0.1, 0.1], "half_widths": [0.05, 0.05]}],
           "parallelepiped": [{"a": 1.0, "b": 0.5, "c": 0.0, "d": 1.0,
                               "half_widths": [0.05, 0.05],
                               "center": [-0.2, -0.2]}],
           "grid": [16, 16]}
    path = tmp_path / "bands.json"
    path.write_text(json.dumps(doc))
    cfg = load_band_config(path)
    assert cfg.grid.dims == (16, 16)
    assert cfg.cubic.num_bands == 1
    assert len(cfg.parallelepiped) == 1


def test_load_band_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bands.json"
    path.write_text(json.dumps({"grid": [8, 8], "cubic": [], "extra": 1}))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_band_config(path)


def test_load_band_config_requires_bands(tmp_path):
    path = tmp_path / "bands.json"
    path.write_text(json.dumps({"grid": [8, 8]}))
    with pytest.raises(ConfigError):
        load_band_config(path)


def test_load_band_config_invalid_json(tmp_path):
    path = tmp_path / "bands.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_band_config(path)


def test_band_arrays_immutable(ref_intervals):
    with pytest.raises(ValueError):
        ref_intervals.centers[0, 0] = 0.3


@pytest.mark.parametrize("center, half_width", [
    ((float("nan"), 0.1), (0.05, 0.05)),
    ((0.1, 0.1), (float("inf"), 0.05)),
    ((-float("inf"), 0.0), (0.05, 0.05)),
])
def test_cubic_non_finite_reported(center, half_width):
    bad = cubic_violations([center, (0.3, 0.3)], [half_width, (0.05, 0.05)])
    assert [(v.code, v.bands) for v in bad] == [("finite", (0,))]
    assert [v.code for v in cubic_violations([center], [half_width], analog=True)] \
        == ["finite"]
    with pytest.raises(BandError, match="finite"):
        CubicBandUnion(centers=[center], half_widths=[half_width])


@pytest.mark.parametrize("field, value", [
    ("a", float("nan")), ("b", float("inf")), ("c", float("nan")),
    ("d", -float("inf")), ("half_widths", (float("nan"), 0.1)),
    ("center", (0.0, float("inf"))),
])
def test_pp_non_finite_reported(field, value):
    raw = {"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0, "half_widths": (0.1, 0.1),
           "center": (0.0, 0.0), field: value}
    bad = parallelepiped_violations([raw])
    assert [(v.code, v.bands) for v in bad] == [("finite", (0,))]
    with pytest.raises(BandError, match="finite"):
        ParallelepipedBand(**raw)


PP_OK = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "half_widths": [0.1, 0.1]}


@pytest.mark.parametrize("obj, bands, reason", [
    ([{"a": 1.0}], (0,), "band 0: malformed entry (KeyError('b'))"),
    ([PP_OK, {**PP_OK, "half_widths": [0.1]}], (1,),
     "band 1: malformed entry (ValueError('not enough values to unpack"),
    ([{**PP_OK, "a": "x"}], (0,), "could not convert"),
    ([{**PP_OK, "center": None}], (0,), "not iterable"),
    ({"centers": [[0.1]]}, (), "KeyError('half_widths')"),
    ({"centers": [[0.1]], "half_widths": [[0.1, 0.1]]}, (), "matching"),
], ids=["pp-missing-key", "pp-short-half-widths", "pp-not-a-number", "pp-null-center",
        "cubic-missing-key", "cubic-shape-mismatch"])
def test_validate_reports_malformed_entries(obj, bands, reason):
    bad = validate(obj)
    assert [(v.code, v.bands) for v in bad] == [("malformed", bands)]
    assert reason in bad[0].message
