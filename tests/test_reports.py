import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdprolate import (CubicBandUnion, OperatorSpec, SamplingGrid, build_psi,
                       dpss, reports)
from mdprolate.reports import (ReportRow, _render, export_dictionary,
                               format_float, report_rows_csv, write_csv,
                               write_json, write_spectrum_csv,
                               write_eigenvectors_csv)


def test_format_float_round_trip():
    for x in (0.1, 1 / 3, 51.2, -1e-300, 2**-52, 1.7976931348623157e308):
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)


def test_write_csv_deterministic(tmp_path):
    rows = [(0, 0.1), (1, 2 / 3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ("index", "value"), rows)
    write_csv(b, ("index", "value"), rows)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("index,value\n")
    assert "\r" not in text


def test_write_csv_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("x",), [(float("nan"),)])
    assert not (tmp_path / "bad.csv").exists()


def test_write_json_sorted_and_finite(tmp_path):
    path = tmp_path / "o.json"
    write_json(path, {"b": 1, "a": np.float64(0.5)})
    assert path.read_text() == '{\n  "a": 0.5,\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        write_json(tmp_path / "bad.json", {"x": float("inf")})


def test_report_rows_sorted(tmp_path):
    rows = [
        ReportRow("z", "p=1", "m", 1.0, None, True),
        ReportRow("a", "p=2", "m", 2.0, 0.5, False),
        ReportRow("a", "p=1", "m", 3.0, None, True),
    ]
    path = tmp_path / "r.csv"
    report_rows_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,params,metric,value,tolerance,passed"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["a", "a", "z"]
    assert lines[2].endswith("false")


def test_spectrum_csv_rows(tmp_path):
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, np.array([1.0, 0.5, 0.0]))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1] == "0,1"


def test_eigenvector_csv_interleaving(tmp_path):
    sp = dpss(6, 0.2)
    path = tmp_path / "v.csv"
    write_eigenvectors_csv(path, sp.eigenvectors[:, :2])
    lines = path.read_text().splitlines()
    assert lines[0] == "index,v000_re,v000_im,v001_re,v001_im"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(sp.eigenvectors[0, 0])
    assert float(first[2]) == 0.0


def test_export_dictionary(tmp_path):
    bands = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.1]])
    spec = OperatorSpec(grid=SamplingGrid((6, 6)), bands=bands)
    d = build_psi(spec, 3)
    out = export_dictionary(d, tmp_path / "psi")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["atom_count"] == 3
    assert manifest["atoms"][0]["file"] == "atom_0000.csv"
    assert (out / "atom_0002.csv").exists()
    header = (out / "atom_0000.csv").read_text().splitlines()[0]
    assert header.startswith("c000_re,c000_im")
    assert manifest["atoms"][0]["dpss_indices"] == [0, 0]


# --- the vectorized %.17g renderer ------------------------------------------

def per_cell(values):
    return "".join(",".join(format_float(v) for v in row) + "\n"
                   for row in np.asarray(values).tolist())


def halfway_doubles():
    """Doubles whose exact decimal has 18 significant digits ending in 5, so
    rounding to 17 digits is a tie: ``m / 2^q`` with ``m * 5^q`` of 18
    digits (``q`` is at most 25 since 5^26 has 19 digits)."""
    out = []
    for q in range(17, 26):
        low = -(-10 ** 17 // 5 ** q) | 1
        high = ((10 ** 18 - 1) // 5 ** q - 1) | 1
        for m in (low, low + 2, high - 2, high):
            if len(str(m * 5 ** q)) == 18 and m / 2 ** q < 10:
                out.append(m / 2 ** q)
    return out


def short_decimals():
    """Decimals of 1 to 18 significant digits, half their digits zero, from
    1e-21 to 10: their 17-digit renderings end in runs of zeros."""
    rng = np.random.default_rng(5)
    out = []
    for size in range(1, 19):
        for _ in range(40):
            digits = rng.integers(0, 10, size) * (rng.random(size) < 0.5)
            digits[0] = rng.integers(1, 10)
            mantissa = "".join(map(str, digits))
            out.append(float(f"{mantissa[0]}.{mantissa[1:]}e{rng.integers(-21, 1)}"))
    return out


POWERS = [float(f"1e-{j}") for j in range(21)]
HARD = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]
    + POWERS
    + [np.nextafter(p, d) for p in POWERS for d in (np.inf, -np.inf)]
    + halfway_doubles() + short_decimals()
    + [10.0, -10.0, np.nextafter(10.0, 0.0), 12345.0, 1e16, 1e17,
       1.7976931348623157e308, 9.9e-21, -1e-300, np.nextafter(1e-20, 0.0)])
HARD = np.concatenate([HARD, -HARD])


def test_halfway_doubles_are_ties():
    ties = halfway_doubles()
    assert len(ties) >= 20
    for x in ties:
        digits = format(x, ".17e").split("e")[0].replace(".", "").rstrip("0")
        assert len(digits) == 18 and digits.endswith("5")
    assert 2.0 ** -25 in ties  # 2.98023223876953125e-08, an %e layout


@pytest.mark.parametrize("long_double", [True, False])
def test_render_hard_cases(long_double, monkeypatch):
    monkeypatch.setattr(reports, "_LONG_DOUBLE", long_double and reports._LONG_DOUBLE)
    for cols in (1, 7, HARD.size):
        values = HARD[: HARD.size // cols * cols].reshape(-1, cols)
        assert _render(values) == per_cell(values)
    assert _render(np.array([[1e-12, 1.0, 1e-4, 1e-5, -0.0]])) == (
        "9.9999999999999998e-13,1,0.0001,1.0000000000000001e-05,-0\n")


@pytest.mark.parametrize("long_double", [True, False])
@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.floats(min_value=-10, max_value=10)),
                      min_size=1, max_size=40),
       cols=st.integers(1, 5))
def test_render_matches_per_cell_format(long_double, cells, cols):
    cols = min(cols, len(cells))
    values = np.array(cells[: len(cells) // cols * cols]).reshape(-1, cols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "_LONG_DOUBLE", long_double and reports._LONG_DOUBLE)
        assert _render(values) == per_cell(values)


def test_render_formats_most_cells_without_percent(monkeypatch):
    """Only near ties, magnitudes outside [1e-20, 10) and products that land
    on 1e16 (an exact 1.0) take the per-cell ``%``."""
    if not reports._LONG_DOUBLE:
        pytest.skip("no 64-bit long double mantissa: every cell takes %")
    seen = []
    percent = reports._percent
    monkeypatch.setattr(reports, "_percent", lambda v: seen.append(v) or percent(v))
    rng = np.random.default_rng(3)
    values = rng.standard_normal((20, 64)) * 10.0 ** -np.arange(20)[:, None]
    assert _render(values) == per_cell(values)
    assert sum(v.size for v in seen) < 0.06 * values.size
    seen.clear()
    near = np.array([[p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
                     for p in POWERS[:20]])
    assert _render(near) == per_cell(near)
    assert sum(v.size for v in seen) <= 3


def test_index_column_is_rendered_as_integers(monkeypatch, tmp_path):
    """Row numbers take ``%d``, never the per-cell ``%`` of the float cells."""
    seen = []
    percent = reports._percent
    monkeypatch.setattr(reports, "_percent", lambda v: seen.append(v) or percent(v))
    values = np.linspace(0.9, 0.1, 1600)
    write_spectrum_csv(tmp_path / "s.csv", values)
    assert (tmp_path / "s.csv").read_text() == "index,eigenvalue\n" + "".join(
        f"{i},{format_float(v)}\n" for i, v in enumerate(values))
    vectors = values[:40].reshape(20, 2) * (1 + 1j)
    write_eigenvectors_csv(tmp_path / "v.csv", vectors)
    rows = (tmp_path / "v.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [str(i) for i in range(20)]
    assert not any(np.any(v == np.rint(v)) for v in seen if v.size)
    assert _render(np.empty((3, 0)), index=True) == "0\n1\n2\n"
