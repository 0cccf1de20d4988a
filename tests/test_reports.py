import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdprolate import (CubicBandUnion, OperatorSpec, SamplingGrid, build_psi,
                       dpss, reports)
from mdprolate.reports import (ReportRow, _chunks, export_dictionary,
                               format_float, report_rows_csv, write_csv,
                               write_json, write_spectrum_csv,
                               write_eigenvectors_csv, write_text_atomic)
from mdprolate.cli import main

import pinned


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


def test_write_csv_quotes_only_cells_that_need_it(tmp_path):
    path = tmp_path / "q.csv"
    row = ("q=32,32", 'say "x"', "two\nlines", "g\rh", "plain", 0.5, True, 3)
    write_csv(path, ("a", "b", "c", "d", "e", "f", "g", "h"), [row])
    text = path.read_bytes().decode()
    assert text == ('a,b,c,d,e,f,g,h\n"q=32,32","say ""x""","two\nlines","g\rh",'
                    'plain,0.5,true,3\n')
    with path.open(newline="") as f:
        assert list(csv.reader(f))[1] == ["q=32,32", 'say "x"', "two\nlines",
                                           "g\rh", "plain", "0.5", "true", "3"]


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

def per_cell(values, index=False):
    return "".join((f"{i}," if index else "")
                   + ",".join(format_float(v) for v in row) + "\n"
                   for i, row in enumerate(np.asarray(values).tolist()))


def render(values, index=False):
    """The whole CSV body the streamed writers emit, as text."""
    return b"".join(_chunks(values, index)).decode("ascii")


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


@pytest.mark.parametrize("index", [True, False])
def test_render_hard_cases(index):
    for cols in (1, 7, HARD.size):
        values = HARD[: HARD.size // cols * cols].reshape(-1, cols)
        assert render(values, index) == per_cell(values, index)
    assert render(np.array([[1e-12, 1.0, 1e-4, 1e-5, -0.0]])) == (
        "9.9999999999999998e-13,1,0.0001,1.0000000000000001e-05,-0\n")


@pytest.mark.parametrize("index", [True, False])
@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.floats(min_value=-10, max_value=10)),
                      min_size=1, max_size=40),
       cols=st.integers(1, 5))
def test_render_matches_per_cell_format(index, cells, cols):
    cols = min(cols, len(cells))
    values = np.array(cells[: len(cells) // cols * cols]).reshape(-1, cols)
    assert render(values, index) == per_cell(values, index)


def test_render_formats_most_cells_without_percent(monkeypatch):
    """Only near ties, magnitudes outside [1e-20, 10) and cells whose digits
    round up to 1e17 (doubles just below a power of ten) take the per-cell
    ``%``; an exact power of ten such as 1.0 does not."""
    seen = []
    percent = reports._percent
    monkeypatch.setattr(reports, "_percent", lambda v: seen.append(v) or percent(v))
    rng = np.random.default_rng(3)
    values = rng.standard_normal((20, 64)) * 10.0 ** -np.arange(20)[:, None]
    assert render(values) == per_cell(values)
    assert sum(v.size for v in seen) < 0.06 * values.size
    seen.clear()
    near = np.array([[p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
                     for p in POWERS[:20]])
    assert render(near) == per_cell(near)
    assert sum(v.size for v in seen) <= 3


def random_doubles(size, seed):
    """Finite random bit patterns: half over every exponent, half with the
    exponent of a magnitude the renderer cuts into digits itself."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, size, dtype=np.uint64)
    exponent = rng.integers(1023 - 67, 1023 + 4, size, dtype=np.uint64)
    inside = np.arange(size) % 2 == 1
    bits[inside] = (bits[inside] & ~np.uint64(0x7FF << 52)) | (exponent[inside] << 52)
    values = bits.view(float)
    return values[np.isfinite(values)]


def test_render_matches_per_cell_format_on_random_bits():
    values = random_doubles(120_000, 17)
    assert values.size >= 10 ** 5
    values = values[: values.size // 7 * 7].reshape(-1, 7)
    assert values.size > 10 * reports._CHUNK_CELLS
    assert render(values) == per_cell(values)


def test_render_matches_per_cell_format_next_to_powers_of_ten(monkeypatch):
    """Every double within 8 ulp of 10^j, j = -21 to 1, of either sign; the
    chunk is shrunk so the set spans many chunk boundaries."""
    near = []
    for j in range(-21, 2):
        below = above = float(f"1e{j}")
        near.append(above)
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near += [below, above]
    values = np.array(near + [-v for v in near]).reshape(-1, 17)
    monkeypatch.setattr(reports, "_CHUNK_CELLS", 5 * 17)
    assert values.size > 9 * reports._CHUNK_CELLS
    assert render(values) == per_cell(values)


def test_dictionary_atoms_rarely_take_percent(monkeypatch, tmp_path):
    """On the README dictionaries at 32 x 32, fewer than 0.5% of the atom
    cells are formatted by the per-cell ``%``."""
    rendered, seen = [], []
    render, percent = reports._render_rows, reports._percent

    def counted(values, numbers=None):
        rendered.append(values.size)
        return render(values, numbers)
    monkeypatch.setattr(reports, "_render_rows", counted)
    monkeypatch.setattr(reports, "_percent", lambda v: seen.append(v.size) or percent(v))
    config = tmp_path / "bands.json"
    config.write_text(json.dumps({
        "dim": 2, "grid": [32, 32],
        "cubic": [{"center": c, "half_widths": w} for c, w in
                  zip(pinned.REF_2D_CENTERS, pinned.REF_2D_HALF_WIDTHS)]}))
    assert main(["dict", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert sum(rendered) > 300_000
    assert sum(seen) < 0.005 * sum(rendered)


def test_no_source_file_uses_long_double():
    """The renderer runs the same float64 code on every platform."""
    package = Path(reports.__file__).parent
    assert [p.name for p in package.glob("*.py") if "longdouble" in p.read_text()] == []


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
    assert render(np.empty((3, 0)), index=True) == "0\n1\n2\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_output_files_follow_the_umask(umask, mode, tmp_path):
    config = tmp_path / "bands.json"
    config.write_text(json.dumps({
        "dim": 2, "grid": [8, 8],
        "cubic": [{"center": [0.1, -0.1], "half_widths": [0.1, 0.1]}]}))
    previous = os.umask(umask)
    try:
        assert main(["dict", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--format", "json"]) == 0
    finally:
        os.umask(previous)
    files = [p for p in (tmp_path / "o").rglob("*") if p.is_file()]
    assert {p.suffix for p in files} == {".csv", ".json"}
    assert {oct(p.stat().st_mode & 0o777) for p in files} == {oct(mode)}


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    def chunks():
        yield b"index,eigenvalue\n"
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        write_text_atomic(tmp_path / "s.csv", chunks())
    assert list(tmp_path.iterdir()) == []
    write_text_atomic(tmp_path / "s.csv", "x\n")
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


def test_a_taken_temp_name_is_skipped(monkeypatch, tmp_path):
    taken = tmp_path / "s.csv.000000000000.tmp"
    taken.write_text("someone else's")
    salts = iter([b"\0" * 6, b"\1" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(salts))
    write_text_atomic(tmp_path / "s.csv", "x\n")
    assert (tmp_path / "s.csv").read_text() == "x\n"
    assert taken.read_text() == "someone else's"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", taken.name]
