"""Numeric CSV bodies streamed in bounded chunks.

Every numeric CSV writer renders its body at most ``_CHUNK_CELLS`` cells
at a time, straight into the temp file, and ``export_dictionary`` renders
as many atoms as fill one chunk in one call, then cuts the result into
their files.  The bytes must be those of the per-cell ``format_float``
writer wherever chunks and atom groups start and end, the memory a writer
needs must not grow with the file, and a failed export writes nothing.
"""

import ast
import json
import tracemalloc

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, SamplingGrid, build_phi,
                       reports)
from mdprolate.dictionary import Atom, Dictionary
from mdprolate.reports import (export_dictionary, format_float,
                               write_eigenvectors_csv, write_spectrum_csv)

from test_solver_sites import _references

CHUNK = reports._CHUNK_CELLS
UNION = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.1]])


def _values(shape, seed):
    """Complex entries over many magnitudes, with exact zeros, signed zeros
    and round numbers among them."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-25, 3, shape)
         + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 1, shape))
    flat = a.reshape(-1)
    flat[:6] = [0.0, complex(-0.0, 0.0), complex(0.5, -0.0), 1.0, -0.1, 1e-20]
    return a


def _per_cell_rows(a, index=False):
    """CSV rows of a complex matrix, one ``format_float`` per cell."""
    out = []
    for i, row in enumerate(np.asarray(a).tolist()):
        cells = [str(i)] if index else []
        for z in row:
            cells += [format_float(z.real), format_float(z.imag)]
        out.append(",".join(cells) + "\n")
    return "".join(out)


def _header(k, prefix, index=False):
    names = ["index"] if index else []
    for j in range(k):
        names += [f"{prefix}{j:03d}_re", f"{prefix}{j:03d}_im"]
    return ",".join(names) + "\n"


def _dictionary(dims, count, seed=0):
    atoms = tuple(Atom(tensor=_values(dims, seed + k), source="psi", eigenvalue=0.5,
                       band=0, indices=(0, k)) for k in range(count))
    return Dictionary(atoms=atoms, grid=SamplingGrid(dims), bands=UNION, source="psi")


@pytest.fixture
def render_calls(monkeypatch):
    """The first row number (None without numbers) and size of every
    renderer call."""
    calls = []
    render = reports._render_rows

    def counted(values, numbers=None):
        calls.append((None if numbers is None else numbers.start, values.size))
        return render(values, numbers)
    monkeypatch.setattr(reports, "_render_rows", counted)
    return calls


def _group(dims):
    return CHUNK // (2 * dims[0] * dims[1])


@pytest.mark.parametrize("dims", [(32, 32), (24, 20)])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_export_dictionary_bytes_match_per_cell_writer(dims, offset, tmp_path,
                                                       render_calls):
    """K = 1, G - 1, G and G + 1 atoms, G the atoms per rendered group (4
    at 32 x 32, 8 at 24 x 20)."""
    group = _group(dims)
    count = 1 if offset is None else group + offset
    d = _dictionary(dims, count)
    out = export_dictionary(d, tmp_path / "psi")
    header = _header(dims[1], "c")
    for k, atom in enumerate(d.atoms):
        path = out / f"atom_{k:04d}.csv"
        assert path.read_text() == header + _per_cell_rows(atom.tensor)
    manifest = json.loads((out / "manifest.json").read_text())
    assert [a["file"] for a in manifest["atoms"]] == [
        f"atom_{k:04d}.csv" for k in range(count)]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"atom_{k:04d}.csv" for k in range(count)] + ["manifest.json"])
    # One renderer call per group, each within a chunk.
    assert len(render_calls) == -(-count // group)
    assert all(size <= CHUNK for _, size in render_calls)


def test_an_empty_dictionary_writes_its_manifest_only(tmp_path):
    out = export_dictionary(_dictionary((8, 8), 0), tmp_path / "psi")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["atom_count"] == 0


def test_an_atom_larger_than_a_chunk_is_streamed_alone(tmp_path, render_calls):
    assert _group((128, 128)) == 0
    d = _dictionary((128, 128), 2, seed=7)
    out = export_dictionary(d, tmp_path / "phi")
    for k, atom in enumerate(d.atoms):
        assert (out / f"atom_{k:04d}.csv").read_text() == (
            _header(128, "c") + _per_cell_rows(atom.tensor))
    assert len(render_calls) == 2 * -(-2 * 128 * 128 // CHUNK)
    assert all(size <= CHUNK for _, size in render_calls)


def test_a_failed_export_writes_nothing(tmp_path):
    d = _dictionary((8, 8), 4)
    d.atoms[2].tensor[3, 5] = complex(1.0, np.nan)
    with pytest.raises(ValueError, match="non-finite value nan"):
        export_dictionary(d, tmp_path / "psi")
    assert list(tmp_path.iterdir()) == []


def test_a_three_dimensional_dictionary_is_refused_before_writing(tmp_path):
    """The atom CSV layout is 2-D: a 3-D atom raises a ValueError naming its
    shape, and nothing is created."""
    box = CubicBandUnion(centers=[[0.0, 0.0, 0.0]], half_widths=[[0.2, 0.2, 0.2]])
    d = build_phi(OperatorSpec(grid=SamplingGrid((4, 4, 4)), bands=box), 2)
    with pytest.raises(ValueError, match=r"shape \(4, 4, 4\).*2-D"):
        export_dictionary(d, tmp_path / "phi")
    assert list(tmp_path.iterdir()) == []


def test_spectrum_csv_spans_chunks(tmp_path, render_calls):
    values = np.sort(np.abs(_values(2 * CHUNK + 5, 1).real))[::-1]
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, values)
    assert path.read_text() == "index,eigenvalue\n" + "".join(
        f"{i},{format_float(v)}\n" for i, v in enumerate(values))
    assert render_calls == [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, 5)]


def test_eigenvector_csv_spans_chunks(tmp_path, render_calls):
    vectors = _values((500, 40), 2)
    path = tmp_path / "v.csv"
    write_eigenvectors_csv(path, vectors)
    assert path.read_text() == (_header(40, "v", index=True)
                                + _per_cell_rows(vectors, index=True))
    starts = list(range(0, 500, CHUNK // 80))
    assert len(starts) >= 3
    assert [start for start, _ in render_calls] == starts
    assert all(size <= CHUNK for _, size in render_calls)


def test_eigenvector_csv_memory_does_not_grow_with_the_file(tmp_path):
    vectors = _values((512, 512), 3)
    tracemalloc.start()
    try:
        write_eigenvectors_csv(tmp_path / "v.csv", vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * vectors.nbytes


def test_a_transposed_matrix_is_not_copied_whole(tmp_path):
    """``spectrum --vectors`` writes the transpose of the eigen-tensor stack,
    which is not C-contiguous: it is interleaved a chunk at a time."""
    m = _values((512, 512), 4)
    # This write also builds the renderer's lookup tables, once per process.
    write_eigenvectors_csv(tmp_path / "contiguous.csv", np.ascontiguousarray(m.T))
    tracemalloc.start()
    try:
        write_eigenvectors_csv(tmp_path / "transposed.csv", m.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 4
    assert ((tmp_path / "transposed.csv").read_bytes()
            == (tmp_path / "contiguous.csv").read_bytes())


def test_the_renderer_is_called_only_by_the_chunked_streamer():
    source = open(reports.__file__).read()

    def calls(name):
        return _references(source, lambda node: (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name))
    assert [ref.split(":")[0] for ref in calls("_render_rows")] == ["_chunks"]
    # No whole-body text form is left for a writer to call.
    assert calls("_render") == []
