"""Covariances backed by their difference table.

``materialize_cubic`` and ``pp_materialize`` keep the spec's table object,
check the size cap before any table is built, and gather the dense matrix
only when ``.matrix`` is first read.  Trace and
squared Frobenius norm come from the table, so they must match the dense
matrix and must not change when the matrix is gathered.  Point-symmetric
band sets are decomposed from the demodulated table without gathering at
all, and ``spectrum`` assembles its eigen-tensors in one C-contiguous
array in descending order, phase-fixed on a pivot that roundoff cannot
move.
"""

import json
import tracemalloc

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, PPOperatorSpec,
                       SamplingGrid, SizeCapError, default_config, materialize_cubic,
                       pp_materialize, spectrum, spectrum_values, vec)
from mdprolate import _tables, operator, prolate
from mdprolate.cli import main

import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
TWO_BOX_3D = CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                            half_widths=[[0.10, 0.10, 0.10]] * 2)


def _cubic(dims, union=README):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=union))


def _default_pp(dims):
    bands = default_config().parallelepiped
    return pp_materialize(PPOperatorSpec(grid=SamplingGrid(dims), bands=bands))


CASES = {
    "readme-8x8": lambda: _cubic((8, 8)),
    "readme-40x40": lambda: _cubic((40, 40)),
    "readme-41x39": lambda: _cubic((41, 39)),
    "two-box-12x12x12": lambda: _cubic((12, 12, 12), TWO_BOX_3D),
    "ref-intervals-n512": lambda: _cubic(
        (512,), CubicBandUnion.from_intervals(pinned.REF_INTERVALS)),
    "default-pp-16x16": lambda: _default_pp((16, 16)),
}


@pytest.fixture
def no_gather(monkeypatch):
    """Make every binding of ``_gather`` raise."""
    def refuse(table):
        raise AssertionError("the dense matrix was gathered")
    for module in (operator, prolate):
        monkeypatch.setattr(module, "_gather", refuse)


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("name", list(CASES))
def test_table_trace_and_frobenius_match_the_dense_matrix(name):
    cov = CASES[name]()
    assert cov.tables is not None
    assert _rel(cov.trace(), np.trace(cov.matrix).real) <= 1e-13
    assert _rel(cov.frobenius_sq(), np.vdot(cov.matrix, cov.matrix).real) <= 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_trace_and_frobenius_do_not_depend_on_the_gather(name):
    cov = CASES[name]()
    before = cov.trace(), cov.frobenius_sq()
    assert not cov.matrix.flags.writeable
    assert (cov.trace(), cov.frobenius_sq()) == before


def test_matrix_is_gathered_once():
    cov = _cubic((8, 8))
    assert cov.matrix is cov.matrix


@pytest.mark.parametrize("dims", [(65, 64), (2**31, 2**31)], ids=["4160", "2**62"])
def test_past_the_cap_no_table_is_built(dims, monkeypatch):
    """The size cap is checked before any table is built, so a grid past
    it allocates nothing: every table builder refuses to run."""
    def refuse(*args):
        raise AssertionError("a table was built past the size cap")
    for name in ("_table", "_demodulate", "_transfer"):
        monkeypatch.setattr(_tables, name, refuse)
    grid = SamplingGrid(dims)
    with pytest.raises(SizeCapError, match="exceeds the cap"):
        materialize_cubic(OperatorSpec(grid=grid, bands=README))
    with pytest.raises(SizeCapError, match="exceeds the cap"):
        pp_materialize(PPOperatorSpec(grid=grid, bands=default_config().parallelepiped))


@pytest.mark.parametrize("geometry", ["cubic", "parallelogram"])
def test_a_spec_and_its_tables_are_freed_without_the_cycle_collector(geometry):
    """A spec keeps its tables, and nothing in them refers back to the
    spec, so dropping the spec frees them at once: a reference cycle would
    hold every table of a run until the cycle collector ran."""
    import gc
    import weakref
    grid = SamplingGrid((8, 8))
    spec = (OperatorSpec(grid=grid, bands=README) if geometry == "cubic" else
            PPOperatorSpec(grid=grid, bands=default_config().parallelepiped))
    tables = spec._tables
    tables.table, tables.solved, tables.transfer  # each built on first read
    refs = [weakref.ref(spec), weakref.ref(tables)]
    del tables
    gc.disable()
    try:
        del spec
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_covariance_needs_a_matrix_or_a_table():
    cov = _cubic((4, 4))
    with pytest.raises(ValueError):
        operator.DenseCovariance(dims=(4, 4), spec=None)
    with pytest.raises(ValueError):
        operator.DenseCovariance(matrix=cov.matrix, dims=(4, 4), spec=None,
                                 tables=cov.tables)
    # The matrix must fit the grid: a 16 x 16 kernel over (3, 3) would be
    # read as a corner of its table.  A table object carries its own dims.
    for kwargs in ({"matrix": prolate.sinc_kernel(16, 0.1, 0.1), "dims": (3, 3)},
                   {"matrix": cov.matrix, "dims": (4, 5)},
                   {"matrix": cov.matrix[:, :8], "dims": (2, 4)}):
        with pytest.raises(ValueError, match="does not fit dims"):
            operator.DenseCovariance(**kwargs)


@pytest.mark.parametrize("name", ["readme-8x8", "readme-41x39", "default-pp-16x16",
                                  "ref-intervals-n512"])
def test_point_symmetric_spectra_never_gather(name, no_gather):
    cov = CASES[name]()
    assert cov.tables.solved.center is not None
    lam = spectrum_values(cov)
    sp = spectrum(cov)
    assert np.max(np.abs(sp.eigenvalues - lam)) <= 1e-13
    assert cov.trace() > cov.frobenius_sq() > 0.0


def test_cli_spectrum_op_never_gathers(no_gather, tmp_path):
    doc = {
        "dim": 2,
        "cubic": [{"center": c, "half_widths": w}
                  for c, w in zip(pinned.REF_2D_CENTERS, pinned.REF_2D_HALF_WIDTHS)],
        "parallelepiped": [{"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0,
                            "half_widths": [0.1, 0.1], "center": [0.0, 0.0]}],
        "grid": [12, 10],
    }
    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "parallelepiped_eigenvalues.csv").exists()


def test_oned_vectors_take_the_split_solve(solver_sizes, tmp_path):
    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps({
        "dim": 1,
        "cubic": [{"center": [-0.10], "half_widths": [0.05]},
                  {"center": [0.20], "half_widths": [0.05]}],
        "grid": [256],
    }))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out),
                 "--vectors"]) == 0
    assert solver_sizes == [128, 128]
    rows = (out / "multiband1d_eigenvectors.csv").read_text().splitlines()
    assert len(rows) == 257 and rows[0].count(",") == 2 * 256


def test_tensors_are_one_c_contiguous_array():
    sp = spectrum(_cubic((9, 7)))
    assert sp.tensors.shape == (63, 9, 7)
    assert sp.tensors.flags.c_contiguous
    # approx_mse reads the eigen-tensors through this reshape.
    assert np.shares_memory(sp.tensors.reshape(sp.size, -1), sp.tensors)


def test_pivot_is_the_first_of_each_mirrored_pair():
    # Mirrored entries of a point-symmetric eigenvector have equal
    # magnitude up to the roundoff of the centre phase; the one made real
    # positive is the first in vec order, whatever that roundoff.
    cov = _cubic((9, 7))
    first, second = spectrum(cov), spectrum(cov)
    assert np.array_equal(first.tensors, second.tensors)
    n = cov.size
    for tensor in first.tensors:
        v = vec(tensor)
        mags = np.abs(v)
        largest = np.flatnonzero(mags >= mags.max() * (1.0 - 1e-12))
        pivot = v[largest[0]]
        assert largest[0] <= n // 2
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-15


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eigenvalues_at_40x40_stay_under_16_mb():
    # The gathered 1600 x 1600 complex matrix alone would be 41 MB.
    assert _peak_bytes(lambda: spectrum_values(_cubic((40, 40)))) < 16e6


def test_eigenpairs_at_32x32_stay_under_two_complex_matrices():
    # One 1024 x 1024 complex array is 16.8 MB: the eigen-tensors, plus the
    # real half-size blocks and their eigenvectors.
    assert _peak_bytes(lambda: spectrum(_cubic((32, 32)))) < 2 * 16.8e6
