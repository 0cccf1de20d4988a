"""A hand-built matrix is solved from its own difference table.

``_tables._toeplitz_table`` reads a matrix at one entry per index
difference and returns that table only when the table is exactly Hermitian
and its matrix is the input, entry for entry.  A gathered table comes back
bit for bit; a matrix one entry off, a Toeplitz matrix that is not
Hermitian, a multilevel matrix read over the wrong grid and a non-square
input give None.  ``_tables._toeplitz_grid`` finds a gathered matrix's own
grid in its rows, so ``decompose`` reduces a 2-D or 3-D matrix too; a
table with a tie where the grid is read gives a grid the table check
rejects.  A Hermitian, centro-Hermitian matrix that is not Toeplitz has no
table, so it takes the plain dense solve.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec,
                       ParallelepipedBand, PPOperatorSpec, SamplingGrid,
                       decompose, materialize_cubic, pp_materialize,
                       sinc_kernel, spectrum_values)
from mdprolate import _solver
from mdprolate._tables import _gather, _toeplitz_grid, _toeplitz_table

import oracles
import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
# No centre: the bands do not pair up as mirrors.
ASYMMETRIC = CubicBandUnion(
    centers=[[-0.25, -0.2], [0.2, 0.15], [0.1, -0.3]],
    half_widths=[[0.1, 0.08], [0.07, 0.1], [0.05, 0.06]])
ASYMMETRIC_3D = CubicBandUnion(
    centers=[[-0.15, -0.10, -0.05], [0.20, 0.15, 0.10]],
    half_widths=[[0.10, 0.10, 0.10], [0.08, 0.10, 0.12]])
ONED = CubicBandUnion.from_intervals(pinned.REF_INTERVALS)
README_PP = (ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1)),)


def _cubic(dims, union):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=union))


GATHERED = {
    "1-d-65": lambda: _cubic((65,), ONED),
    "readme-9x7": lambda: _cubic((9, 7), README),
    "asymmetric-12x11": lambda: _cubic((12, 11), ASYMMETRIC),
    "pp-9x8": lambda: pp_materialize(
        PPOperatorSpec(grid=SamplingGrid((9, 8)), bands=README_PP)),
    "asymmetric-4x5x6": lambda: _cubic((4, 5, 6), ASYMMETRIC_3D),
}


@pytest.mark.parametrize("name", list(GATHERED))
def test_a_gathered_table_is_read_back_bitwise(name):
    cov = GATHERED[name]()
    got = _toeplitz_table(np.array(cov.matrix), cov.dims)
    assert got.dtype == cov.tables.table.dtype and got.shape == cov.tables.table.shape
    assert got.tobytes() == cov.tables.table.tobytes()


@pytest.mark.parametrize("name", list(GATHERED))
def test_a_gathered_matrix_reads_its_own_grid(name):
    cov = GATHERED[name]()
    assert _toeplitz_grid(np.array(cov.matrix)) == cov.dims


@pytest.mark.parametrize("name", ["readme-9x7", "asymmetric-12x11", "pp-9x8",
                                  "asymmetric-4x5x6"])
def test_decompose_reduces_a_multilevel_matrix(name, solver_sizes, monkeypatch):
    cov = GATHERED[name]()
    filled, fill = [], _solver._orbit_blocks

    def recording(table, orbits):
        filled.append(table.shape)
        return fill(table, orbits)
    monkeypatch.setattr(_solver, "_orbit_blocks", recording)
    sp = decompose(cov.matrix)
    assert filled == [cov.tables.table.shape] and sum(solver_sizes) == cov.size
    expected = np.linalg.eigvalsh(cov.matrix)[::-1]
    assert np.max(np.abs(sp.eigenvalues - expected)) <= 1e-13


def test_a_tie_where_the_grid_is_read_takes_the_plain_solve(solver_sizes):
    """Over (5, 4), row 1 first leaves row 0's shift at column 4, where it
    reads difference (1, -1) against (-4, 0): equal here, so the grid read
    is wrong and the matrix is solved as it is, to the same spectrum."""
    rng = np.random.default_rng(6)
    table = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
    table = (table + table[::-1, ::-1].conj()) / 2.0
    table[5, 2] = table[0, 3]
    table[3, 4] = table[8, 3]
    a = np.array(_gather(table))
    assert np.array_equal(a, a.conj().T) and _toeplitz_table(a, (5, 4)) is not None
    assert _toeplitz_grid(a) != (5, 4)
    sp = decompose(a)
    assert solver_sizes == [20]
    assert np.max(np.abs(sp.eigenvalues - np.linalg.eigvalsh(a)[::-1])) <= 1e-13


@pytest.mark.parametrize("name", ["1-d-65", "asymmetric-12x11", "asymmetric-4x5x6"])
@pytest.mark.parametrize("where", ["read", "unread", "last"])
def test_a_matrix_one_entry_off_has_no_table(name, where):
    """Off at an entry the table is read from, at one it is not, and at
    the last entry."""
    cov = GATHERED[name]()
    a = np.array(cov.matrix)
    n = cov.size
    i, j = {"read": (1, 0), "unread": (n // 2, n // 2 - 1), "last": (n - 1, n - 1)}[where]
    a[i, j] += 1e-15
    assert _toeplitz_table(a, cov.dims) is None


def test_a_toeplitz_matrix_that_is_not_hermitian_has_no_table():
    rng = np.random.default_rng(4)
    table = rng.standard_normal((15, 13)) + 1j * rng.standard_normal((15, 13))
    assert _toeplitz_table(np.array(_gather(table)), (8, 7)) is None


def test_a_multilevel_matrix_over_one_axis_has_no_table():
    cov = GATHERED["readme-9x7"]()
    a = np.array(cov.matrix)
    assert _toeplitz_table(a, cov.dims) is not None
    assert _toeplitz_table(a, (cov.size,)) is None


def test_a_non_square_input_has_no_table():
    a = np.array(sinc_kernel(6, 0.2, 0.1))[:4]
    assert _toeplitz_table(a, (4,)) is None
    assert _toeplitz_table(a, (6,)) is None


def test_a_centro_hermitian_matrix_without_a_table_takes_the_plain_solve(
        solver_sizes, monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    a = x + x.conj().T
    a = (a + a[::-1, ::-1].conj()) / 2.0
    assert oracles.centro_hermitian(a) and np.array_equal(a, a.conj().T)
    assert _toeplitz_table(a, (30,)) is None

    def refuse(*args):
        raise AssertionError("a matrix without a table was reduced")
    monkeypatch.setattr(_solver, "_orbit_blocks", refuse)
    lam = spectrum_values(DenseCovariance(matrix=a, dims=(30,)))
    assert solver_sizes == [30]
    assert np.max(np.abs(lam - np.linalg.eigvalsh(a)[::-1])) <= 1e-13
