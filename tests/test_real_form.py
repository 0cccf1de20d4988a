"""One real reduction for tables and matrices.

Every Hermitian multilevel Toeplitz operator is centro-Hermitian, so it is
unitarily similar to a real symmetric form of the same size, and
``_solver._orbit_blocks`` is the one code that fills it: from a real table
(one block per character of its symmetry group) or from a complex table:
a band set's without a centre, or a hand-built covariance's, read from its
matrix by ``_tables._toeplitz_table``.  The fill must be bit for bit the
package's former matrix filler (``oracles.matrix_blocks``) on matrices and
complex tables, and the fancy-indexed character sums of
``oracles.character_blocks`` on real tables.  Every block holds only its
lower triangle, all the solver reads: a real table's upper one is its
partner's, and R's is never written.  So blocks are compared completed
from their lower triangles (``oracles.completed``), which keeps the sign
of every zero.  A band set without a centre must be solved without ever
gathering its matrix.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, ParallelepipedBand,
                       PPOperatorSpec, SamplingGrid, materialize_cubic,
                       pp_materialize, sinc_kernel, spectrum, spectrum_values,
                       vec)
from mdprolate import operator, prolate
from mdprolate._solver import _orbit_blocks
from mdprolate._tables import _gather, _orbits, _toeplitz_table

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
BOX = CubicBandUnion(centers=[[0.1, -0.05]], half_widths=[[0.2, 0.15]])
README_PP = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1))


def _cubic(dims, union):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=union))


def _readme_pp(dims, shifted=False):
    """The README parallelogram, moved by verify's step when ``shifted``."""
    band = README_PP.shifted((0.02, -0.02)) if shifted else README_PP
    return pp_materialize(PPOperatorSpec(grid=SamplingGrid(dims), bands=(band,)))


def _coupled(table, a, dims):
    """The blocks of a complex table, against the reference read from its
    matrix a."""
    ref = oracles.matrix_blocks(a)
    return ([oracles.completed(got, expected) for got, expected in
             zip(_orbit_blocks(table, _orbits(dims, ())), ref)], ref)


def _from_matrix(a, dims):
    """A hand-built matrix, read through its own table as ``_eigh`` reads
    it."""
    return _coupled(_toeplitz_table(a, dims), a, dims)


def _from_table(cov):
    """The operator's own complex table, as a set without a centre and the
    centre-shift check solve it."""
    assert np.iscomplexobj(cov.tables.table)
    return _coupled(cov.tables.table, cov.matrix, cov.dims)


def _from_real_table(cov):
    """The packed blocks, completed from their lower triangles."""
    dm = cov.tables.solved
    orbits = _orbits(cov.dims, dm.symmetries)
    ref = oracles.character_blocks(_gather(dm.table), orbits.images,
                                   orbits.stab, orbits.keep)
    return ([oracles.completed(got, expected)
             for got, expected in zip(_orbit_blocks(dm.table, orbits), ref)], ref)


# name -> () -> (blocks the package fills, the reference blocks)
CASES = {
    "sinc-64-f0": lambda: _from_matrix(sinc_kernel(64, 0.0, 0.1), (64,)),
    "sinc-65-f0": lambda: _from_matrix(sinc_kernel(65, 0.0, 0.1), (65,)),
    "sinc-511-f0.2": lambda: _from_matrix(sinc_kernel(511, 0.2, 0.1), (511,)),
    "sinc-512-f0.2": lambda: _from_matrix(sinc_kernel(512, 0.2, 0.1), (512,)),
    "readme-9x7-matrix": lambda: _from_matrix(_cubic((9, 7), README).matrix, (9, 7)),
    "asymmetric-9x8-matrix": lambda: _from_matrix(
        _cubic((9, 8), ASYMMETRIC).matrix, (9, 8)),
    "asymmetric-9x8-table": lambda: _from_table(_cubic((9, 8), ASYMMETRIC)),
    "asymmetric-7x5-matrix": lambda: _from_matrix(
        _cubic((7, 5), ASYMMETRIC).matrix, (7, 5)),
    "asymmetric-7x5-table": lambda: _from_table(_cubic((7, 5), ASYMMETRIC)),
    "asymmetric-32x32-matrix": lambda: _from_matrix(
        _cubic((32, 32), ASYMMETRIC).matrix, (32, 32)),
    "asymmetric-32x32-table": lambda: _from_table(_cubic((32, 32), ASYMMETRIC)),
    "asymmetric-4x5x6-table": lambda: _from_table(_cubic((4, 5, 6), ASYMMETRIC_3D)),
    "shifted-readme-pp-32x32-table": lambda: _from_table(_readme_pp((32, 32), True)),
    "shifted-readme-pp-9x7-table": lambda: _from_table(_readme_pp((9, 7), True)),
    "readme-40x40": lambda: _from_real_table(_cubic((40, 40), README)),
    "readme-41x39": lambda: _from_real_table(_cubic((41, 39), README)),
    "box-9x7": lambda: _from_real_table(_cubic((9, 7), BOX)),
    "readme-pp-32x32": lambda: _from_real_table(_readme_pp((32, 32))),
}


@pytest.mark.parametrize("name", list(CASES))
def test_the_real_form_is_bitwise_the_reference(name):
    got, ref = CASES[name]()
    assert len(got) == len(ref)
    for block, expected in zip(got, ref):
        assert block.dtype == expected.dtype and block.shape == expected.shape
        assert np.ascontiguousarray(block).tobytes() == expected.tobytes()


def test_the_cases_cover_every_route():
    counts = {name: len(CASES[name]()[0]) for name in
              ("sinc-64-f0", "sinc-511-f0.2", "asymmetric-7x5-table", "box-9x7")}
    # Zero coupling splits, a nonzero one gives one R, |G| = 4 four blocks.
    assert counts == {"sinc-64-f0": 2, "sinc-511-f0.2": 1,
                      "asymmetric-7x5-table": 1, "box-9x7": 4}


NO_CENTRE = {
    "asymmetric-9x8": lambda: _cubic((9, 8), ASYMMETRIC),
    "asymmetric-7x5": lambda: _cubic((7, 5), ASYMMETRIC),
    "asymmetric-4x5x6": lambda: _cubic((4, 5, 6), ASYMMETRIC_3D),
}


@pytest.mark.parametrize("name", list(NO_CENTRE))
def test_sets_without_a_centre_are_solved_without_a_gather(name, monkeypatch):
    a = NO_CENTRE[name]().matrix
    expected = np.linalg.eigvalsh(a)[::-1]

    def refuse(table):
        raise AssertionError("the dense matrix was gathered")
    for module in (operator, prolate):
        monkeypatch.setattr(module, "_gather", refuse)
    cov = NO_CENTRE[name]()
    assert cov.tables.solved.center is None
    lam = spectrum_values(cov)
    sp = spectrum(cov)
    assert np.max(np.abs(lam - expected)) <= 1e-13
    assert np.max(np.abs(sp.eigenvalues - expected)) <= 1e-13
    v = np.stack([vec(t) for t in sp.tensors], axis=1)
    assert np.max(np.abs(a @ v - v * sp.eigenvalues)) <= 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(sp.size))) <= 1e-12
    assert sp.leading(3).tobytes() == sp.tensors[:3].tobytes()
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, sp.size)) + 1j * rng.standard_normal((4, sp.size))
    assert np.max(np.abs(sp.combine(c) - np.tensordot(c, sp.tensors, axes=1))) <= 1e-12


def test_completion_keeps_the_sign_of_a_zero():
    packed = np.array([[1.0, np.nan], [-0.0, 2.0]])
    full = oracles.completed(packed, np.array([[1.0, -0.0], [-0.0, 2.0]]))
    assert full.tobytes() == np.array([[1.0, -0.0], [-0.0, 2.0]]).tobytes()
