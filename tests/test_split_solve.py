"""The even/odd split of the real-symmetric reduction.

A point-symmetric band set has a real difference table, so the reduced
matrix ``R`` of ``prolate._eigh`` is block diagonal: an even block of size
``k + n % 2`` and an odd block of size ``k`` (``k = n // 2``), solved
separately.  The split must give the complex solve's spectrum and true
orthonormal eigenpairs, be taken exactly when the coupling is zero, leave
real input (``dpss``) on its old path bit for bit, and return eigenvectors
of definite parity ``J v = +-v``.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec,
                       ParallelepipedBand, PPOperatorSpec, SamplingGrid,
                       decompose, dpss, materialize_cubic, pp_materialize,
                       sinc_kernel, spectrum, spectrum_values, vec)
from mdprolate import prolate
from mdprolate.prolate import (_axis_table, _gather, _hermitian, _pivot_scale,
                               _toeplitz_table)

import oracles
import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
README_PP = (ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1)),)
MIRROR = CubicBandUnion.from_intervals([(-0.3, -0.2), (-0.05, 0.05), (0.2, 0.3)])
# The README union with one box narrowed on axis 1: no centre of symmetry.
ASYMMETRIC = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                            half_widths=[[0.10, 0.10], [0.10, 0.08]])


def _pp(dims):
    return pp_materialize(PPOperatorSpec(grid=SamplingGrid(dims), bands=README_PP))


def _oned(n, union):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid((n,)), bands=union))


def _sinc(n):
    return DenseCovariance(matrix=sinc_kernel(n, 0.0, 0.2), dims=(n,), spec=None)


SPLIT = {
    "pp-8x8": lambda: _pp((8, 8)),
    "pp-9x7": lambda: _pp((9, 7)),
    "sinc-n64": lambda: _sinc(64),
    "sinc-n65": lambda: _sinc(65),
    "mirror-n64": lambda: _oned(64, MIRROR),
    "mirror-n65": lambda: _oned(65, MIRROR),
}


def _split_sizes(n):
    return [n // 2 + n % 2, n // 2]


def _pairs(cov):
    """(values, vectors as columns) from ``spectrum`` on the covariance and
    on a hand-built copy of its matrix, and from ``decompose``, which reads
    the matrix over the grid it finds in the matrix's rows."""
    pairs = []
    for one in (cov, DenseCovariance(matrix=cov.matrix, dims=cov.dims)):
        sp = spectrum(one)
        pairs.append((sp.eigenvalues, np.stack([vec(t) for t in sp.tensors], axis=1)))
    one = decompose(cov.matrix)
    return pairs + [(one.eigenvalues, one.eigenvectors)]


@pytest.mark.parametrize("name", list(SPLIT))
def test_split_eigenvalues_match_complex_solve(name, solver_sizes):
    cov = SPLIT[name]()
    assert oracles.centro_hermitian(cov.matrix)
    lam = spectrum_values(cov)
    assert solver_sizes == _split_sizes(cov.size)
    expected = np.linalg.eigvalsh(cov.matrix)[::-1]
    assert np.all(np.diff(lam) <= 0.0)
    assert np.max(np.abs(lam - expected)) <= 1e-13


@pytest.mark.parametrize("name", list(SPLIT))
def test_split_eigenpairs_are_orthonormal_eigenpairs(name):
    cov = SPLIT[name]()
    for vals, v in _pairs(cov):
        resid = np.max(np.abs(cov.matrix @ v - v * vals))
        ortho = np.max(np.abs(v.conj().T @ v - np.eye(cov.size)))
        assert resid <= 1e-12 and ortho <= 1e-12


@pytest.mark.parametrize("name", list(SPLIT))
def test_split_eigenvectors_have_definite_parity(name):
    cov = SPLIT[name]()
    for _, v in _pairs(cov):
        mirrored = v[::-1]
        parity = np.minimum(np.max(np.abs(mirrored - v), axis=0),
                            np.max(np.abs(mirrored + v), axis=0))
        assert np.max(parity) <= 1e-12


def test_solver_sizes_per_path(solver_sizes):
    spectrum_values(_pp((9, 7)))
    assert solver_sizes == [32, 31]
    solver_sizes.clear()
    spectrum(_pp((9, 7)))
    assert solver_sizes == [32, 31]
    solver_sizes.clear()
    spectrum_values(materialize_cubic(
        OperatorSpec(grid=SamplingGrid((9, 7)), bands=README)))
    assert solver_sizes == [32, 31]
    solver_sizes.clear()
    spectrum_values(materialize_cubic(
        OperatorSpec(grid=SamplingGrid((9, 7)), bands=ASYMMETRIC)))
    assert solver_sizes == [63]
    solver_sizes.clear()
    dpss(64, 0.1)
    assert solver_sizes == [64]


@pytest.mark.parametrize("name", list(SPLIT))
def test_nonzero_coupling_takes_the_full_solve(name, solver_sizes, monkeypatch):
    cov = SPLIT[name]()
    table = _toeplitz_table(cov.matrix, cov.dims)
    # The difference (1, 0, ...) and its Hermitian partner, so the matrix
    # stays Hermitian and multilevel Toeplitz, hence centro-Hermitian.
    zero = tuple(n - 1 for n in cov.dims)
    table[(zero[0] + 1,) + zero[1:]] += 1e-300j
    table[(zero[0] - 1,) + zero[1:]] -= 1e-300j
    a = _gather(table)
    assert oracles.centro_hermitian(a) and np.array_equal(a, a.conj().T)
    filled, fill = [], prolate._orbit_blocks

    def recording(*args):
        filled.append(fill(*args))
        return filled[-1]
    monkeypatch.setattr(prolate, "_orbit_blocks", recording)
    lam = spectrum_values(DenseCovariance(matrix=a, dims=cov.dims, spec=None))
    n = cov.size
    # One coupled R, filled from the matrix's table.
    assert [[b.shape for b in blocks] for blocks in filled] == [[(n, n)]]
    assert solver_sizes == [n]
    assert np.max(np.abs(lam - np.linalg.eigvalsh(a)[::-1])) <= 1e-13


def _fix_phases(vecs):
    """Columns of ``vecs`` with the solver's pivot phase convention."""
    return vecs * _pivot_scale(vecs.T)


@pytest.mark.parametrize("n, half_width", [(64, 0.1), (65, 0.2), (1, 0.3)])
def test_dpss_matches_the_real_solve_bit_for_bit(n, half_width):
    kernel = _gather(_hermitian(_axis_table(n, 0.0, half_width)))
    vals, vecs = np.linalg.eigh(kernel)
    order = np.argsort(-vals, kind="stable")
    sp = dpss(n, half_width)
    assert np.array_equal(sp.eigenvalues, vals[order])
    assert np.array_equal(sp.eigenvectors, _fix_phases(vecs[:, order]))
