"""Point-symmetric band sets about any centre, solved from the demodulated
table.

When the bands pair up as mirrors about a centre c, the operator shifted to
c has a real difference table, and ``spectrum``/``spectrum_values`` solve
its even and odd blocks, filled straight from that table, at half the size.
The results must be true eigenpairs of the gathered (modulated) matrix,
with eigenvalues matching its complex solve and eigenvectors of definite
phased parity ``K v = +-v``, ``K = D J D^H``, D the centre phase.  Sets
without a centre of symmetry, and hand-built covariances, keep the matrix
route.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec,
                       PPOperatorSpec, SamplingGrid, decompose, default_config,
                       materialize_cubic, pp_center_invariance, pp_materialize,
                       sinc_kernel, spectrum, spectrum_values, vec)
from mdprolate import prolate
from mdprolate._solver import _phase
from mdprolate._tables import _MIRROR_TOL

import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
TWO_BOX_3D = CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                            half_widths=[[0.10, 0.10, 0.10]] * 2)
FOUR_BANDS = [(-0.4, -0.3), (-0.2, -0.1), (0.1, 0.2), (0.3, 0.4)]
# Three mirror pairs: with two, any summation order gives the same bits.
SIX_BANDS = [(-0.45, -0.4), (-0.3, -0.2), (-0.1, -0.05), (0.05, 0.1), (0.2, 0.3),
             (0.4, 0.45)]


def _cubic(dims, union):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=union))


def _default_pp(dims):
    bands = default_config().parallelepiped
    return pp_materialize(PPOperatorSpec(grid=SamplingGrid(dims), bands=bands))


CASES = {
    "readme-8x8": lambda: _cubic((8, 8), README),
    "readme-9x7": lambda: _cubic((9, 7), README),
    "readme-41x39": lambda: _cubic((41, 39), README),
    "two-box-4x5x6": lambda: _cubic((4, 5, 6), TWO_BOX_3D),
    "ref-intervals-n65": lambda: _cubic(
        (65,), CubicBandUnion.from_intervals(pinned.REF_INTERVALS)),
    "ref-intervals-n1024": lambda: _cubic(
        (1024,), CubicBandUnion.from_intervals(pinned.REF_INTERVALS)),
    "default-pp-16x16": lambda: _default_pp((16, 16)),
}


def _split_sizes(n):
    return [n // 2 + n % 2, n // 2]


def _columns(sp):
    return np.stack([vec(t) for t in sp.tensors], axis=1)


@pytest.mark.parametrize("name", list(CASES))
def test_eigenvalues_match_the_complex_solve(name, solver_sizes):
    cov = CASES[name]()
    assert cov.tables.solved.center is not None
    lam = spectrum_values(cov)
    assert solver_sizes == _split_sizes(cov.size)
    expected = np.linalg.eigvalsh(cov.matrix)[::-1]
    assert np.all(np.diff(lam) <= 0.0)
    assert np.max(np.abs(lam - expected)) <= 1e-13


@pytest.mark.parametrize("name", list(CASES))
def test_eigenpairs_of_the_gathered_matrix(name, solver_sizes):
    cov = CASES[name]()
    sp = spectrum(cov)
    assert solver_sizes == _split_sizes(cov.size)
    v = _columns(sp)
    resid = np.max(np.abs(cov.matrix @ v - v * sp.eigenvalues))
    ortho = np.max(np.abs(v.conj().T @ v - np.eye(cov.size)))
    assert resid <= 1e-12 and ortho <= 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_eigenvectors_have_definite_phased_parity(name):
    cov = CASES[name]()
    v = _columns(spectrum(cov))
    # K v = +-v with K = D J D^H is J (D^H v) = +-(D^H v).
    base = _phase(cov.dims, cov.tables.solved.center).conj()[:, None] * v
    mirrored = base[::-1]
    parity = np.minimum(np.max(np.abs(mirrored - base), axis=0),
                        np.max(np.abs(mirrored + base), axis=0))
    assert np.max(parity) <= 1e-12


@pytest.mark.parametrize("bands", [FOUR_BANDS, SIX_BANDS], ids=["four", "six"])
@pytest.mark.parametrize("n", [64, 65])
def test_mirror_bands_split_in_any_list_order(bands, n, solver_sizes):
    spectra = []
    for order in (bands, bands[::-1], bands[1::2] + bands[::2]):
        cov = _cubic((n,), CubicBandUnion.from_intervals(order))
        spectra.append(spectrum_values(cov))
        assert solver_sizes == _split_sizes(n)
        solver_sizes.clear()
    assert all(np.array_equal(spectra[0], lam) for lam in spectra[1:])
    expected = np.linalg.eigvalsh(cov.matrix)[::-1]
    assert np.max(np.abs(spectra[0] - expected)) <= 1e-13


ASYMMETRIC = {
    "unequal-half-widths": lambda: _cubic(
        (9, 7), CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                               half_widths=[[0.10, 0.10], [0.10, 0.08]])),
    # Two equal bands are always mirrors about their midpoint, so a miss
    # needs a third band: it sits 4 tol off the midpoint of the outer two.
    "offset-misses-by-8-tol": lambda: _cubic(
        (65,), CubicBandUnion(centers=[[-0.2], [0.0], [0.2 + 8 * _MIRROR_TOL]],
                              half_widths=[[0.05]] * 3)),
    "half-width-misses-by-8-tol": lambda: _cubic(
        (65,), CubicBandUnion(centers=[[-0.2], [0.2]],
                              half_widths=[[0.05], [0.05 + 8 * _MIRROR_TOL]])),
}


@pytest.mark.parametrize("name", list(ASYMMETRIC))
def test_sets_without_a_centre_take_the_matrix_route(name, solver_sizes):
    cov = ASYMMETRIC[name]()
    assert cov.tables.solved.center is None
    spectrum_values(cov)
    assert solver_sizes == [cov.size]


def test_offsets_within_the_constant_still_pair(solver_sizes):
    # The middle band sits tol / 4 off the midpoint of the outer two.
    union = CubicBandUnion(centers=[[-0.2], [0.0], [0.2 + _MIRROR_TOL / 2]],
                           half_widths=[[0.05]] * 3)
    cov = _cubic((65,), union)
    lam = spectrum_values(cov)
    assert solver_sizes == _split_sizes(65)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(cov.matrix)[::-1])) <= 1e-13


def test_hand_built_covariance_keeps_the_matrix_route(solver_sizes):
    cov = CASES["readme-9x7"]()
    lam = spectrum_values(DenseCovariance(matrix=cov.matrix, dims=cov.dims,
                                          spec=None))
    assert solver_sizes == [63]
    assert np.max(np.abs(lam - spectrum_values(cov))) <= 1e-13


def test_center_invariance_compares_the_table_and_matrix_routes(solver_sizes):
    base = default_config().parallelepiped[0]
    spec = PPOperatorSpec(grid=SamplingGrid((9, 7)), bands=(base,))
    shifted = PPOperatorSpec(grid=SamplingGrid((9, 7)),
                             bands=(base.shifted((0.02, -0.02)),))
    assert pp_center_invariance(spec, shifted) <= 1e-13
    # The shifted operator's complex table is recentred per difference and
    # compared with the demodulated table, so nothing is solved.
    assert solver_sizes == []


def test_gathered_matrices_are_read_only():
    for matrix in (CASES["readme-9x7"]().matrix, CASES["default-pp-16x16"]().matrix,
                   sinc_kernel(8, 0.1, 0.2)):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] += 1.0


@pytest.mark.parametrize("name", ["readme-9x7", "ref-intervals-n65"])
def test_decompose_uses_exactly_hermitian_input_as_is(name, monkeypatch):
    a = CASES[name]().matrix
    expected = decompose(prolate._hermitize(a))

    def no_copy(_):
        raise AssertionError("decompose copied Hermitian input")

    monkeypatch.setattr(prolate, "_hermitize", no_copy)
    sp = decompose(a)
    assert np.array_equal(sp.eigenvalues, expected.eigenvalues)
    assert np.array_equal(sp.eigenvectors, expected.eigenvectors)


def test_decompose_still_symmetrizes_other_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    a = x + x.conj().T
    a[0, 1] += 1e-3
    sp = decompose(a)
    expected = np.linalg.eigvalsh((a + a.conj().T) / 2.0)[::-1]
    assert np.max(np.abs(sp.eigenvalues - expected)) <= 1e-13
