"""The difference-table core against reference builders.

The references assemble every matrix the long way: per-axis kernels as full
n x n matrices, Kronecker products for cubic bands, ``pp_entry`` evaluated
entry by entry for parallelograms, each followed by the same Hermitian
averaging.  The gathered tables must match them bit for bit; the FFT
apply must match the dense product to 1e-12.  Every gathered matrix is
centro-Hermitian, so the eigensolver reduces it to a real symmetric one;
its spectra and eigenpairs must match the complex dense solve.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec,
                       ParallelepipedBand, PPOperatorSpec, SamplingGrid,
                       apply_cubic, decompose, dpss, materialize_cubic,
                       multiband_kernel, pp_entry, pp_materialize, sinc_kernel,
                       spectrum, spectrum_values, vec)
from mdprolate.prolate import (_apply, _axis_table, _boxes, _demodulate,
                               _dense_product, _gather, _hermitian, _pivot_scale,
                               _table)

import oracles
import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
BOX_3D = CubicBandUnion(centers=[[0.0, 0.1, -0.1], [0.3, -0.3, 0.25]],
                        half_widths=[[0.1, 0.08, 0.12], [0.05, 0.07, 0.1]])
PP_BANDS = (ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1)),
            ParallelepipedBand(1.3, -0.4, 0.2, 0.9, (0.05, 0.07), (0.25, -0.2)))


def _sin_ratio(x):
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, np.sin(safe) / safe)


def _hermitize(a):
    return (a + a.conj().T) / 2.0


def ref_band_kernel(n, f_c, w):
    """Un-averaged n x n kernel of one band, built entrywise."""
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    base = 2.0 * w * _sin_ratio(2.0 * np.pi * w * diff)
    if f_c == 0.0:
        return base.astype(complex)
    return np.exp(2j * np.pi * f_c * diff) * base


def ref_cubic(dims, union):
    """Band-sum of ``kron(B_{N_{d-1}}, ..., B_{N_0})``."""
    total = int(np.prod(dims))
    acc = np.zeros((total, total), dtype=complex)
    for c, w in zip(union.centers, union.half_widths):
        factors = [_hermitize(ref_band_kernel(n, c[ax], w[ax]))
                   for ax, n in enumerate(dims)]
        term = factors[-1]
        for fac in factors[-2::-1]:
            term = np.kron(term, fac)
        acc += term
    return _hermitize(acc)


def ref_multiband(n, union):
    acc = np.zeros((n, n), dtype=complex)
    for c, w in zip(union.centers[:, 0], union.half_widths[:, 0]):
        acc += ref_band_kernel(n, c, w)
    return _hermitize(acc)


def ref_pp(dims, bands):
    """Every entry from ``pp_entry`` on first-axis-fastest sample indices."""
    m, n = dims
    flat = np.arange(m * n)
    i0, i1 = flat % m, flat // m
    acc = np.zeros((m * n, m * n), dtype=complex)
    for band in bands:
        acc += pp_entry(band, i0[:, None], i1[:, None], i0[None, :], i1[None, :])
    return _hermitize(acc)


@pytest.mark.parametrize("dims, union", [
    ((8, 8), README),
    ((5, 7), README),
    ((4, 5, 6), BOX_3D),
    ((64,), CubicBandUnion.from_intervals(pinned.REF_INTERVALS)),
], ids=["readme-8x8", "readme-5x7", "box-4x5x6", "two-band-n64"])
def test_cubic_gather_is_bitwise_reference(dims, union):
    cov = materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=union))
    assert np.array_equal(cov.matrix, ref_cubic(dims, union))


def test_multiband_kernel_is_bitwise_reference():
    union = CubicBandUnion.from_intervals(pinned.REF_INTERVALS)
    assert np.array_equal(multiband_kernel(64, union), ref_multiband(64, union))


@pytest.mark.parametrize("n, f_c, w", [(6, 0.0, 0.1), (64, 0.2, 0.05),
                                       (33, -0.13, 0.11)])
def test_sinc_kernel_is_bitwise_reference(n, f_c, w):
    kernel = sinc_kernel(n, f_c, w)
    assert np.array_equal(kernel, _hermitize(ref_band_kernel(n, f_c, w)))
    assert np.array_equal(kernel, kernel.conj().T)


def test_dpss_eigenvalues_are_bitwise_reference():
    kernel = _hermitize(ref_band_kernel(64, 0.0, 0.05)).real
    expected = np.sort(np.linalg.eigh(kernel)[0])
    assert np.array_equal(np.sort(dpss(64, 0.05).eigenvalues), expected)


def test_pp_gather_is_bitwise_reference():
    spec = PPOperatorSpec(grid=SamplingGrid((9, 7)), bands=PP_BANDS)
    assert np.array_equal(pp_materialize(spec).matrix, ref_pp((9, 7), PP_BANDS))


def _rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("dims, union", [((8, 8), README), ((5, 7), README),
                                         ((4, 5, 6), BOX_3D)],
                         ids=["readme-8x8", "readme-5x7", "box-4x5x6"])
def test_cubic_apply_matches_dense(dims, union):
    spec = OperatorSpec(grid=SamplingGrid(dims), bands=union)
    matrix = materialize_cubic(spec).matrix
    rng = np.random.default_rng(4)
    for _ in range(5):
        y = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        assert _rel_err(vec(apply_cubic(spec, y)), matrix @ vec(y)) <= 1e-12


def test_pp_apply_matches_dense():
    spec = PPOperatorSpec(grid=SamplingGrid((9, 7)), bands=PP_BANDS)
    matrix = pp_materialize(spec).matrix
    table = _table(spec._band_set())
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
        assert _rel_err(vec(_apply(table, y)), matrix @ vec(y)) <= 1e-12


BANDED_TABLES = {
    "sinc-real-n512": lambda: _hermitian(_axis_table(512, 0.0, 0.1)),
    "two-band-n511": lambda: _table(_boxes(
        (511,), CubicBandUnion.from_intervals(pinned.REF_INTERVALS))),
    "readme-32x32": lambda: _table(_boxes((32, 32), README)),
    "readme-real-41x39": lambda: _demodulate(_boxes((41, 39), README)).table,
    "pp-9x7": lambda: _table(
        PPOperatorSpec(grid=SamplingGrid((9, 7)), bands=PP_BANDS)._band_set()),
    "box-4x5x6": lambda: _table(_boxes((4, 5, 6), BOX_3D)),
    "box-12x12x12": lambda: _table(_boxes((12, 12, 12), BOX_3D)),
}


@pytest.mark.parametrize("columns", [1, 3, 4], ids=["k1", "k3", "k4-real"])
@pytest.mark.parametrize("name", list(BANDED_TABLES))
def test_banded_product_matches_the_gathered_product(name, columns):
    """verify's dense reference, formed a band of rows at a time, against
    the product with the gathered matrix; real and complex tables, one or
    several right-hand sides, real or complex."""
    table = BANDED_TABLES[name]()
    n = int(np.prod([(s + 1) // 2 for s in table.shape]))
    rng = np.random.default_rng(columns)
    v = rng.standard_normal((n, columns))
    if columns != 4:
        v = v + 1j * rng.standard_normal((n, columns))
    got, want = _dense_product(table, v), _gather(table) @ v
    assert got.shape == want.shape and got.dtype == want.dtype
    for g, w in zip(got.T, want.T):
        assert _rel_err(g, w) <= 1e-14


REDUCED = {
    "readme-8x8": lambda: materialize_cubic(
        OperatorSpec(grid=SamplingGrid((8, 8)), bands=README)),
    "readme-5x7": lambda: materialize_cubic(
        OperatorSpec(grid=SamplingGrid((5, 7)), bands=README)),
    "box-4x5x6": lambda: materialize_cubic(
        OperatorSpec(grid=SamplingGrid((4, 5, 6)), bands=BOX_3D)),
    "pp-9x7": lambda: pp_materialize(
        PPOperatorSpec(grid=SamplingGrid((9, 7)), bands=PP_BANDS)),
    "two-band-n65": lambda: materialize_cubic(OperatorSpec(
        grid=SamplingGrid((65,)),
        bands=CubicBandUnion.from_intervals(pinned.REF_INTERVALS))),
    "sinc-n64": lambda: DenseCovariance(matrix=sinc_kernel(64, 0.2, 0.05),
                                        dims=(64,), spec=None),
}


def _pair_errors(a, vals, vecs):
    """Largest entries of ``A V - V diag(vals)`` and ``V^H V - I``."""
    resid = np.max(np.abs(a @ vecs - vecs * vals))
    ortho = np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1])))
    return resid, ortho


@pytest.mark.parametrize("name", list(REDUCED))
def test_reduced_eigenvalues_match_complex_solve(name):
    cov = REDUCED[name]()
    assert oracles.centro_hermitian(cov.matrix)
    expected = np.linalg.eigvalsh(cov.matrix)[::-1]
    assert np.max(np.abs(spectrum_values(cov) - expected)) <= 1e-13


@pytest.mark.parametrize("name", list(REDUCED))
def test_reduced_eigenpairs_are_orthonormal_eigenpairs(name):
    cov = REDUCED[name]()
    sp = spectrum(cov)
    one = decompose(cov.matrix)
    for vals, v in ((sp.eigenvalues, np.stack([vec(t) for t in sp.tensors], axis=1)),
                    (one.eigenvalues, one.eigenvectors)):
        resid, ortho = _pair_errors(cov.matrix, vals, v)
        assert resid <= 1e-12 and ortho <= 1e-12


def _fix_phases(vecs):
    """Columns of ``vecs`` with the solver's pivot phase convention."""
    return vecs * _pivot_scale(vecs.T)


def test_non_centro_hermitian_input_takes_the_complex_solve():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    a = x + x.conj().T
    assert not oracles.centro_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    sp = decompose(a)
    assert np.array_equal(sp.eigenvalues, vals[::-1])
    assert np.array_equal(sp.eigenvectors, _fix_phases(vecs[:, ::-1]))


@pytest.mark.parametrize("name", list(REDUCED))
@pytest.mark.parametrize("where", ["corner", "middle"])
def test_one_entry_perturbation_breaks_the_structure(name, where):
    a = REDUCED[name]().matrix.copy()
    n = a.shape[0]
    if where == "corner":
        a[n - 1, 0] += 1e-12
    else:
        a[n // 2, n // 2] += 1e-12j
    assert not oracles.centro_hermitian(a)
