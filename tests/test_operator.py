import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdprolate import (CubicBandUnion, OperatorSpec, SamplingGrid, SizeCapError,
                       apply_cubic, dpss, ivec, materialize_cubic,
                       separable_eigenvalues, separable_spectrum, spectrum,
                       spectrum_values, trace_frobenius_gap, transition_count,
                       vec)
from mdprolate.operator import gap_bound

import oracles
import pinned
from conftest import random_cubic_union


@pytest.fixture(scope="module")
def ref_cov_8(ref_spec_8):
    return materialize_cubic(ref_spec_8)


@pytest.fixture(scope="module")
def ref_spectrum_8(ref_cov_8):
    return spectrum(ref_cov_8)


def full_square_spec(size=6):
    bands = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.5, 0.5]])
    return OperatorSpec(grid=SamplingGrid((size, size)), bands=bands)


def test_vec_outer_product_identity():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(5)
    v = rng.standard_normal(4)
    np.testing.assert_allclose(vec(np.outer(u, v)), np.kron(v, u), atol=1e-15)
    y = rng.standard_normal((5, 4))
    np.testing.assert_allclose(ivec(vec(y), (5, 4)), y, atol=0)


def test_full_band_apply_is_identity():
    spec = full_square_spec()
    rng = np.random.default_rng(0)
    y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.testing.assert_allclose(apply_cubic(spec, y), y, atol=1e-13)


def test_full_band_materialization_is_identity():
    cov = materialize_cubic(full_square_spec())
    np.testing.assert_allclose(cov.matrix, np.eye(36), atol=1e-13)
    lam = spectrum(cov).eigenvalues
    np.testing.assert_allclose(lam, 1.0, atol=1e-12)


def test_separable_outer_product_is_eigen():
    band = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.08]])
    spec = OperatorSpec(grid=SamplingGrid((10, 12)), bands=band)
    s0, s1 = dpss(10, 0.1), dpss(12, 0.08)
    y = np.outer(s0.eigenvectors[:, 0], s1.eigenvectors[:, 0])
    expected = s0.eigenvalues[0] * s1.eigenvalues[0] * y
    np.testing.assert_allclose(apply_cubic(spec, y), expected, atol=1e-10)


def test_apply_matches_materialization(ref_spec_8, ref_cov_8):
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        via_apply = vec(apply_cubic(ref_spec_8, y))
        via_dense = ref_cov_8.matrix @ vec(y)
        rel = np.linalg.norm(via_apply - via_dense) / np.linalg.norm(via_dense)
        assert rel <= 1e-10


def test_apply_shape_mismatch(ref_spec_8):
    with pytest.raises(ValueError, match="shape"):
        apply_cubic(ref_spec_8, np.zeros((4, 4)))


def test_spec_dim_mismatch(ref_union_2d):
    with pytest.raises(ValueError):
        OperatorSpec(grid=SamplingGrid((8,)), bands=ref_union_2d)


def test_spec_rejects_analog_bands():
    analog = CubicBandUnion([[10.0, 10.0]], [[5.0, 5.0]], analog=True)
    with pytest.raises(ValueError, match="digital"):
        OperatorSpec(grid=SamplingGrid((8, 8)), bands=analog)


def test_materialization_trace_identity(ref_cov_8, ref_union_2d):
    expected = 64 * ref_union_2d.measure()
    assert ref_cov_8.trace() == pytest.approx(expected, rel=1e-10)


def test_size_cap():
    bands = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.1]])
    spec = OperatorSpec(grid=SamplingGrid((80, 80)), bands=bands)
    with pytest.raises(SizeCapError, match="apply_cubic"):
        materialize_cubic(spec)


def test_kronecker_eigenvalues_are_products():
    band = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.07]])
    spec = OperatorSpec(grid=SamplingGrid((8, 8)), bands=band)
    lam = spectrum(materialize_cubic(spec)).eigenvalues
    prods = separable_eigenvalues(8, 8, band)
    np.testing.assert_allclose(lam, prods, atol=1e-9)


def test_spectrum_range_and_orthonormality(ref_spectrum_8):
    lam = ref_spectrum_8.eigenvalues
    assert lam.min() > -1e-10 and lam.max() < 1 + 1e-10
    flat = ref_spectrum_8.tensors.reshape(64, -1)
    gram = flat.conj() @ flat.T
    np.testing.assert_allclose(gram, np.eye(64), atol=1e-9)


def test_spectrum_matches_entrywise_oracle(ref_spectrum_8, ref_union_2d):
    pairs = [(ref_union_2d.centers[i], ref_union_2d.half_widths[i])
             for i in range(ref_union_2d.num_bands)]
    oracle = oracles.entrywise_cubic_covariance(8, 8, pairs)
    olam, _ = oracles.eigh_descending(oracle)
    np.testing.assert_allclose(ref_spectrum_8.eigenvalues, olam, atol=1e-9)


def test_separable_spectrum_matches_dense():
    band = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.12, 0.05]])
    spec = OperatorSpec(grid=SamplingGrid((9, 7)), bands=band)
    dense = spectrum(materialize_cubic(spec)).eigenvalues
    sep = separable_spectrum(9, 7, band)
    np.testing.assert_allclose(sep.eigenvalues, dense, atol=1e-9)
    norms = np.linalg.norm(sep.tensors.reshape(63, -1), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_separable_modulation_leaves_eigenvalues():
    base = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.06, 0.09]])
    shifted = CubicBandUnion(centers=[[0.22, -0.18]], half_widths=[[0.06, 0.09]])
    a = separable_spectrum(11, 13, base)
    b = separable_spectrum(11, 13, shifted)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=0)


@pytest.mark.parametrize("band", [
    CubicBandUnion(centers=pinned.REF_2D_CENTERS, half_widths=pinned.REF_2D_HALF_WIDTHS),
    CubicBandUnion(centers=[[0.1]], half_widths=[[0.05]]),
], ids=["two-bands", "1-D"])
def test_separable_route_needs_one_2d_band(band):
    with pytest.raises(ValueError, match="exactly one 2-D band"):
        separable_eigenvalues(8, 8, band)


def test_modulated_separable_eigen_relation():
    band = CubicBandUnion(centers=[[0.2, -0.15]], half_widths=[[0.05, 0.08]])
    spec = OperatorSpec(grid=SamplingGrid((12, 10)), bands=band)
    sep = separable_spectrum(12, 10, band)
    for k in (0, 1, 7, 40, 119):
        t = sep.tensors[k]
        resid = apply_cubic(spec, t) - sep.eigenvalues[k] * t
        assert np.linalg.norm(resid) <= 1e-9


def test_transition_count_edges():
    assert transition_count(np.ones(5), 0.05) == 0
    assert transition_count(np.array([0.5]), 0.3) == 1
    with pytest.raises(ValueError):
        transition_count(np.array([0.1, 0.9]), 0.05)


def test_transition_counts_pinned_and_scaling(ref_union_2d):
    norm = lambda s: s * np.log(s) + s * np.log(s)
    ratios = []
    for size in (16, 32, 64):
        spec = OperatorSpec(grid=SamplingGrid((size, size)), bands=ref_union_2d)
        lam = spectrum_values(materialize_cubic(spec))
        count = transition_count(lam, 0.05)
        assert count == pinned.TRANSITION_CUBIC_J2[size]
        assert count <= size * size - int(np.floor(size * size
                                                   * ref_union_2d.measure()))
        ratios.append(count / norm(size))
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt <= prev * pinned.SCALING_SLACK


def test_near_one_plateau_calibrated(ref_union_2d):
    for size in (32,):
        spec = OperatorSpec(grid=SamplingGrid((size, size)), bands=ref_union_2d)
        lam = spectrum_values(materialize_cubic(spec))
        count = int(np.sum(lam > 0.95))
        assert count == pinned.NEAR_ONE_COUNTS[size]
        floor = int(np.floor(size * size * ref_union_2d.measure()
                             * pinned.NEAR_ONE_FLOOR_FACTOR))
        assert count >= floor


def test_gap_full_band_zero():
    rep = trace_frobenius_gap(materialize_cubic(full_square_spec()))
    assert abs(rep.gap) <= 1e-10


def test_gap_equals_eigenvalue_identity(ref_cov_8, ref_spectrum_8):
    rep = trace_frobenius_gap(ref_cov_8)
    lam = ref_spectrum_8.eigenvalues
    assert rep.gap == pytest.approx(float(np.sum(lam * (1 - lam))), abs=1e-8)


def test_gap_pinned_at_32(ref_spec_32):
    rep = trace_frobenius_gap(materialize_cubic(ref_spec_32))
    assert rep.gap == pytest.approx(pinned.GAP_32_TWO_BANDS, rel=1e-9)
    assert rep.gap <= gap_bound((32, 32), 2)


def test_oned_gap_bound_is_the_per_band_lemma():
    """In 1-D the bound is J (4 / pi^2)(3 + ln n), the per-band lemma the
    bound in d axes rests on: J sum_j g(n_j) prod_{i != j} n_i with g(n) =
    (4 / pi^2)(3 + ln n), so M J g(N) + N J g(M) in 2-D."""
    def g(n):
        return 4.0 / np.pi**2 * (3.0 + np.log(n))
    for n, j in ((8, 1), (256, 2), (4096, 3)):
        assert gap_bound((n,), j) == pytest.approx(j * g(n), rel=1e-15)
    assert gap_bound((24, 40), 2) == pytest.approx(2 * (24 * g(40) + 40 * g(24)),
                                                   rel=1e-15)
    assert gap_bound((4, 5, 6), 3) == pytest.approx(
        3 * (30 * g(4) + 24 * g(5) + 20 * g(6)), rel=1e-15)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_trace_frobenius_gap_holds_in_every_dimension(dim, num_bands, seed):
    """Every box union, on any number of axes, stays under the bound that
    ``trace_frobenius_gap`` enforces: it returns, never raises."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(n) for n in rng.integers(2, int(4096 ** (1 / dim)) + 1,
                                              size=dim))
    bands = random_cubic_union(rng, dim, num_bands)
    rep = trace_frobenius_gap(materialize_cubic(
        OperatorSpec(grid=SamplingGrid(dims), bands=bands)))
    assert 0.0 <= rep.gap <= gap_bound(dims, num_bands)


@pytest.mark.parametrize("n", [8, 64, 512, 4096])
def test_oned_gap_stays_under_the_bound(ref_intervals, n):
    """The reference union's gap, from the table's trace and Frobenius norm
    alone (no eigensolve), against the 1-D bound; a bound linear in n
    would leave this ratio falling as 1 / n."""
    cov = materialize_cubic(OperatorSpec(grid=SamplingGrid((n,)),
                                         bands=ref_intervals))
    ratio = (cov.trace() - cov.frobenius_sq()) / gap_bound((n,), 2)
    assert 0.05 <= ratio <= 1.0


def test_gap_bound_violation_is_diagnosed():
    from mdprolate import DenseCovariance, VerificationError
    band = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.1, 0.1]])
    spec = OperatorSpec(grid=SamplingGrid((32, 32)), bands=band)
    # gap MN/4 = 256 for a constant-half diagonal; the J=1 bound is ~168
    fake = DenseCovariance(matrix=np.eye(1024, dtype=complex) * 0.5,
                           dims=(32, 32), spec=spec)
    with pytest.raises(VerificationError, match="bound"):
        trace_frobenius_gap(fake)


def test_three_axis_materialization():
    bands = CubicBandUnion(centers=[[0.0, 0.1, -0.1]],
                           half_widths=[[0.1, 0.08, 0.12]])
    spec = OperatorSpec(grid=SamplingGrid((4, 5, 6)), bands=bands)
    cov = materialize_cubic(spec)
    assert cov.size == 120
    lam = spectrum_values(cov)
    assert lam.sum() == pytest.approx(120 * bands.measure(), rel=1e-9)
    assert lam.min() > -1e-10 and lam.max() < 1 + 1e-10
    prods = np.sort(np.einsum(
        "i,j,k->ijk",
        dpss(4, 0.1).eigenvalues,
        dpss(5, 0.08).eigenvalues,
        dpss(6, 0.12).eigenvalues).ravel())[::-1]
    np.testing.assert_allclose(lam, prods, atol=1e-9)


def test_spectrum_tensors_match_vec_ordering(ref_cov_8, ref_spectrum_8):
    # tensors must diagonalize the dense matrix under the same vec layout
    k = 3
    t = ref_spectrum_8.tensors[k]
    out = ivec(ref_cov_8.matrix @ vec(t), (8, 8))
    np.testing.assert_allclose(out, ref_spectrum_8.eigenvalues[k] * t, atol=1e-10)
