import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdprolate import (CubicBandUnion, cluster_counts, decompose, dpss,
                       modulate, multiband_kernel, sinc_kernel)
from mdprolate.operator import gap_bound

import oracles
import pinned


def test_kernel_diagonal_is_band_width():
    k = sinc_kernel(4, 0.0, 0.25)
    np.testing.assert_allclose(np.diag(k).real, 0.5, atol=1e-15)


def test_full_band_kernel_is_identity():
    k = sinc_kernel(12, 0.0, 0.5)
    np.testing.assert_allclose(k, np.eye(12), atol=1e-14)


def test_modulated_kernel_entry_closed_form():
    k = sinc_kernel(8, 0.25, 0.1)
    expected = -np.sin(0.4 * np.pi) / (2.0 * np.pi)
    assert k[2, 0].real == pytest.approx(expected, abs=1e-12)
    assert abs(k[2, 0].imag) < 1e-12
    assert k[2, 0].real == pytest.approx(-0.151365, abs=1e-6)


def test_kernel_out_of_range_band():
    with pytest.raises(ValueError):
        sinc_kernel(8, 0.45, 0.1)


def test_kernel_rejects_nan_center():
    # |NaN| + W > 1/2 is False, so a plain range test would let NaN through.
    with pytest.raises(ValueError):
        sinc_kernel(8, float("nan"), 0.1)


def test_kernel_hermitian_exact():
    k = sinc_kernel(32, 0.17, 0.08)
    assert np.array_equal(k, k.conj().T)


def test_multiband_trace(ref_intervals):
    k = multiband_kernel(256, ref_intervals)
    assert np.trace(k).real == pytest.approx(256 * 0.2, rel=1e-12)


def test_multiband_single_band_bitwise():
    u = CubicBandUnion(centers=[[0.2]], half_widths=[[0.07]])
    a = multiband_kernel(64, u)
    b = sinc_kernel(64, 0.2, 0.07)
    assert np.array_equal(a, b)


def test_multiband_entry_matches_quadrature(ref_intervals):
    k = multiband_kernel(16, ref_intervals)
    expected = oracles.quad_entry_1d(pinned.REF_INTERVALS, 3)
    assert abs(k[3, 0] - expected) < 1e-10


def test_multiband_rejects_2d_union(ref_union_2d):
    with pytest.raises(ValueError):
        multiband_kernel(16, ref_union_2d)


def test_dpss_trace_identity():
    sp = dpss(256, 0.1)
    assert sp.eigenvalues.sum() == pytest.approx(2 * 256 * 0.1, rel=1e-9)


def test_dpss_full_band_all_ones():
    sp = dpss(16, 0.5)
    np.testing.assert_allclose(sp.eigenvalues, 1.0, atol=1e-12)


def test_dpss_count_pinned():
    sp = dpss(256, 0.1)
    assert int(np.sum(sp.eigenvalues >= 0.5)) == pinned.DPSS_256_W01_COUNT_HALF


def test_dpss_eigenvalue_range_and_orthonormality():
    sp = dpss(128, 0.11)
    assert sp.eigenvalues.min() >= -1e-10
    assert sp.eigenvalues.max() <= 1 + 1e-10
    gram = sp.eigenvectors.T @ sp.eigenvectors
    np.testing.assert_allclose(gram, np.eye(128), atol=1e-9)


def test_dpss_matches_tridiagonal_oracle():
    # The tridiagonal operator commutes with the kernel, so its vectors are
    # kernel eigenvectors; near-degenerate leading eigenvalues make direct
    # vector comparison meaningless, the eigen-relation residual is not.
    sp = dpss(64, 0.1)
    kernel = sinc_kernel(64, 0.0, 0.1).real
    oracle = oracles.tridiagonal_dpss(64, 0.1, 6)
    for j in range(6):
        v = oracle[:, j]
        rayleigh = v @ kernel @ v
        assert np.linalg.norm(kernel @ v - rayleigh * v) <= 1e-9
        assert rayleigh == pytest.approx(sp.eigenvalues[j], abs=1e-9)


def test_dpss_sign_convention_deterministic():
    a = dpss(48, 0.09)
    b = dpss(48, 0.09)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    lead = np.argmax(np.abs(a.eigenvectors), axis=0)
    pivots = a.eigenvectors[lead, np.arange(48)]
    assert np.all(pivots > 0)


def test_bandpass_spectrum_equals_baseband():
    shifted = decompose(sinc_kernel(64, 0.2, 0.05)).eigenvalues
    base = decompose(sinc_kernel(64, 0.0, 0.05)).eigenvalues
    np.testing.assert_allclose(shifted, base, atol=1e-9)


@pytest.mark.parametrize("shape", [(0, 0), (3, 4), (3,), (2, 2, 2)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_decompose_rejects_a_kernel_that_is_not_a_square_matrix(shape, dtype):
    with pytest.raises(ValueError, match="non-empty square matrix"):
        decompose(np.zeros(shape, dtype=dtype))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_decompose_rejects_a_non_finite_kernel(entry, dtype):
    # Full of the entry, or with one: no NaN spectrum, no solver failure.
    for kernel in (np.full((4, 4), entry, dtype=dtype), np.eye(4, dtype=dtype)):
        kernel[1, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            decompose(kernel)


@pytest.mark.parametrize("build", [
    lambda n: sinc_kernel(n, 0.1, 0.05),
    lambda n: multiband_kernel(n, CubicBandUnion.from_intervals(pinned.REF_INTERVALS)),
    lambda n: dpss(n, 0.1).eigenvalues,
], ids=["sinc_kernel", "multiband_kernel", "dpss"])
def test_lengths_are_integers_of_at_least_one(build):
    for n in (4.5, 4.0, 0, -3, "4"):
        with pytest.raises(ValueError, match="integer >= 1"):
            build(n)
    # numpy integers are integers.
    assert np.array_equal(build(np.int64(6)), build(6))


def test_modulate_zero_frequency_identity():
    v = np.arange(5.0)
    np.testing.assert_allclose(modulate(v, 0.0), v, atol=0)


@given(st.floats(-0.5, 0.5))
@settings(max_examples=40, deadline=None)
def test_modulate_preserves_magnitudes(f_c):
    v = np.linspace(-1, 1, 17) + 1j * np.linspace(0.5, -0.3, 17)
    out = modulate(v, f_c)
    np.testing.assert_allclose(np.abs(out), np.abs(v), atol=1e-14)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-14)


def test_modulated_dpss_is_bandpass_eigenvector():
    sp = dpss(64, 0.05)
    k = sinc_kernel(64, 0.2, 0.05)
    v = modulate(sp.eigenvectors[:, 0], 0.2)
    resid = k @ v - sp.eigenvalues[0] * v
    assert np.linalg.norm(resid) <= 1e-10


def test_cluster_counts_all_ones():
    assert cluster_counts(np.ones(9), 0.05) == (9, 0, 0)


def test_cluster_counts_pinned_triple():
    sp = dpss(16, 0.25)
    assert tuple(cluster_counts(sp.eigenvalues, 0.05)) == \
        pinned.CLUSTER_TRIPLE_16_W025


def test_cluster_counts_boundary_half(ref_intervals):
    sp = decompose(multiband_kernel(256, ref_intervals))
    counts = cluster_counts(sp.eigenvalues, 0.5)
    assert abs(counts.near_one - 256 * 0.2) <= 2


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       st.floats(0.01, 0.5))
@settings(max_examples=60, deadline=None)
def test_cluster_counts_partition(values, eps):
    eigs = np.sort(np.asarray(values))[::-1]
    counts = cluster_counts(eigs, eps)
    assert sum(counts) == len(values)
    assert min(counts) >= 0


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.6])
def test_cluster_counts_requires_eps_in_range(eps):
    with pytest.raises(ValueError, match="eps must be in"):
        cluster_counts(np.array([0.9, 0.1]), eps)


def test_cluster_counts_requires_sorted():
    with pytest.raises(ValueError):
        cluster_counts(np.array([0.1, 0.9]), 0.05)


def test_trace_frobenius_log_bound_1d(ref_intervals):
    k = multiband_kernel(256, ref_intervals)
    gap = np.trace(k).real - np.vdot(k, k).real
    assert 0 <= gap <= gap_bound((256,), 2)


def test_gram_bound_across_bands_at_128():
    n, eps = 128, 0.2
    base = dpss(n, 0.1)
    s0 = modulate(base.eigenvectors, -0.15)
    s1 = modulate(base.eigenvectors, 0.20)
    k = int(np.floor(2 * n * 0.1 * (1 - eps)))
    lam = base.eigenvalues
    for i in range(k):
        for j in range(k):
            ip = abs(np.vdot(s0[:, i], s1[:, j]))
            bound = 3.0 * np.sqrt(max(1.0 - min(lam[i], lam[j]), 0.0))
            assert ip <= bound + 1e-12
