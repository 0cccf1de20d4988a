import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, PPOperatorSpec,
                       SamplingGrid, approx_mse, build_phi, build_psi,
                       cross_band_gram_violations, materialize_cubic,
                       orthonormalize, pp_materialize, project,
                       pseudo_eigen_residuals, sample_signal, separable_spectrum,
                       spectrum, subspace_cos_theta, vec)
from mdprolate.dictionary import Atom, Dictionary, SubspaceBasis


@pytest.fixture(scope="module")
def spec8(ref_union_2d):
    return OperatorSpec(grid=SamplingGrid((8, 8)), bands=ref_union_2d)


@pytest.fixture(scope="module")
def spectrum8(spec8):
    return spectrum(materialize_cubic(spec8))


def test_phi_complete_set_is_orthonormal(spec8, spectrum8):
    d = build_phi(spec8, 64, spec_spectrum=spectrum8)
    np.testing.assert_allclose(d.gram(), np.eye(64), atol=1e-9)
    for atom in d.atoms:
        assert abs(np.linalg.norm(atom.tensor) - 1) <= 1e-12


def test_phi_single_band_span_matches_separable():
    band = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.11, 0.07]])
    spec = OperatorSpec(grid=SamplingGrid((8, 8)), bands=band)
    p = 6  # eigenvalue gap at this cut is ~2e-2, far above solver noise
    phi = build_phi(spec, p)
    sep = separable_spectrum(8, 8, band)
    sep_basis = SubspaceBasis(
        q=np.column_stack([vec(sep.tensors[k]) for k in range(p)]),
        dims=(8, 8), rank=p, tolerance=0.0)
    assert subspace_cos_theta(orthonormalize(phi), sep_basis) >= 1 - 1e-8


def test_psi_within_band_gram_identity(spec8):
    psi = build_psi(spec8, 10)
    g = psi.gram()
    for i, ai in enumerate(psi.atoms):
        for j, aj in enumerate(psi.atoms):
            if ai.band == aj.band:
                expected = 1.0 if i == j else 0.0
                assert abs(g[i, j] - expected) <= 1e-9


def test_psi_ordering_by_eigenvalue_product(spec8):
    psi = build_psi(spec8, 12)
    per_band = {}
    for atom in psi.atoms:
        per_band.setdefault(atom.band, []).append(atom.eigenvalue)
    for values in per_band.values():
        assert values == sorted(values, reverse=True)


def test_psi_cross_band_bound_and_residuals(ref_spec_32):
    counts = [32, 32]
    psi = build_psi(ref_spec_32, counts)
    assert cross_band_gram_violations(psi) == []
    rows = pseudo_eigen_residuals(ref_spec_32, psi)
    assert np.all(rows[:, 0] <= rows[:, 1] + 1e-8)


def test_psi_autocheck_runs_at_large_sizes(ref_union_2d):
    spec = OperatorSpec(grid=SamplingGrid((128, 128)), bands=ref_union_2d)
    psi = build_psi(spec, 2)  # coherence auto-check engages at this size
    assert len(psi.atoms) == 4


def test_an_empty_psi_dictionary_stacks_and_checks(ref_union_2d):
    """Zero atoms at a size where the coherence auto-check engages: an
    (MN, 0) complex stack, an empty Gram matrix and no violations."""
    spec = OperatorSpec(grid=SamplingGrid((128, 128)), bands=ref_union_2d)
    psi = build_psi(spec, 0)
    assert len(psi) == 0
    stacked = psi.stacked()
    assert (stacked.shape, stacked.dtype) == ((128 * 128, 0), np.complex128)
    assert psi.gram().shape == (0, 0)
    assert cross_band_gram_violations(psi) == []


def test_orthonormalize_ranks(spec8, spectrum8):
    phi = build_phi(spec8, 10, spec_spectrum=spectrum8)
    assert orthonormalize(phi).rank == 10
    doubled = type(phi)(atoms=phi.atoms + phi.atoms[:1], grid=phi.grid,
                        bands=phi.bands, source=phi.source)
    assert orthonormalize(doubled).rank == 10


def test_orthonormalize_empty_errors(spec8, spectrum8):
    empty = build_phi(spec8, 0, spec_spectrum=spectrum8)
    with pytest.raises(ValueError, match="empty"):
        orthonormalize(empty)


def test_project_in_span_and_orthogonal(spec8, spectrum8):
    basis = orthonormalize(build_phi(spec8, 12, spec_spectrum=spectrum8))
    inside = spectrum8.tensors[4]
    np.testing.assert_allclose(project(basis, inside), inside, atol=1e-10)
    outside = spectrum8.tensors[40]
    assert np.linalg.norm(project(basis, outside)) <= 1e-10


def test_project_idempotent_self_adjoint(spec8, spectrum8):
    basis = orthonormalize(build_phi(spec8, 9, spec_spectrum=spectrum8))
    rng = np.random.default_rng(21)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    px = project(basis, x)
    np.testing.assert_allclose(project(basis, px), px, atol=1e-10)
    lhs = np.vdot(y, px)
    rhs = np.vdot(project(basis, y), x)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12


def test_cos_theta_self_and_orthogonal(spec8, spectrum8):
    phi = build_phi(spec8, 8, spec_spectrum=spectrum8)
    assert subspace_cos_theta(phi, phi) >= 1 - 1e-10
    top = orthonormalize(build_phi(spec8, 5, spec_spectrum=spectrum8))
    rest = SubspaceBasis(
        q=np.column_stack([vec(spectrum8.tensors[k]) for k in range(5, 12)]),
        dims=(8, 8), rank=7, tolerance=0.0)
    assert subspace_cos_theta(top, rest) <= 1e-10


def test_cos_theta_of_a_rank_0_basis_is_1(spec8, spectrum8):
    """The empty span lies in every span, the containment case."""
    from mdprolate.cli import _phi_basis
    empty = _phi_basis(build_phi(spec8, 0, spec_spectrum=spectrum8))
    assert (empty.rank, empty.q.shape) == (0, (64, 0))
    psi = build_psi(spec8, [3, 3])
    assert subspace_cos_theta(empty, psi) == 1.0
    assert subspace_cos_theta(psi, empty) == 1.0
    zero = orthonormalize(Dictionary(
        atoms=(Atom(tensor=np.zeros((8, 8)), source="phi", eigenvalue=0.0),),
        grid=spec8.grid, bands=spec8.bands, source="phi"))
    assert zero.rank == 0
    assert subspace_cos_theta(empty, zero) == 1.0


def test_pseudo_eigen_residuals_form_the_transfer_once(monkeypatch):
    """Rows bitwise those of one ``_apply(table, y)`` per batch, with the
    transfer formed once per call, not once per batch."""
    from mdprolate import dictionary
    from mdprolate.prolate import _apply, _table
    spec = OperatorSpec(grid=SamplingGrid((32, 32)), bands=CubicBandUnion(
        centers=[[-0.15, -0.10], [0.20, 0.15]], half_widths=[[0.10, 0.10]] * 2))
    psi = build_psi(spec, [40, 40])
    table = _table(spec._band_set())
    block = max(1, dictionary._APPLY_BLOCK_BYTES // (16 * table.size))
    assert len(psi) > 2 * block
    want = np.empty(len(psi))
    for start in range(0, len(psi), block):
        atoms = psi.atoms[start:start + block]
        y = np.stack([a.tensor for a in atoms])
        lam = np.array([a.eigenvalue for a in atoms])[:, None, None]
        want[start:start + len(y)] = np.linalg.norm(
            (_apply(table, y) - lam * y).reshape(len(y), -1), axis=1) ** 2
    calls = []
    transfer = dictionary._transfer
    monkeypatch.setattr(dictionary, "_transfer",
                        lambda t: calls.append(1) or transfer(t))
    rows = pseudo_eigen_residuals(spec, psi)
    assert calls == [1]
    assert rows[:, 0].tobytes() == want.tobytes()


def test_cos_theta_single_band_phi_equals_psi():
    band = CubicBandUnion(centers=[[0.15, -0.2]], half_widths=[[0.08, 0.1]])
    spec = OperatorSpec(grid=SamplingGrid((10, 10)), bands=band)
    p = 7  # clear gap for this band shape
    phi = build_phi(spec, p)
    psi = build_psi(spec, p)
    assert subspace_cos_theta(phi, psi) >= 1 - 1e-8


def test_sample_signal_seed_repeatable(spec8, spectrum8):
    a = sample_signal(spec8, 123, spec_spectrum=spectrum8)
    b = sample_signal(spec8, 123, spec_spectrum=spectrum8)
    assert np.array_equal(a, b)
    c = sample_signal(spec8, 124, spec_spectrum=spectrum8)
    assert not np.array_equal(a, c)


def test_sample_signal_mean_energy(spec8, spectrum8):
    expected = float(np.sum(spectrum8.eigenvalues))
    total = 0.0
    for t in range(2000):
        x = sample_signal(spec8, 5000 + t, spec_spectrum=spectrum8)
        total += np.linalg.norm(x) ** 2
    assert total / 2000 == pytest.approx(expected, rel=0.05)


def test_sample_signal_parallelepiped(matched_pp_band):
    spec = PPOperatorSpec(grid=SamplingGrid((8, 8)), bands=(matched_pp_band,))
    sp = spectrum(pp_materialize(spec))
    x = sample_signal(spec, 3, spec_spectrum=sp)
    assert x.shape == (8, 8)
    total = sum(np.linalg.norm(sample_signal(spec, 100 + t, spec_spectrum=sp)) ** 2
                for t in range(800)) / 800
    assert total == pytest.approx(float(np.sum(sp.eigenvalues)), rel=0.1)


def test_approx_mse_complete_basis(spec8, spectrum8):
    basis = orthonormalize(build_phi(spec8, 64, spec_spectrum=spectrum8))
    rep = approx_mse(basis, spec8, 10, 42, spec_spectrum=spectrum8)
    assert rep.analytic_tail <= 1e-9
    assert rep.empirical_mean <= 1e-9


def test_approx_mse_zero_rank_tail(spec8, spectrum8, ref_union_2d):
    basis = SubspaceBasis(q=np.zeros((64, 0), dtype=complex), dims=(8, 8),
                          rank=0, tolerance=0.0)
    rep = approx_mse(basis, spec8, 5, 42, spec_spectrum=spectrum8)
    assert rep.analytic_tail == pytest.approx(64 * ref_union_2d.measure(),
                                              rel=1e-9)


def _spec(dims, bands):
    return OperatorSpec(grid=SamplingGrid(dims), bands=bands)


CUBE = CubicBandUnion(centers=[[0.0, 0.0, 0.0]], half_widths=[[0.1, 0.1, 0.1]])


@pytest.mark.parametrize("call, message", [
    (lambda spec, sp: build_phi(spec, 65), "outside"),
    (lambda spec, sp: build_phi(spec, -1), "outside"),
    (lambda spec, sp: build_psi(_spec((4, 4, 4), CUBE), [1]), "2-D grids"),
    (lambda spec, sp: pseudo_eigen_residuals(
        spec, build_psi(_spec((6, 6), spec.bands), [1, 1])), "does not match grid"),
    (lambda spec, sp: subspace_cos_theta(
        build_phi(spec, 4, spec_spectrum=sp), build_phi(_spec((6, 6), spec.bands), 4)),
     "different grids"),
    (lambda spec, sp: approx_mse(orthonormalize(build_phi(spec, 4, spec_spectrum=sp)),
                                 spec, 0, 1, spec_spectrum=sp), "trials"),
], ids=["phi-p-past-grid", "phi-p-negative", "psi-on-3d", "residuals-wrong-shape",
        "cos-theta-across-grids", "approx-no-trials"])
def test_malformed_library_calls_are_rejected(call, message, spec8, spectrum8):
    with pytest.raises(ValueError, match=message):
        call(spec8, spectrum8)
