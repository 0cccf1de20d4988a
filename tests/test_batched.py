"""Batched numerical paths against the per-item loops they replaced.

Each reference below is the loop form: ``approx_mse`` as one
``sample_signal`` + ``project`` per trial, the pseudo-eigen residuals as
one ``apply_cubic`` per atom, the coherence check as a double loop over
atom pairs, the dict projection residual as one ``project`` per psi atom,
and the complex CSV writers as one ``format_float`` per cell.  Batched
products sum in a different order, so float results are compared at a
tolerance; the CSV bytes and the index tuples must match exactly.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, ParallelepipedBand,
                       PPOperatorSpec, SamplingGrid, apply_cubic, approx_mse,
                       build_phi, build_psi, cross_band_gram_violations,
                       materialize_cubic, orthonormalize, pp_materialize,
                       project, pseudo_eigen_residuals, sample_signal,
                       spectrum)
from mdprolate import dictionary
from mdprolate.cli import main
from mdprolate.dictionary import SubspaceBasis
from mdprolate.prolate import _apply, _boxes, _table
from mdprolate.reports import write_csv, write_eigenvectors_csv

import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
THREE_BANDS = CubicBandUnion(
    centers=[[-0.25, -0.2], [0.2, 0.15], [0.1, -0.3]],
    half_widths=[[0.1, 0.08], [0.07, 0.1], [0.05, 0.06]])


def _rel(a, b):
    return abs(a - b) / abs(b)


# --- approx_mse ------------------------------------------------------------

def ref_approx_mse(basis, spec, trials, seed, sp):
    total = 0.0
    for t in range(trials):
        x = sample_signal(spec, seed + t, spec_spectrum=sp)
        total += float(np.linalg.norm(x - project(basis, x)) ** 2)
    return total / trials


def _cubic_case(dims, union, p):
    spec = OperatorSpec(grid=SamplingGrid(dims), bands=union)
    sp = spectrum(materialize_cubic(spec))
    return spec, sp, orthonormalize(build_phi(spec, p, spec_spectrum=sp))


APPROX_CASES = {
    "readme-8x8": lambda: _cubic_case((8, 8), README, 8),
    "readme-5x7": lambda: _cubic_case((5, 7), README, 5),
    "oned-40": lambda: _cubic_case(
        (40,), CubicBandUnion.from_intervals(pinned.REF_INTERVALS), 9),
    "threed-4x5x3": lambda: _cubic_case(
        (4, 5, 3), CubicBandUnion(centers=[[0.0, 0.1, -0.1]],
                                  half_widths=[[0.2, 0.15, 0.25]]), 7),
}


def ref_weights(eigenvalues, seed):
    """One draw's coefficients as two size-P ``standard_normal`` calls."""
    rng = np.random.default_rng(seed)
    n = eigenvalues.size
    g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return np.sqrt(np.clip(eigenvalues, 0.0, None)) * g


def test_weights_match_two_half_draws():
    _, sp, _ = APPROX_CASES["readme-8x8"]()
    # Roundoff can leave tiny negative eigenvalues; the clip zeroes them.
    lam = np.concatenate([sp.eigenvalues, [-3e-17, 0.0]])
    roots = dictionary._roots(lam)
    for seed in range(300):
        assert np.array_equal(dictionary._weights(roots, seed),
                              ref_weights(lam, seed))


@pytest.mark.parametrize("case", ["readme-5x7", "oned-40"])
def test_approx_mse_draws_are_the_sample_signal_draws(case, monkeypatch):
    spec, sp, basis = APPROX_CASES[case]()
    drawn = {}
    weights = dictionary._weights

    def recording(roots, seed):
        drawn[seed] = weights(roots, seed)
        return drawn[seed]

    monkeypatch.setattr(dictionary, "_weights", recording)
    approx_mse(basis, spec, 130, 21, spec_spectrum=sp)
    assert sorted(drawn) == list(range(21, 151))
    for seed, w in drawn.items():
        assert np.array_equal(w, ref_weights(sp.eigenvalues, seed))
    x = sample_signal(spec, 40, spec_spectrum=sp)
    assert np.array_equal(x, sp.combine(drawn[40][None])[0])
    # The eigen-tensor product sums in another order.
    ref = np.tensordot(drawn[40], sp.tensors, axes=(0, 0))
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_one_draw_writes_no_eigen_tensor():
    spec, sp, _ = _cubic_case((32, 32), README, 1)
    tracemalloc.start()
    try:
        x = sample_signal(spec, 3, spec_spectrum=sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (32, 32)
    # The signal is 16 KB; the stack of 1024 eigen-tensors would be 16.8 MB.
    assert peak < 4 << 20


@pytest.mark.parametrize("trials", [1, 129, 300])
def test_approx_mse_matches_loop_across_blocks(trials):
    assert dictionary._TRIAL_BLOCK <= 128
    spec, sp, basis = APPROX_CASES["readme-8x8"]()
    rep = approx_mse(basis, spec, trials, 11, spec_spectrum=sp)
    assert _rel(rep.empirical_mean,
                ref_approx_mse(basis, spec, trials, 11, sp)) <= 1e-12
    assert rep.analytic_tail == float(np.sum(sp.eigenvalues[basis.rank:]))


@pytest.mark.parametrize("case", list(APPROX_CASES))
def test_approx_mse_matches_loop_on_other_grids(case):
    spec, sp, basis = APPROX_CASES[case]()
    rep = approx_mse(basis, spec, 140, 3, spec_spectrum=sp)
    assert _rel(rep.empirical_mean,
                ref_approx_mse(basis, spec, 140, 3, sp)) <= 1e-12


def test_approx_mse_rank_zero_basis():
    spec, sp, _ = APPROX_CASES["readme-5x7"]()
    basis = SubspaceBasis(q=np.zeros((35, 0), dtype=complex), dims=(5, 7),
                          rank=0, tolerance=0.0)
    rep = approx_mse(basis, spec, 130, 5, spec_spectrum=sp)
    assert _rel(rep.empirical_mean, ref_approx_mse(basis, spec, 130, 5, sp)) <= 1e-12
    assert rep.analytic_tail == float(np.sum(sp.eigenvalues))


def test_approx_mse_parallelepiped_spec():
    band = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1))
    spec = PPOperatorSpec(grid=SamplingGrid((9, 7)), bands=(band,))
    sp = spectrum(pp_materialize(spec))
    basis = orthonormalize(build_phi(
        OperatorSpec(grid=SamplingGrid((9, 7)), bands=README), 6))
    rep = approx_mse(basis, spec, 150, 8)
    assert _rel(rep.empirical_mean, ref_approx_mse(basis, spec, 150, 8, sp)) <= 1e-12


def test_approx_loop_fits_in_the_eigenvector_bytes():
    """The loop's block-sized scratch, at 129 trials more than one block,
    stays within the 8 n^2 bytes of n real eigenvectors of length n."""
    spec, sp, basis = _cubic_case((32, 32), README, 100)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        approx_mse(basis, spec, 129, 4, spec_spectrum=sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 8 * sp.size ** 2


def test_approx_mse_rejects_mismatched_basis():
    spec, sp, _ = APPROX_CASES["readme-8x8"]()
    _, _, basis = APPROX_CASES["readme-5x7"]()
    with pytest.raises(ValueError, match="does not match basis dims"):
        approx_mse(basis, spec, 3, 0, spec_spectrum=sp)


# --- pseudo-eigen residuals, the batched apply, coherence ------------------

def ref_pseudo_eigen_residuals(spec, d):
    rows = np.empty((len(d.atoms), 2))
    for idx, atom in enumerate(d.atoms):
        lam = atom.eigenvalue
        resid = apply_cubic(spec, atom.tensor) - lam * atom.tensor
        rows[idx, 0] = np.linalg.norm(resid) ** 2
        rows[idx, 1] = 1.0 - lam * lam
    return rows


@pytest.mark.parametrize("block_bytes", [1 << 24, 1 << 19, 3 * 16 * 23 * 27])
def test_pseudo_eigen_residuals_match_loop(block_bytes, monkeypatch):
    monkeypatch.setattr(dictionary, "_APPLY_BLOCK_BYTES", block_bytes)
    spec = OperatorSpec(grid=SamplingGrid((12, 14)), bands=THREE_BANDS)
    psi = build_psi(spec, [9, 7, 5])
    got, ref = pseudo_eigen_residuals(spec, psi), ref_pseudo_eigen_residuals(spec, psi)
    assert got.shape == (21, 2)
    np.testing.assert_array_equal(got[:, 1], ref[:, 1])
    np.testing.assert_allclose(got[:, 0], ref[:, 0], rtol=1e-12, atol=1e-14)


def test_batched_apply_matches_single_apply():
    rng = np.random.default_rng(4)
    for dims, union in (((6, 5), README), ((40,), CubicBandUnion(
            centers=[[0.1]], half_widths=[[0.2]]))):
        table = _table(_boxes(dims, union))
        y = rng.standard_normal((2, 3) + dims) + 1j * rng.standard_normal((2, 3) + dims)
        out = _apply(table, y)
        assert out.shape == y.shape
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(out[i, j], _apply(table, y[i, j]),
                                           rtol=0, atol=1e-14)


def ref_gram_violations(d, slack=1e-12):
    gram = np.abs(d.gram())
    out = []
    for i, ai in enumerate(d.atoms):
        for j in range(i + 1, len(d.atoms)):
            aj = d.atoms[j]
            if ai.band == aj.band:
                continue
            bound = 3.0 * np.sqrt(max(1.0 - min(ai.eigenvalue, aj.eigenvalue), 0.0))
            if gram[i, j] > bound + slack:
                out.append((i, j, float(gram[i, j]), float(bound)))
    return out


@pytest.mark.parametrize("slack", [1e-12, -2.0, -2.7, -2.9, -10.0])
def test_cross_band_gram_violations_match_loop(slack):
    spec = OperatorSpec(grid=SamplingGrid((10, 9)), bands=THREE_BANDS)
    psi = build_psi(spec, [6, 4, 5])
    got = cross_band_gram_violations(psi, slack=slack)
    assert got == ref_gram_violations(psi, slack=slack)
    assert all(type(i) is int and type(j) is int for i, j, _, _ in got)
    if slack == -10.0:
        assert len(got) == 6 * 4 + 6 * 5 + 4 * 5


def test_cross_band_gram_violations_single_band_labels():
    spec = OperatorSpec(grid=SamplingGrid((8, 8)), bands=README)
    phi = build_phi(spec, 5)
    assert cross_band_gram_violations(phi, slack=-10.0) == []
    assert ref_gram_violations(phi, slack=-10.0) == []


# --- dict projection residual ----------------------------------------------

def test_dict_projection_residual_matches_loop(tmp_path):
    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps({
        "dim": 2,
        "cubic": [{"center": c, "half_widths": w}
                  for c, w in zip(pinned.REF_2D_CENTERS, pinned.REF_2D_HALF_WIDTHS)],
        "grid": [16, 16]}))
    out = tmp_path / "out"
    assert main(["dict", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    rows = json.loads((out / "dict_report.json").read_text())
    (row,) = [r for r in rows if r["metric"] == "max_projection_residual_sq"]
    params = dict(kv.split("=") for kv in row["params"].split(";"))
    spec = OperatorSpec(grid=SamplingGrid((16, 16)), bands=README)
    basis = orthonormalize(build_phi(spec, int(params["p"])))
    psi = build_psi(spec, [int(v) for v in params["q"].split(",")])
    ref = max(float(np.linalg.norm(a.tensor - project(basis, a.tensor)) ** 2)
              for a in psi.atoms)
    assert _rel(row["value"], ref) <= 1e-13


# --- complex CSV writers ---------------------------------------------------

def ref_eigenvectors_csv(path, vectors):
    vectors = np.asarray(vectors)
    n, k = vectors.shape
    header = ["index"]
    for j in range(k):
        header += [f"v{j:03d}_re", f"v{j:03d}_im"]
    rows = []
    for i in range(n):
        row = [i]
        for j in range(k):
            z = complex(vectors[i, j])
            row += [z.real, z.imag]
        rows.append(row)
    write_csv(path, header, rows)


def _edge_matrix():
    rng = np.random.default_rng(9)
    exps = rng.integers(-300, 300, size=(32, 32))
    a = (rng.standard_normal((32, 32)) * 10.0 ** exps
         + 1j * rng.standard_normal((32, 32)) * 10.0 ** -exps)
    a[0, :8] = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308,
                0.1, 1 / 3]
    a[1, :4] = [complex(-0.0, -0.0), complex(0.0, -0.0), 12345.0, -2.0 ** -52]
    a[2, :3] = [1e16, 1e17, 123456789012345678.0]
    return a


MATRICES = {
    "edges-32x32": _edge_matrix,
    "real": lambda: np.array([[-0.0, 2.5, -1e-310], [3.0, 1e22, -7.0]]),
    "no-rows": lambda: np.zeros((0, 3), dtype=complex),
    "no-columns": lambda: np.zeros((4, 0), dtype=complex),
    "complex64": lambda: (np.arange(6).reshape(2, 3) / 7 + 1j / 3).astype(np.complex64),
}


@pytest.mark.parametrize("name", list(MATRICES))
def test_complex_csv_bytes_match_per_cell_writer(name, tmp_path):
    a = MATRICES[name]()
    write_eigenvectors_csv(tmp_path / "fast.csv", a)
    ref_eigenvectors_csv(tmp_path / "ref.csv", a)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_complex_csv_rejects_non_finite_before_writing(bad, part, tmp_path):
    a = _edge_matrix()
    a[5, 7] = complex(bad, 1.0) if part == "real" else complex(1.0, bad)
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"non-finite value {bad!r}"):
        write_eigenvectors_csv(path, a)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
