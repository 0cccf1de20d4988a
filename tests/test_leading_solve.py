"""Solves that keep only the leading eigenvectors, and pivots read from the
orbit representatives.

``build_phi`` without a spectrum solves through ``_eigh(..., leading=p)``:
each block's eigenvectors are cut, right after that block is solved, to the
columns whose eigenvalue is at least the block's min(p, m)-th largest.  The
atoms must be bitwise those of a full ``spectrum``, the full array must be
freed before the next block is solved, and nothing may read past the cut.

``_Eigenvectors._scale`` finds each vector's pivot among its orbit
representatives alone; its factors must be bitwise ``_pivot_scale`` of the
full vec-order rows, on every route.

``approx``, and ``sample_signal``/``approx_mse`` when they solve for
themselves, cut each block to the columns of positive eigenvalues and its
leading p (``operator._draw_spectrum``): a draw's weight is exactly zero
for the others.  Their draws must be bitwise those of a full ``spectrum``,
and ``combine`` must refuse a nonzero coefficient of a dropped vector.
"""

import weakref

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec, SamplingGrid,
                       approx_mse, build_phi, materialize_cubic, sample_signal,
                       spectrum)
from mdprolate import cli, prolate
from mdprolate.cli import _phi_basis, main
from mdprolate.operator import _decompose, _draw_spectrum

import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
MIRROR_1D = CubicBandUnion(centers=[[-0.10], [0.20]], half_widths=[[0.05], [0.05]])
TWO_BOX_3D = CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                            half_widths=[[0.10, 0.10, 0.10]] * 2)
BOX_3D = CubicBandUnion(centers=[[0.1, -0.05, 0.2]], half_widths=[[0.2, 0.15, 0.1]])
# No centre: solved as one coupled block R.
ASYMMETRIC = CubicBandUnion(
    centers=[[-0.25, -0.2], [0.2, 0.15], [0.1, -0.3]],
    half_widths=[[0.1, 0.08], [0.07, 0.1], [0.05, 0.06]])


def _spec(dims, union):
    return OperatorSpec(grid=SamplingGrid(dims), bands=union)


def _real_symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return DenseCovariance((g + g.T) / 2, dims=(n,), spec=None)


# name -> (covariance, |G| of the solve or None when unreduced, coupled)
CASES = {
    "mirror-1d-256": (lambda: materialize_cubic(_spec((256,), MIRROR_1D)), 2, False),
    "mirror-1d-65": (lambda: materialize_cubic(_spec((65,), MIRROR_1D)), 2, False),
    "readme-32x32": (lambda: materialize_cubic(_spec((32, 32), README)), 2, False),
    "readme-31x33": (lambda: materialize_cubic(_spec((31, 33), README)), 2, False),
    "two-box-12x12x12": (lambda: materialize_cubic(_spec((12, 12, 12), TWO_BOX_3D)),
                         4, False),
    "box-7x6x5": (lambda: materialize_cubic(_spec((7, 6, 5), BOX_3D)), 8, False),
    "asymmetric-32x32": (lambda: materialize_cubic(_spec((32, 32), ASYMMETRIC)),
                         2, True),
    "real-symmetric-90": (lambda: _real_symmetric(90, 5), None, False),
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def covariance():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = CASES[name][0]()
        return cache[name]
    return get


@pytest.mark.parametrize("leading", [None, 37], ids=["full", "cut"])
@pytest.mark.parametrize("name", list(CASES))
def test_pivots_from_representatives_are_those_of_the_rows(name, leading, covariance):
    _, v = _decompose(covariance(name), True, leading)
    _, size, coupled = CASES[name]
    assert (None if v.orbits is None else len(v.orbits.chars)) == size
    assert v.coupled == coupled
    assert v.kept == (v.n if leading is None else leading)
    for sel in v._chunks(v.kept):
        assert _same_bits(v._scale(sel), prolate._pivot_scale(v._rows(sel), v.phase))
    assert _same_bits(v.pivots(v.kept),
                      prolate._pivot_scale(v._rows(v.order[:v.kept]), v.phase))


@pytest.mark.parametrize("name", ["readme-32x32", "two-box-12x12x12",
                                  "asymmetric-32x32", "real-symmetric-90"])
@pytest.mark.parametrize("p", [0, 1, 37])
def test_a_cut_solve_keeps_the_leading_p_columns_of_each_block(name, p, covariance):
    vals, v = _decompose(covariance(name), True, p)
    full_vals, full = _decompose(covariance(name), True)
    assert _same_bits(vals, full_vals)
    assert vals.size == v.n
    for w, u, dropped in zip(v.blocks, full.blocks, v.dropped):
        assert w.shape[1] == min(p, u.shape[1])  # no exact tie at these cuts
        assert dropped == u.shape[1] - w.shape[1]
        assert _same_bits(w, u[:, dropped:])
    assert _same_bits(v.tensors(p), full.tensors(p))


@pytest.mark.parametrize("name,dims,union", [
    ("readme-32x32", (32, 32), README),
    ("asymmetric-32x32", (32, 32), ASYMMETRIC),
    ("readme-31x33", (31, 33), README),
])
def test_build_phi_atoms_are_bitwise_those_of_a_full_spectrum(name, dims, union):
    spec = _spec(dims, union)
    sp = spectrum(materialize_cubic(spec))
    for p in (0, 1, 100, 333):
        cut = build_phi(spec, p)
        full = build_phi(spec, p, spec_spectrum=sp)
        assert len(cut) == len(full) == p
        for a, b in zip(cut.atoms, full.atoms):
            assert _same_bits(a.tensor, b.tensor)
            assert (a.eigenvalue, a.rank) == (b.eigenvalue, b.rank)


@pytest.fixture
def eigh_liveness(monkeypatch):
    """For each ``np.linalg.eigh`` call, whether the eigenvector arrays the
    earlier calls returned are still alive when it starts."""
    solve, refs, alive = np.linalg.eigh, [], []

    def watched(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        result = solve(*args, **kwargs)
        refs.append(weakref.ref(result.eigenvectors))
        return result

    monkeypatch.setattr(np.linalg, "eigh", watched)
    return alive


def test_the_first_blocks_full_vectors_are_freed_before_the_second_solve(
        eigh_liveness):
    phi = build_phi(_spec((32, 32), README), 100)
    assert len(phi) == 100
    assert eigh_liveness == [[], [False]]


def test_cmd_dict_solves_for_the_leading_vectors(eigh_liveness, tmp_path):
    cfg = tmp_path / "bands.json"
    cfg.write_text('{"dim": 2, "grid": [32, 32], "cubic": ['
                   '{"center": [-0.15, -0.10], "half_widths": [0.10, 0.10]},'
                   '{"center": [0.20, 0.15], "half_widths": [0.10, 0.10]}]}')
    assert main(["dict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    # The operator's two blocks, then psi's 1-D solves.
    assert eigh_liveness[:2] == [[], [False]]


def test_an_exact_tie_at_the_cut_is_kept_whole():
    values = np.array([0.9, 0.7, 0.3, 0.7, 0.1, 0.7, 0.5, 0.2])
    order = np.random.default_rng(2).permutation(values.size)
    a = np.diag(values[order])
    vals, full = prolate._eigh(a, True)
    assert np.array_equal(vals, np.sort(values)[::-1])  # the tie is exact
    for p in (2, 3):  # cuts inside the tie of three 0.7s
        cut_vals, cut = prolate._eigh(a, True, leading=p)
        assert _same_bits(cut_vals, vals)
        assert cut.blocks[0].shape[1] == 4
        assert cut.dropped == [values.size - 4]
        assert _same_bits(cut.tensors(p), full.tensors(p))


def test_a_cut_spectrum_refuses_to_read_past_the_cut(covariance):
    _, v = _decompose(covariance("readme-32x32"), True, 10)
    assert v.tensors(10).shape == (10, 32, 32)
    c = np.ones((1, v.n))
    for read in (v.tensors, lambda: v.tensors(11), lambda: v.combine(c)):
        with pytest.raises(ValueError, match="only the leading 10 of 1024"):
            read()


BOX_2D = CubicBandUnion(centers=[[0.1, -0.05]], half_widths=[[0.2, 0.15]])
# Mirror centres but unequal shapes: no centre, one coupled block R.
TWO_BOX_NO_CENTRE = CubicBandUnion(centers=[[-0.25, -0.2], [0.2, 0.15]],
                                   half_widths=[[0.1, 0.08], [0.07, 0.1]])

# name -> (spec, |G| of the solve, coupled)
DRAW_CASES = {
    "readme-32x32": (_spec((32, 32), README), 2, False),
    "box-32x32": (_spec((32, 32), BOX_2D), 4, False),
    # Every eigenvalue is positive at 6^3; 49 are not at 10^3.
    "two-box-6x6x6": (_spec((6, 6, 6), TWO_BOX_3D), 4, False),
    "two-box-10x10x10": (_spec((10, 10, 10), TWO_BOX_3D), 4, False),
    "no-centre-32x32": (_spec((32, 32), TWO_BOX_NO_CENTRE), 2, True),
    "mirror-1d-512": (_spec((512,), MIRROR_1D), 2, False),
}


@pytest.fixture(scope="module")
def full_spectrum():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = spectrum(materialize_cubic(DRAW_CASES[name][0]))
        return cache[name]
    return get


@pytest.mark.parametrize("name", list(DRAW_CASES))
def test_a_draw_solve_keeps_the_positive_columns_of_each_block(name, full_spectrum):
    spec, size, coupled = DRAW_CASES[name]
    full = full_spectrum(name)
    cut = _draw_spectrum(materialize_cubic(spec))
    v, u = cut._vectors, full._vectors
    assert (len(v.orbits.chars), v.coupled) == (size, coupled)
    assert _same_bits(cut.eigenvalues, full.eigenvalues)
    positive = int(np.count_nonzero(full.eigenvalues > 0))
    assert v.kept == positive
    assert sum(v.dropped) == v.n - positive
    for w, w_full, dropped in zip(v.blocks, u.blocks, v.dropped):
        assert _same_bits(w, w_full[:, dropped:])
    if positive < v.n:
        with pytest.raises(ValueError, match=f"only the leading {positive} of"):
            cut.tensors


@pytest.mark.parametrize("name", list(DRAW_CASES))
def test_draws_on_a_cut_spectrum_are_bitwise_those_of_a_full_one(name, full_spectrum):
    spec = DRAW_CASES[name][0]
    full = full_spectrum(name)
    for seed in (0, 7):
        assert _same_bits(sample_signal(spec, seed),
                          sample_signal(spec, seed, spec_spectrum=full))
    p = full.size // 5
    basis = _phi_basis(build_phi(spec, p, spec_spectrum=full))
    assert (approx_mse(basis, spec, 100, 3)
            == approx_mse(basis, spec, 100, 3, spec_spectrum=full))


@pytest.mark.parametrize("name", ["readme-32x32", "no-centre-32x32"])
def test_phi_past_the_positive_count_is_read_from_the_draw_solve(name, full_spectrum):
    spec = DRAW_CASES[name][0]
    full = full_spectrum(name)
    positive = int(np.count_nonzero(full.eigenvalues > 0))
    for p in (0, 100, positive + 50, full.size):
        cut = _draw_spectrum(materialize_cubic(spec), p)
        assert cut._vectors.kept == max(p, positive)
        assert _same_bits(cut.leading(p), full.leading(p))
        c = np.zeros((1, full.size), dtype=complex)
        c[0, :max(p, positive)] = 1.0
        assert _same_bits(cut.combine(c), full.combine(c))


def test_combine_refuses_a_nonzero_coefficient_of_a_dropped_vector(full_spectrum):
    cut = _draw_spectrum(materialize_cubic(DRAW_CASES["readme-32x32"][0]))
    v = cut._vectors
    c = np.zeros((2, v.n), dtype=complex)
    c[:, :v.kept] = 1.0
    assert cut.combine(c).shape == (2, 32, 32)
    for r in (v.kept, v.n - 1):
        bad = c.copy()
        bad[1, r] = 1e-300j
        with pytest.raises(ValueError, match=f"only the leading {v.kept} of 1024"):
            cut.combine(bad)


def test_combine_on_a_cut_unreduced_complex_block():
    """A hand-built complex matrix with no table is one complex block; a
    cut of it combines its kept columns with the matching rows."""
    g = np.random.default_rng(4).standard_normal((2, 40, 40))
    a = g[0] + 1j * g[1]
    cov = DenseCovariance((a + a.conj().T) / 2, dims=(40,), spec=None)
    cut, full = _draw_spectrum(cov, 3), spectrum(cov)
    v = cut._vectors
    assert v.orbits is None and np.iscomplexobj(v.blocks[0])
    assert 0 < v.dropped[0] == v.n - v.kept
    c = np.random.default_rng(5).standard_normal((3, v.n)) + 0j
    c[:, v.kept:] = 0.0
    assert np.allclose(cut.combine(c), full.combine(c), rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", ["0", "900"])
def test_cmd_approx_writes_the_bytes_of_a_full_spectrum(p, tmp_path, monkeypatch):
    """``--p 900`` is past README 32x32's 754 positive eigenvalues."""
    cfg = tmp_path / "bands.json"
    cfg.write_text('{"dim": 2, "grid": [32, 32], "cubic": ['
                   '{"center": [-0.15, -0.10], "half_widths": [0.10, 0.10]},'
                   '{"center": [0.20, 0.15], "half_widths": [0.10, 0.10]}]}')
    argv = ["approx", "--config", str(cfg), "--trials", "150", "--p", p]
    assert main(argv + ["--out", str(tmp_path / "cut")]) == 0
    monkeypatch.setattr(cli, "_draw_spectrum", lambda cov, p: spectrum(cov))
    assert main(argv + ["--out", str(tmp_path / "full")]) == 0
    cut, full = (tmp_path / side / "approx_report.csv" for side in ("cut", "full"))
    assert cut.read_bytes() == full.read_bytes()


def test_cmd_approx_frees_the_first_blocks_full_vectors(eigh_liveness, tmp_path):
    cfg = tmp_path / "bands.json"
    cfg.write_text('{"dim": 2, "grid": [32, 32], "cubic": ['
                   '{"center": [-0.15, -0.10], "half_widths": [0.10, 0.10]},'
                   '{"center": [0.20, 0.15], "half_widths": [0.10, 0.10]}]}')
    assert main(["approx", "--config", str(cfg), "--trials", "10",
                 "--out", str(tmp_path / "o")]) == 0
    assert eigh_liveness == [[], [False]]
