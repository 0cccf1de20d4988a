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
"""

import weakref

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec, SamplingGrid,
                       build_phi, materialize_cubic, spectrum)
from mdprolate import prolate
from mdprolate.cli import main
from mdprolate.operator import _decompose

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
