"""Table-backed operators split by every commuting axis symmetry.

Besides the point reflection J, a demodulated table may be invariant under
reversing single axes or swapping axes of equal length.  Those maps generate
a group G of commuting involutions, and ``spectrum``/``spectrum_values``
solve one real block per character of G, filled straight from the table.
The results must be true eigenpairs of the gathered matrix, with
eigenvalues matching its complex solve and every eigenvector of a definite
character, ``g (D^H v) = chi(g) D^H v`` for each g in G.  Sets with J alone
must get exactly the even and odd blocks the matrix route slices out.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, ParallelepipedBand,
                       PPOperatorSpec, SamplingGrid, materialize_cubic,
                       pp_materialize, spectrum, spectrum_values, vec)
from mdprolate import _tables
from mdprolate._solver import _orbit_blocks, _phase
from mdprolate._tables import _MIRROR_TOL, _gather, _orbits

import oracles
import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
# Offsets +-(0.175, 0.125, 0.125) from the centre: axes 1 and 2 swap.
TWO_BOX_3D = CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                            half_widths=[[0.10, 0.10, 0.10]] * 2)
BOX = CubicBandUnion(centers=[[0.1, -0.05]], half_widths=[[0.2, 0.15]])
F1, F2 = 0.2, 0.3


def _four_boxes(shift=0.0):
    """Boxes at (+-F1, +-F2); ``shift`` moves one mirror pair along axis 0."""
    return CubicBandUnion(
        centers=[[F1, F2], [-F1, -F2], [F1 + shift, -F2], [-F1 - shift, F2]],
        half_widths=[[0.05, 0.04]] * 4)


def _cubic(dims, union):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=union))


def _readme_pp(dims):
    band = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1))
    return pp_materialize(PPOperatorSpec(grid=SamplingGrid(dims), bands=(band,)))


def _reverse(axis):
    return lambda u: np.flip(u, axis=axis)


def _j(u):
    return u[(slice(None, None, -1),) * u.ndim]


# name -> (covariance, block sizes in character order, the maps of G's
# generators on tensors: J first, then the accepted axis maps)
CASES = {
    "two-box-12x12x12": (lambda: _cubic((12, 12, 12), TWO_BOX_3D),
                         [468, 396, 468, 396],
                         [_j, lambda u: u.transpose(0, 2, 1)]),
    "box-8x8": (lambda: _cubic((8, 8), BOX), [16] * 4, [_j, _reverse(0)]),
    "box-9x7": (lambda: _cubic((9, 7), BOX), [20, 12, 15, 16], [_j, _reverse(0)]),
    "four-box-48x40": (lambda: _cubic((48, 40), _four_boxes()), [480] * 4,
                       [_j, _reverse(0)]),
}


@pytest.fixture(scope="module")
def solved():
    cache = {}

    def get(name):
        if name not in cache:
            cov = CASES[name][0]()
            cache[name] = cov, spectrum(cov)
        return cache[name]
    return get


def _columns(tensors):
    return np.stack([vec(t) for t in tensors], axis=1)


@pytest.mark.parametrize("name", list(CASES))
def test_one_block_per_character(name, solver_sizes):
    cov = CASES[name][0]()
    lam = spectrum_values(cov)
    assert solver_sizes == CASES[name][1]
    expected = np.linalg.eigvalsh(cov.matrix)[::-1]
    assert np.all(np.diff(lam) <= 0.0)
    assert np.max(np.abs(lam - expected)) <= 1e-13


@pytest.mark.parametrize("name", list(CASES))
def test_eigenpairs_through_every_reader(name, solved):
    cov, sp = solved(name)
    v = _columns(sp.tensors)
    resid = np.max(np.abs(cov.matrix @ v - v * sp.eigenvalues))
    ortho = np.max(np.abs(v.conj().T @ v - np.eye(cov.size)))
    assert resid <= 1e-12 and ortho <= 1e-12
    for p in (1, 7, sp.size // 3):
        assert np.array_equal(sp.leading(p), sp.tensors[:p])
    # The identity coefficients give back every eigen-tensor.
    combined = _columns(sp.combine(np.eye(sp.size)))
    assert np.max(np.abs(combined - v)) <= 1e-12
    rng = np.random.default_rng(5)
    c = rng.standard_normal((3, sp.size)) + 1j * rng.standard_normal((3, sp.size))
    assert np.max(np.abs(_columns(sp.combine(c)) - v @ c.T)) <= 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_every_eigenvector_has_a_definite_character(name, solved):
    cov, sp = solved(name)
    _, sizes, maps = CASES[name]
    phase = _phase(cov.dims, cov.tables.solved.center).conj()
    base = np.stack([phase.reshape(cov.dims, order="F") * t for t in sp.tensors])
    signs = []
    for g in maps:
        moved = np.stack([g(u) for u in base])
        even = np.max(np.abs(moved - base), axis=tuple(range(1, base.ndim)))
        odd = np.max(np.abs(moved + base), axis=tuple(range(1, base.ndim)))
        assert np.max(np.minimum(even, odd)) <= 1e-12
        signs.append(odd < even)
    # Characters are numbered by their values on the generators, J the
    # highest bit: the counts per character are the block sizes.
    character = sum(s.astype(int) << (len(signs) - 1 - b) for b, s in enumerate(signs))
    assert np.bincount(character, minlength=len(sizes)).tolist() == sizes


@pytest.mark.parametrize("name", list(CASES))
def test_solved_table_is_exactly_invariant_and_close(name, monkeypatch):
    # The demodulated table before averaging, as _demodulate builds it.
    raw = []
    monkeypatch.setattr(_tables, "_axis_symmetries",
                        lambda table: (raw.append(table), (table, ()))[1])
    CASES[name][0]().tables.solved  # built on first read
    monkeypatch.undo()
    table, symmetries = _tables._axis_symmetries(raw[0])
    assert symmetries == CASES[name][0]().tables.solved.symmetries != ()
    for g in symmetries:
        moved = table[tuple(slice(None, None, -1 if f else 1) for f in g.flips)]
        assert np.array_equal(moved.transpose(g.perm), table)
    assert np.array_equal(_j(table), table)
    tol = _MIRROR_TOL * table[tuple((s - 1) // 2 for s in table.shape)]
    assert np.max(np.abs(table - raw[0])) <= len(symmetries) * tol


NEAR_MISSES = {
    # The second box is 8 tol off the swap of the first on axis 2.
    "swap-partner-off-by-8-tol": lambda: _cubic(
        (12, 12, 12), CubicBandUnion(
            centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15 + 8 * _MIRROR_TOL]],
            half_widths=[[0.10, 0.10, 0.10]] * 2)),
    # One mirror pair is 8 tol off the reversal of the other on axis 0.
    "reversal-partner-off-by-8-tol": lambda: _cubic(
        (48, 40), _four_boxes(8 * _MIRROR_TOL)),
}


@pytest.mark.parametrize("name", list(NEAR_MISSES))
def test_near_misses_keep_the_j_split(name, solver_sizes):
    cov = NEAR_MISSES[name]()
    spectrum_values(cov)
    assert cov.tables.solved.symmetries == ()
    assert solver_sizes == [cov.size // 2] * 2


def test_a_map_that_does_not_commute_is_skipped(solver_sizes):
    # A square box on a square grid is invariant under the axis swap too,
    # but the swap does not commute with the reversal of axis 0.
    cov = _cubic((8, 8), CubicBandUnion(centers=[[0.1, 0.1]], half_widths=[[0.2, 0.2]]))
    spectrum_values(cov)
    assert [(g.perm, g.flips) for g in cov.tables.solved.symmetries] == [
        ((0, 1), (True, False))]
    assert solver_sizes == [16] * 4


J_ONLY = {
    "readme-9x7": lambda: _cubic((9, 7), README),
    "readme-41x39": lambda: _cubic((41, 39), README),
    "readme-pp-9x7": lambda: _readme_pp((9, 7)),
}


@pytest.mark.parametrize("name", list(J_ONLY))
def test_j_only_blocks_are_the_matrix_slices_bit_for_bit(name):
    cov = J_ONLY[name]()
    dm = cov.tables.solved
    assert dm.symmetries == ()
    blocks = _orbit_blocks(dm.table, _orbits(cov.dims, ()))
    # The gathered matrix of the same real table.
    expected = oracles.matrix_blocks(_gather(dm.table))
    assert len(blocks) == len(expected) == 2
    for got, ref in zip(blocks, expected):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert oracles.completed(got, ref).tobytes() == ref.tobytes()
