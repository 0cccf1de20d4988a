"""A real table's blocks are packed two lower triangles to an array.

The solver reads only the lower triangle of each block (``UPLO="L"``), so
``prolate._orbit_blocks`` writes nothing else: the blocks of characters 2p
and 2p + 1 share one ``(m + 1) x m`` array, m the larger size, one strictly
below its diagonal and the other, turned a half turn, on and above it.
Solving the packed views must give bit for bit the eigenvalues and
eigenvectors of the full blocks (``oracles.character_blocks``), on every
real-table route: J alone with even and odd n, |G| = 4 with unequal pair
sizes, a parallelogram, and the recentred table of the translation check.
"""

import tracemalloc

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, OperatorSpec, ParallelepipedBand,
                       PPOperatorSpec, SamplingGrid, materialize_cubic,
                       pp_materialize)
from mdprolate.prolate import (_boxes, _gather, _mirror_pairs, _orbit_blocks,
                               _orbits, _recentred, _table)

import oracles
import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
TWO_BOX_3D = CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                            half_widths=[[0.10, 0.10, 0.10]] * 2)
BOX = CubicBandUnion(centers=[[0.1, -0.05]], half_widths=[[0.2, 0.15]])
README_PP = ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1))


def _demodulated(cov):
    dm = cov.demodulated
    return dm.table, _orbits(cov.dims, dm.symmetries)


def _cubic(dims, union):
    return _demodulated(materialize_cubic(
        OperatorSpec(grid=SamplingGrid(dims), bands=union)))


def _recentred_shift(dims):
    """The real part of the README union's table, translated by (0.02,
    -0.02) and recentred to its centre, as the translation check solves it."""
    shifted = CubicBandUnion(README.centers + [0.02, -0.02], README.half_widths)
    bands = _boxes(dims, shifted)
    center, _ = _mirror_pairs(bands)
    table = np.ascontiguousarray(_recentred(_table(bands), center).real)
    return table, _orbits(dims, ())


# name -> () -> (real table, its orbits); with the block sizes in
# character order.
CASES = {
    "readme-40x40": (lambda: _cubic((40, 40), README), [800, 800]),
    "readme-41x39": (lambda: _cubic((41, 39), README), [800, 799]),
    "intervals-513": (lambda: _cubic((513,), CubicBandUnion.from_intervals(
        pinned.REF_INTERVALS)), [257, 256]),
    "two-box-12x12x12": (lambda: _cubic((12, 12, 12), TWO_BOX_3D),
                         [468, 396, 468, 396]),
    "box-9x7": (lambda: _cubic((9, 7), BOX), [20, 12, 15, 16]),
    "readme-pp-32x32": (lambda: _demodulated(pp_materialize(PPOperatorSpec(
        grid=SamplingGrid((32, 32)), bands=(README_PP,)))), [512, 512]),
    "recentred-shift-32x32": (lambda: _recentred_shift((32, 32)), [512, 512]),
}


@pytest.fixture(scope="module")
def filled():
    cache = {}

    def get(name):
        if name not in cache:
            table, orbits = CASES[name][0]()
            full = oracles.character_blocks(_gather(table), orbits.images,
                                            orbits.stab, orbits.keep)
            cache[name] = _orbit_blocks(table, orbits), full
        return cache[name]
    return get


@pytest.mark.parametrize("name", list(CASES))
def test_pairs_share_one_array(name, filled):
    packed, _ = filled(name)
    sizes = CASES[name][1]
    assert [b.shape for b in packed] == [(k, k) for k in sizes]
    bases = []
    for a, b, size_a, size_b in zip(packed[::2], packed[1::2], sizes[::2], sizes[1::2]):
        m = max(size_a, size_b)
        assert a.base is b.base and a.base.shape == (m + 1, m)
        bases.append(id(a.base))
    assert len(set(bases)) == len(bases)


@pytest.mark.parametrize("name", list(CASES))
def test_eigenvalues_are_bitwise_the_full_blocks(name, filled):
    packed, full = filled(name)
    for got, ref in zip(packed, full):
        assert (np.linalg.eigvalsh(got, UPLO="L").tobytes()
                == np.linalg.eigvalsh(ref).tobytes())


@pytest.mark.parametrize("name", list(CASES))
def test_eigenpairs_are_bitwise_the_full_blocks(name, filled):
    packed, full = filled(name)
    for got, ref in zip(packed, full):
        vals, vecs = np.linalg.eigh(got, UPLO="L")
        ref_vals, ref_vecs = np.linalg.eigh(ref)
        assert vals.tobytes() == ref_vals.tobytes()
        assert vecs.tobytes() == ref_vecs.tobytes()


def test_the_readme_fill_holds_about_one_block():
    """Two full 800-blocks take 10.24 MB; the packed pair is one 801 x 800
    array, and the fill's band buffers add about 0.4 MB."""
    table, orbits = CASES["readme-40x40"][0]()
    _orbit_blocks(table, orbits)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        blocks = _orbit_blocks(table, orbits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 2
    assert peak <= 0.55 * 2 * 800 * 800 * 8
