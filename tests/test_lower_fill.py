"""Every real form is written below its diagonal only.

The solver reads only the lower triangle of what it solves (``UPLO="L"``),
so ``_solver._orbit_blocks`` writes nothing above the diagonal of the
coupled block R of a set without a centre or of a hand-built complex
matrix either: the coupling is written below it, from the same band of
rows, by the exact Hermitian symmetry of the operator.  A buffer handed
out NaN-filled must keep its NaN there, and the spectrum must not change.
A matrix that is centro-Hermitian but not exactly Hermitian lacks that
symmetry, and is solved as it is.
"""

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec,
                       SamplingGrid, materialize_cubic, sinc_kernel, spectrum,
                       spectrum_values)
from mdprolate import _solver, prolate

import oracles

# No centre: the bands do not pair up as mirrors.
ASYMMETRIC = CubicBandUnion(
    centers=[[-0.25, -0.2], [0.2, 0.15], [0.1, -0.3]],
    half_widths=[[0.1, 0.08], [0.07, 0.1], [0.05, 0.06]])


def _cubic(dims):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=ASYMMETRIC))


def _matrix(a):
    return DenseCovariance(np.array(a), dims=(len(a),))


# name -> (covariance, the number of blocks its real form has)
CASES = {
    "table-9x8": (lambda: _cubic((9, 8)), 1),
    "table-7x5": (lambda: _cubic((7, 5)), 1),
    "matrix-65": (lambda: _matrix(sinc_kernel(65, 0.2, 0.1)), 1),
    "matrix-64-zero-coupling": (lambda: _matrix(sinc_kernel(64, 0.0, 0.1)), 2),
}


@pytest.fixture
def poisoned(monkeypatch):
    """Float and complex ``np.empty`` results come NaN-filled while
    ``_orbit_blocks`` runs; the list of the blocks it returned."""
    filled, empty, fill = [], np.empty, _solver._orbit_blocks

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    def poisoned_fill(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(np, "empty", nan_empty)
            blocks = fill(*args, **kwargs)
        filled.append(blocks)
        return blocks
    monkeypatch.setattr(_solver, "_orbit_blocks", poisoned_fill)
    return filled


@pytest.mark.parametrize("name", list(CASES))
def test_nothing_is_written_above_the_diagonal(name, poisoned):
    make, count = CASES[name]
    clean_values, clean = spectrum_values(make()), spectrum(make()).tensors
    poisoned.clear()
    values, tensors = spectrum_values(make()), spectrum(make()).tensors
    assert len(poisoned) == 2
    for blocks in poisoned:
        assert len(blocks) == count
        for block in blocks:
            upper = np.triu_indices(len(block), 1)
            assert np.isnan(block[upper]).all()
            assert np.isfinite(np.tril(block)).all()
    assert values.tobytes() == clean_values.tobytes()
    assert tensors.tobytes() == clean.tobytes()


def test_a_matrix_that_is_not_hermitian_is_solved_as_it_is():
    """Centro-Hermitian, but its upper triangle is no mirror of its lower
    one: the real form would mix the two."""
    a = np.array(sinc_kernel(9, 0.2, 0.1))
    a[0, 2] += 0.01 + 0.02j
    a[8, 6] = np.conj(a[0, 2])
    assert oracles.centro_hermitian(a) and not prolate._hermitian_exactly(a)
    expected = np.linalg.eigvalsh(a, UPLO="L")[::-1]
    assert np.max(np.abs(spectrum_values(_matrix(a)) - expected)) <= 1e-14
