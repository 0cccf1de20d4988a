"""Spectra kept as the solver's eigenvector blocks.

``spectrum`` keeps the even/odd (or single) block eigenvectors with their
descending order, pivot factors and centre phase.  ``tensors`` and the
leading tensors ``build_phi`` reads are written from them on demand and
must be bitwise equal to the assembly below, the one ``_eigh`` used to run
eagerly: ``_rows`` times ``outer(scale, phase)``, a chunk at a time.
``combine`` forms linear combinations of the eigen-tensors from the blocks
directly and must match the product with the stack to roundoff, and the
Monte-Carlo and dictionary paths must never write the whole stack.
"""

import json
import tracemalloc

import numpy as np
import pytest

from mdprolate import (CubicBandUnion, DenseCovariance, OperatorSpec,
                       PPOperatorSpec, SamplingGrid, approx_mse, build_phi,
                       default_config, materialize_cubic, orthonormalize,
                       pp_materialize, separable_spectrum, spectrum, vec)
from mdprolate import _solver
from mdprolate.cli import main
from mdprolate.dictionary import SubspaceBasis
from mdprolate.operator import SpectrumND

import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
MIRROR_1D = CubicBandUnion(centers=[[-0.10], [0.20]], half_widths=[[0.05], [0.05]])
TWO_BOX_3D = CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                            half_widths=[[0.10, 0.10, 0.10]] * 2)
CENTRED = CubicBandUnion(centers=[[0.0, 0.0]], half_widths=[[0.2, 0.15]])
# No centre: the bands do not pair up as mirrors.
ASYMMETRIC = CubicBandUnion(
    centers=[[-0.25, -0.2], [0.2, 0.15], [0.1, -0.3]],
    half_widths=[[0.1, 0.08], [0.07, 0.1], [0.05, 0.06]])


def _cubic(dims, union=README):
    return materialize_cubic(OperatorSpec(grid=SamplingGrid(dims), bands=union))


def _hand_built(dims, seed):
    n = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return DenseCovariance((g + g.conj().T) / 2, dims=dims, spec=None)


def _gathered(dims, union):
    return DenseCovariance(_cubic(dims, union).matrix, dims=dims, spec=None)


def _off_centre_pp():
    bands = default_config().parallelepiped
    return pp_materialize(PPOperatorSpec(grid=SamplingGrid((16, 16)), bands=bands))


# name -> (covariance, (number of blocks, mapped, centre phase))
CASES = {
    "readme-9x7": (lambda: _cubic((9, 7)), (2, True, True)),
    "readme-32x32": (lambda: _cubic((32, 32)), (2, True, True)),
    "readme-41x39": (lambda: _cubic((41, 39)), (2, True, True)),
    "mirror-1d-256": (lambda: _cubic((256,), MIRROR_1D), (2, True, True)),
    "mirror-1d-65": (lambda: _cubic((65,), MIRROR_1D), (2, True, True)),
    "two-box-4x5x6": (lambda: _cubic((4, 5, 6), TWO_BOX_3D), (2, True, True)),
    "asymmetric-9x8": (lambda: _cubic((9, 8), ASYMMETRIC), (1, True, False)),
    "asymmetric-7x5": (lambda: _cubic((7, 5), ASYMMETRIC), (1, True, False)),
    # A box at the origin has a real table: split without a centre phase.
    "spec-none-centred-7x5": (lambda: _gathered((7, 5), CENTRED), (2, True, False)),
    "spec-none-readme-6x5": (lambda: _gathered((6, 5), README), (1, True, False)),
    "spec-none-hermitian-6x5": (lambda: _hand_built((6, 5), 3), (1, False, False)),
    "off-centre-pp-16x16": (_off_centre_pp, (2, True, True)),
}


def ref_rows(ws, sel, n, mapped):
    """Eigenvectors ``sel`` as vec-order rows, as ``_eigh`` mapped them
    back before it kept the blocks."""
    k, odd = n // 2, n % 2
    h = k + odd
    scale = 1.0 / np.sqrt(2.0)
    if len(ws) == 2:
        even = sel < h
        rows = np.zeros((sel.size, n))
        rows[even, :h] = ws[0].T[sel[even]]
        rows[~even, :k] = ws[1].T[sel[~even] - h]
        rows[:, :k] *= scale
        np.multiply(rows[:, :k][:, ::-1], np.where(even, 1.0, -1.0)[:, None],
                    out=rows[:, h:])
        return rows
    y = ws[0].T[sel]
    if not mapped:
        return y
    top, bot = y[:, :k], y[:, h:]
    v = np.empty(y.shape, dtype=complex)
    np.multiply(top, scale, out=v.real[:, :k])
    np.multiply(bot, scale, out=v.imag[:, :k])
    np.multiply(top[:, ::-1], scale, out=v.real[:, h:])
    np.multiply(bot[:, ::-1], -scale, out=v.imag[:, h:])
    if odd:
        v.real[:, k], v.imag[:, k] = y[:, k], 0.0
    return v


def ref_tensors(vectors):
    """The eager assembly: chunked rows, pivot factors from
    ``_pivot_scale``, times ``outer(scale, phase)``, written through a
    transposed view of one C-contiguous ``(n, *dims)`` array."""
    ws, order, mapped = vectors.blocks, vectors.order, vectors.reduced
    dims, phase = vectors.dims, vectors.phase
    n = order.size
    complex_out = mapped or np.iscomplexobj(ws[0])
    out = np.empty((n,) + dims, dtype=complex if complex_out else float)
    dest = out.transpose((0,) + tuple(range(len(dims), 0, -1)))
    step = max(1, (1 << 17) // n)
    for lo in range(0, n, step):
        sel = order[lo:lo + step]
        rows = ref_rows(ws, sel, n, mapped)
        scale = _solver._pivot_scale(rows, phase)
        if phase is None:
            factor = scale.reshape((-1,) + (1,) * len(dims))
        else:
            factor = np.multiply.outer(scale, phase.reshape(dims[::-1]))
        np.multiply(rows.reshape((sel.size,) + dims[::-1]), factor,
                    out=dest[lo:lo + sel.size])
    return out


@pytest.fixture(scope="module")
def solved():
    cache = {}

    def get(name):
        if name not in cache:
            cov = CASES[name][0]()
            cache[name] = cov, spectrum(cov)
        return cache[name]
    return get


@pytest.fixture
def no_tensors(monkeypatch):
    """Make the whole-stack materializer raise."""
    def refuse(self):
        raise AssertionError("the eigen-tensor stack was materialized")
    monkeypatch.setattr(SpectrumND, "tensors", property(refuse))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list(CASES))
def test_cases_cover_their_routes(name, solved):
    _, sp = solved(name)
    blocks, mapped, phased = CASES[name][1]
    vectors = sp._vectors
    assert len(vectors.blocks) == blocks
    assert vectors.reduced == mapped
    assert (vectors.phase is not None) == phased


@pytest.mark.parametrize("name", list(CASES))
def test_tensors_are_bitwise_the_reference_assembly(name, solved):
    _, sp = solved(name)
    ref = ref_tensors(sp._vectors)
    tensors = sp.tensors
    assert _same_bits(tensors, ref)
    assert tensors.flags.c_contiguous
    assert sp.tensors is tensors  # cached after the first read


@pytest.mark.parametrize("name", list(CASES))
def test_leading_tensors_are_bitwise_the_reference(name, solved, no_tensors):
    _, sp = solved(name)
    ref = ref_tensors(sp._vectors)
    for p in (0, 1, 7, sp.size // 2, sp.size):
        lead = sp.leading(p)
        assert _same_bits(lead, ref[:p])
        assert lead.flags.c_contiguous


@pytest.mark.parametrize("name", [n for n in CASES
                                  if n.startswith(("readme", "two-box", "mirror"))])
def test_build_phi_atoms_are_bitwise_the_reference(name, solved, no_tensors):
    cov, sp = solved(name)
    ref = ref_tensors(sp._vectors)
    p = min(40, sp.size)
    phi = build_phi(cov.spec, p, spec_spectrum=sp)
    assert len(phi) == p
    for k, atom in enumerate(phi.atoms):
        assert _same_bits(atom.tensor, ref[k])


def _unread(sp):
    """A spectrum over the same solved blocks with no pivot factor known."""
    v = sp._vectors
    return SpectrumND(sp.eigenvalues, vectors=_solver._Eigenvectors(
        v.blocks, v.order, v.dims, v.phase, v.orbits))


@pytest.mark.parametrize("name", list(CASES))
def test_pivot_factors_are_computed_for_the_vectors_read(name, solved):
    """``leading(p)`` computes the pivot factors of its p vectors only; the
    rest are filled in on the first ``combine``, bitwise equal to one
    eager pass over every vector, so the tensors and the combinations are
    bitwise what they were with eager factors."""
    _, sp = solved(name)
    v = sp._vectors
    eager = _solver._pivot_scale(v._rows(v.order), v.phase)
    rng = np.random.default_rng(4)
    c = rng.standard_normal((3, sp.size)) + 1j * rng.standard_normal((3, sp.size))
    full = _unread(sp)
    combined = full.combine(c)
    assert _same_bits(full._vectors.scale, eager)
    p = max(1, sp.size // 3)
    lazy = _unread(sp)
    lead = lazy.leading(p)
    assert lazy._vectors.scale.size == p
    assert _same_bits(lead, full.tensors[:p])
    assert _same_bits(lazy.combine(c), combined)
    assert _same_bits(lazy._vectors.scale, eager)


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("rows", [1, 5, 130])
def test_combine_matches_the_product_with_the_stack(name, rows, solved):
    _, sp = solved(name)
    ref_stack = ref_tensors(sp._vectors).reshape(sp.size, -1)
    rng = np.random.default_rng(rows)
    c = rng.standard_normal((rows, sp.size)) + 1j * rng.standard_normal((rows, sp.size))
    got = sp.combine(c)
    assert got.shape == (rows,) + sp.dims
    assert _rel_err(got.reshape(rows, -1), c @ ref_stack) <= 1e-13
    # Real coefficients take the same path.
    real = c.real.copy()
    assert _rel_err(sp.combine(real).reshape(rows, -1), real @ ref_stack) <= 1e-13


def _real_symmetric(dims, seed):
    n = int(np.prod(dims))
    g = np.random.default_rng(seed).standard_normal((n, n))
    return DenseCovariance((g + g.T) / 2, dims=dims, spec=None)


# name -> (covariance, number of solved blocks)
ZERO_ROW_CASES = {
    "j-split": (lambda: _cubic((9, 7)), 2),
    "four-characters": (lambda: _cubic((9, 7), CubicBandUnion(
        centers=[[0.1, -0.05]], half_widths=[[0.2, 0.15]])), 4),
    "coupled-r": (lambda: _cubic((9, 8), ASYMMETRIC), 1),
    "unreduced-complex": (lambda: _hand_built((6, 5), 3), 1),
    "unreduced-real": (lambda: _real_symmetric((6, 5), 5), 1),
}


@pytest.mark.parametrize("name", list(ZERO_ROW_CASES))
@pytest.mark.parametrize("zeros", ["none", "some", "all"])
def test_combine_skips_leading_zero_rows(name, zeros):
    """Coefficients that are exactly zero for the smallest eigenvalues (as
    a draw's weights are for eigenvalues <= 0) lead every block in block
    order; the products leave those rows out and still match the product
    with the stack."""
    cov, blocks = ZERO_ROW_CASES[name]
    sp = spectrum(cov())
    assert len(sp._vectors.blocks) == blocks
    rng = np.random.default_rng(6)
    c = rng.standard_normal((3, sp.size)) + 1j * rng.standard_normal((3, sp.size))
    cut = {"none": -np.inf, "some": np.median(sp.eigenvalues), "all": np.inf}[zeros]
    c[:, sp.eigenvalues <= cut] = 0.0
    got = sp.combine(c)
    ref = np.tensordot(c, sp.tensors, 1)
    if zeros == "all":
        assert not np.any(got)
    else:
        assert _rel_err(got, ref) <= 1e-13


def test_combine_on_a_spectrum_built_from_tensors():
    sp = separable_spectrum(9, 7, CubicBandUnion(centers=[[0.1, -0.05]],
                                                 half_widths=[[0.2, 0.15]]))
    rng = np.random.default_rng(2)
    c = rng.standard_normal((4, sp.size)) + 1j * rng.standard_normal((4, sp.size))
    assert _rel_err(sp.combine(c).reshape(4, -1),
                    c @ sp.tensors.reshape(sp.size, -1)) <= 1e-13
    assert np.shares_memory(sp.leading(5), sp.tensors)


def test_a_spectrum_needs_tensors_or_vectors():
    with pytest.raises(ValueError):
        SpectrumND(np.ones(2))


@pytest.mark.parametrize("name", ["readme-9x7", "mirror-1d-65", "off-centre-pp-16x16",
                                  "asymmetric-7x5"])
def test_approx_mse_never_materializes_the_stack(name, solved, no_tensors):
    cov, sp = solved(name)
    ref = ref_tensors(sp._vectors)
    basis = SubspaceBasis(q=np.linalg.qr(np.stack([vec(t) for t in ref[:6]], axis=1))[0],
                          dims=sp.dims, rank=6, tolerance=0.0)
    # A spectrum built from the stack forms its signals as plain products.
    expected = approx_mse(basis, cov.spec, 140, 9,
                          spec_spectrum=SpectrumND(sp.eigenvalues, tensors=ref))
    got = approx_mse(basis, cov.spec, 140, 9, spec_spectrum=sp)
    assert got.analytic_tail == expected.analytic_tail
    assert abs(got.empirical_mean - expected.empirical_mean) <= (
        1e-13 * expected.empirical_mean)


def test_cmd_dict_never_materializes_the_stack(no_tensors, tmp_path):
    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps({
        "dim": 2, "grid": [16, 16],
        "cubic": [{"center": c, "half_widths": w}
                  for c, w in zip(pinned.REF_2D_CENTERS, pinned.REF_2D_HALF_WIDTHS)],
    }))
    out = tmp_path / "out"
    assert main(["dict", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "dict_report.csv").exists()


def test_approx_at_32x32_stays_under_its_memory_bound():
    # The 1024 x 1024 complex eigen-tensor stack alone is 16.8 MB.  Measured
    # peak: 16.5 MB (the half-size blocks, the eigensolve, one block of
    # weights, signals and projections); the bound is 1.25 times that.
    cov = _cubic((32, 32))
    basis = orthonormalize(build_phi(cov.spec, 99))
    tracemalloc.start()
    try:
        approx_mse(basis, cov.spec, 256, 0, spec_spectrum=spectrum(cov))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20.6e6
