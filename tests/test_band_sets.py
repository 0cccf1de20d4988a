"""Every geometry is described once, as a band set, and built by one core.

The references are the per-geometry builders the band-set core replaced,
kept here inline: a table loop over boxes and one over parallelograms, and
the demodulation fed with each geometry's centres, shapes and terms.  The
core's tables and demodulated tables must match them bit for bit.  The
DPSS-product ranking is checked the same way against the three routines it
replaced, and the operator list against the names the CLI writes.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import mdprolate
from mdprolate import (BandConfig, CubicBandUnion, DenseCovariance, OperatorSpec,
                       ParallelepipedBand, PPOperatorSpec, SamplingGrid,
                       build_psi, cluster_counts, default_config, dpss,
                       materialize_cubic, modulate, pp_center_invariance,
                       pp_materialize, separable_eigenvalues, separable_spectrum,
                       transition_count, verify_config)
from mdprolate import verify
from mdprolate.parallelepiped import _operators, _pp_term
from mdprolate.prolate import (_MIRROR_TOL, _box_term, _boxes, _demodulate,
                               _hermitian, _table)

import pinned

README = CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                        half_widths=pinned.REF_2D_HALF_WIDTHS)
REF_1D = CubicBandUnion.from_intervals(pinned.REF_INTERVALS)
TWO_BOX_3D = CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                            half_widths=[[0.10, 0.10, 0.10]] * 2)
ASYMMETRIC = CubicBandUnion(centers=[[-0.2, 0.1], [0.15, -0.2]],
                            half_widths=[[0.05, 0.05], [0.1, 0.05]])
MIRRORED_PP = (ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.05, 0.05), (0.25, 0.2)),
               ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.05, 0.05), (-0.15, -0.1)))


def ref_box_table(dims, union):
    acc = np.zeros(tuple(2 * n - 1 for n in dims), dtype=complex)
    for c, w in zip(union.centers, union.half_widths):
        acc += _box_term(dims, c, w)
    return _hermitian(acc)


def ref_pp_differences(spec):
    m, n = spec.grid.dims
    return np.arange(1 - m, m)[:, None], np.arange(1 - n, n)[None, :]


def ref_pp_table(spec):
    t, s = ref_pp_differences(spec)
    acc = np.zeros((t.size, s.size), dtype=complex)
    for band in spec.bands:
        acc += _pp_term(band, t, s, band.center)
    return _hermitian(acc)


def ref_demodulate(centers, shapes, term):
    """Mirror pairs summed as ``2 Re(term)`` in ascending offset order."""
    centers = np.asarray(centers, dtype=float)
    center = (centers.min(axis=0) + centers.max(axis=0)) / 2.0
    offsets = centers - center
    free, pairs = list(range(len(centers))), []
    while free:
        i = free.pop(0)
        mate = next((j for j in [i] + free
                     if np.max(np.abs(np.subtract(shapes[i], shapes[j]))) <= _MIRROR_TOL
                     and np.max(np.abs(offsets[i] + offsets[j])) <= _MIRROR_TOL), None)
        if mate is None:
            return None
        if mate == i:
            pairs.append(((0.0,) * centers.shape[1], i, 1.0))
        else:
            free.remove(mate)
            rep = max(i, mate, key=lambda b: tuple(offsets[b]))
            pairs.append((tuple(offsets[rep]), rep, 2.0))
    acc = 0.0
    for offset, i, weight in sorted(pairs):
        acc = acc + weight * term(i, np.array(offset)).real
    return center, _hermitian(acc)


def ref_box_demodulated(dims, union):
    return ref_demodulate(union.centers, [tuple(w) for w in union.half_widths],
                          lambda i, offset: _box_term(dims, offset, union.half_widths[i]))


def ref_pp_demodulated(spec):
    t, s = ref_pp_differences(spec)
    return ref_demodulate([b.center for b in spec.bands],
                          [(b.a, b.b, b.c, b.d) + b.half_widths for b in spec.bands],
                          lambda i, offset: _pp_term(spec.bands[i], t, s, offset))


def _cubic_case(dims, union):
    return (_boxes(dims, union), ref_box_table(dims, union),
            ref_box_demodulated(dims, union))


def _pp_case(dims, bands):
    spec = PPOperatorSpec(grid=SamplingGrid(dims), bands=bands)
    return spec._band_set(), ref_pp_table(spec), ref_pp_demodulated(spec)


CASES = {
    "readme-9x7": lambda: _cubic_case((9, 7), README),
    "ref-intervals-n65": lambda: _cubic_case((65,), REF_1D),
    "two-box-4x5x6": lambda: _cubic_case((4, 5, 6), TWO_BOX_3D),
    "default-pp-16x16": lambda: _pp_case((16, 16), default_config().parallelepiped),
    "mirrored-pp-10x8": lambda: _pp_case((10, 8), MIRRORED_PP),
    "asymmetric-8x6": lambda: _cubic_case((8, 6), ASYMMETRIC),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_band_set_tables_match_the_per_geometry_builders(case):
    bands, table, demodulated = case()
    assert np.array_equal(_table(bands), table)
    got = _demodulate(bands)
    if demodulated is None:
        assert got is None
    else:
        assert np.array_equal(got.center, demodulated[0])
        assert np.array_equal(got.table, demodulated[1])


def test_symmetric_cases_demodulate_and_asymmetric_does_not():
    symmetric = [name for name, case in CASES.items()
                 if _demodulate(case()[0]) is not None]
    assert symmetric == [name for name in CASES if name != "asymmetric-8x6"]


def test_materializers_keep_the_band_set_tables():
    cov = materialize_cubic(OperatorSpec(grid=SamplingGrid((16, 16)), bands=README))
    ref = ref_box_table((16, 16), README)
    assert np.array_equal(cov.table, ref)
    # The memory layout of the table sets the rounding of frobenius_sq.
    assert cov.table.flags.c_contiguous
    assert cov.frobenius_sq() == DenseCovariance(table=ref, dims=(16, 16)).frobenius_sq()
    spec = PPOperatorSpec(grid=SamplingGrid((10, 8)), bands=MIRRORED_PP)
    cov = pp_materialize(spec)
    assert np.array_equal(cov.table, ref_pp_table(spec))
    assert np.array_equal(cov.demodulated.table, ref_pp_demodulated(spec)[1])


PP = default_config().parallelepiped
CONFIGS = {
    "1-D": (BandConfig(grid=SamplingGrid((64,)), cubic=REF_1D), ["multiband1d"]),
    "2-D": (BandConfig(grid=SamplingGrid((8, 8)), cubic=README), ["cubic"]),
    "3-D": (BandConfig(grid=SamplingGrid((4, 5, 6)), cubic=TWO_BOX_3D), ["cubic"]),
    "parallelogram-only": (BandConfig(grid=SamplingGrid((8, 8)), parallelepiped=PP),
                           ["parallelepiped"]),
    "mixed": (BandConfig(grid=SamplingGrid((8, 8)), cubic=README, parallelepiped=PP),
              ["cubic", "parallelepiped"]),
}


@pytest.mark.parametrize("config, names", CONFIGS.values(), ids=CONFIGS.keys())
def test_operator_list_names(config, names):
    ops = _operators(config)
    assert [name for name, _, _ in ops] == names
    for name, spec, materialize in ops:
        assert spec.grid == config.grid
        if name == "parallelepiped":
            assert isinstance(spec, PPOperatorSpec) and spec.bands == config.parallelepiped
            assert materialize is pp_materialize
        else:
            assert isinstance(spec, OperatorSpec) and spec.bands is config.cubic
            assert materialize is materialize_cubic
    assert set(names) <= {r.experiment for r in verify_config(config)}


def _call_sites(predicate) -> list[str]:
    found = []
    for path in sorted(Path(mdprolate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and predicate(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def _named(node, name) -> bool:
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name)


def test_one_demodulation_and_one_table_covariance_call_site():
    assert len(_call_sites(lambda n: _named(n, "_demodulate"))) == 1
    table_built = _call_sites(lambda n: _named(n, "DenseCovariance")
                              and any(k.arg == "table" for k in n.keywords))
    assert len(table_built) == 1


def test_one_real_form_filler():
    """``_orbit_parts`` reads entries for ``_orbit_blocks`` and nothing else."""
    tree = ast.parse((Path(mdprolate.__file__).parent / "prolate.py").read_text())
    [filler] = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "_orbit_blocks"]
    inside = {f"prolate.py:{n.lineno}" for n in ast.walk(filler)
              if isinstance(n, ast.Call)}
    sites = _call_sites(lambda n: _named(n, "_orbit_parts"))
    assert len(sites) == 1 and set(sites) <= inside


def ref_ranked(m, n, w0, w1):
    s0, s1 = dpss(m, w0), dpss(n, w1)
    prods = np.outer(s0.eigenvalues, s1.eigenvalues).ravel()
    l_idx, k_idx = np.unravel_index(np.arange(m * n), (m, n))
    return s0, s1, prods, l_idx, k_idx, np.lexsort((k_idx, l_idx, -prods))


@pytest.mark.parametrize("m, n, center, widths", [
    (10, 12, (0.1, -0.2), (0.1, 0.15)),
    (9, 9, (0.0, 0.0), (0.2, 0.2)),
    (7, 11, (0.0, 0.25), (0.05, 0.2)),
])
def test_separable_routes_match_their_former_ranking(m, n, center, widths):
    band = CubicBandUnion(centers=[center], half_widths=[widths])
    s0, s1, prods, l_idx, k_idx, order = ref_ranked(m, n, *widths)
    assert np.array_equal(separable_eigenvalues(m, n, band),
                          np.sort(prods, kind="stable")[::-1])
    sp = separable_spectrum(m, n, band)
    assert np.array_equal(sp.eigenvalues, prods[order])
    u = modulate(s0.eigenvectors, center[0]) if center[0] else s0.eigenvectors.astype(complex)
    v = modulate(s1.eigenvectors, center[1]) if center[1] else s1.eigenvectors.astype(complex)
    ref = np.stack([np.outer(u[:, l_idx[f]], v[:, k_idx[f]]) for f in order])
    assert np.array_equal(sp.tensors, ref)


@pytest.mark.parametrize("union, dims, q", [
    (README, (12, 10), [20, 15]),
    (ASYMMETRIC, (9, 11), [7, 12]),
])
def test_psi_atoms_match_their_former_ranking(union, dims, q):
    m, n = dims
    psi = build_psi(OperatorSpec(grid=SamplingGrid(dims), bands=union), q)
    ref = []
    for i in range(union.num_bands):
        s0, s1, prods, l_idx, k_idx, order = ref_ranked(m, n, *union.half_widths[i])
        u = modulate(s0.eigenvectors, union.centers[i, 0])
        v = modulate(s1.eigenvectors, union.centers[i, 1])
        ref += [(np.outer(u[:, l_idx[f]], v[:, k_idx[f]]), float(prods[f]), i,
                 (int(l_idx[f]), int(k_idx[f]))) for f in order[:q[i]]]
    assert len(psi.atoms) == len(ref)
    for atom, (tensor, lam, band, indices) in zip(psi.atoms, ref):
        assert np.array_equal(atom.tensor, tensor)
        assert (atom.eigenvalue, atom.band, atom.indices) == (lam, band, indices)


def test_transition_count_is_the_middle_cluster_count():
    rng = np.random.default_rng(3)
    eigs = np.sort(np.concatenate([rng.random(200), [0.05, 0.95, 0.3, 0.7]]))[::-1]
    for eps in (0.05, 0.3, 0.5):
        expected = int(np.count_nonzero((eigs >= eps) & (eigs <= 1.0 - eps)))
        assert transition_count(eigs, eps) == expected == cluster_counts(eigs, eps).middle


def test_verify_center_shift_row_is_the_center_invariance():
    config = default_config()
    rows = verify_config(config)
    [dev] = [r.value for r in rows if r.metric == "center_shift_max_dev"
             and r.experiment == "parallelepiped"]
    spec = PPOperatorSpec(grid=config.grid, bands=config.parallelepiped)
    shifted = PPOperatorSpec(grid=config.grid, bands=tuple(
        b.shifted((0.02, -0.02)) for b in spec.bands))
    assert dev == pp_center_invariance(spec, shifted)
