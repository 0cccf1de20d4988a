import tracemalloc

import numpy as np
import pytest

from mdprolate import (DenseCovariance, default_config, operator, prolate,
                       verify, verify_config)
from mdprolate import _solver, _tables
from mdprolate._tables import _Tables
from mdprolate.verify import THREADS_ENV, max_workers

import oracles
import pinned


def test_default_suite_all_pass():
    rows = verify_config(default_config(), eps=0.2, seed=0)
    assert rows
    failures = [r for r in rows if not r.passed]
    assert failures == []
    experiments = {r.experiment for r in rows}
    assert {"cubic", "dictionary", "parallelepiped"} <= experiments


def _readme_config(dims):
    """The README union plus the matched parallelogram."""
    from mdprolate import (BandConfig, CubicBandUnion, ParallelepipedBand,
                           SamplingGrid)
    return BandConfig(
        grid=SamplingGrid(dims),
        cubic=CubicBandUnion(centers=pinned.REF_2D_CENTERS,
                             half_widths=pinned.REF_2D_HALF_WIDTHS),
        parallelepiped=(ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1)),))


@pytest.mark.parametrize("case", ["readme-32x32", "default"])
def test_no_row_gathers_a_matrix(case, monkeypatch):
    """The dense reference is formed a band of rows at a time and the
    translation check compares tables, so no row gathers a matrix."""
    def refuse(*args):
        raise AssertionError("verify gathered a dense matrix")

    monkeypatch.setattr(prolate, "_gather", refuse)
    monkeypatch.setattr(DenseCovariance, "matrix", property(refuse))
    config = _readme_config((32, 32)) if case == "readme-32x32" else default_config()
    rows = verify_config(config)
    assert rows and [r for r in rows if not r.passed] == []


def _key(bands):
    """A band set by value: its grid, band centres and band shapes."""
    return bands.dims, bands.centers.tobytes(), tuple(bands.shapes)


@pytest.mark.parametrize("case", ["readme-32x32", "3-D-12"])
def test_each_spec_table_is_built_once(case, monkeypatch):
    """Every row reads the table object its spec holds, so each operator's
    table, demodulated table and transfer are built once per run; the
    only other tables are the translation rows' moved sets and the
    separable row's first box, which is solved from its demodulated table
    alone."""
    from mdprolate import BandConfig, CubicBandUnion, SamplingGrid
    if case == "readme-32x32":
        config = _readme_config((32, 32))
    else:
        config = BandConfig(grid=SamplingGrid((12, 12, 12)), cubic=CubicBandUnion(
            centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
            half_widths=[[0.10, 0.10, 0.10]] * 2))
    built = {name: [] for name in ("_table", "_demodulate", "_transfer")}

    def counting(name, builder):
        def build(arg):
            built[name].append(arg)
            return builder(arg)
        return build
    for name in built:
        monkeypatch.setattr(_tables, name, counting(name, getattr(_tables, name)))
    verify_config(config)
    specs = {_key(spec._tables.bands) for _, spec, _ in verify._operators(config)}
    tables = [_key(bands) for bands in built["_table"]]
    demodulated = [_key(bands) for bands in built["_demodulate"]]
    two_d = case == "readme-32x32"
    # Each operator's table and its moved copy.
    assert len(set(tables)) == len(tables) == 2 * len(specs) and specs <= set(tables)
    # Each operator's, and on 2-D the separable row's first box.
    assert len(set(demodulated)) == len(demodulated) == len(specs) + two_d
    assert specs <= set(demodulated)
    # The three FFT applies and the residual rows share one transfer.
    assert len(built["_transfer"]) == two_d


def test_readme_run_holds_no_more_than_four_half_blocks():
    """At 32x32 a half block is 512 x 512 float64, 2 MiB."""
    config = _readme_config((32, 32))
    verify_config(config)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        verify_config(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 512 * 512 * 8


def test_rows_deterministic_order():
    a = verify_config(default_config())
    b = verify_config(default_config())
    assert [r.key() for r in a] == [r.key() for r in b]
    assert [r.key() for r in a] == sorted(r.key() for r in a)


# Every operator writes the shared block and the gap bound row; beside them,
# the two geometry groups.
SHARED = ("trace_rel_err", "eigenvalue_range_excess", "gap_identity_abs_err",
          "center_shift_max_dev", "transition_count_at_0.05",
          "near_one_fraction_at_0.95")
BOX_2D = ("gap_log_bound_ratio", "apply_vs_dense_rel_err",
          "separable_vs_dense_max_err")
DICTIONARY = ("pseudo_eigen_residual_excess", "cross_band_gram_violations")
PARALLELOGRAM = ("gap_vs_cubic_bound_ratio", "hermitian_symmetry_max_err")


def _config(case):
    from mdprolate import (BandConfig, CubicBandUnion, ParallelepipedBand,
                           SamplingGrid)
    default = default_config()
    return {
        "3-D": BandConfig(
            grid=SamplingGrid((4, 5, 6)),
            cubic=CubicBandUnion(centers=[[0.0, 0.1, -0.1]],
                                 half_widths=[[0.1, 0.08, 0.12]])),
        "1-D-128": BandConfig(
            grid=SamplingGrid((128,)),
            cubic=CubicBandUnion(centers=[[-0.10], [0.20]],
                                 half_widths=[[0.05], [0.05]])),
        "2-D-cubic": BandConfig(grid=default.grid, cubic=default.cubic),
        "parallelogram-only-16": BandConfig(
            grid=SamplingGrid((16, 16)),
            parallelepiped=(ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1)),)),
        "default": default,
        "readme-32x32": _readme_config((32, 32)),
    }[case]


GRID_16 = "grid=16x16;J=2;eps=0.2"
PP_16 = "grid=16x16;J=1;eps=0.2"
GRID_32 = "grid=32x32;J=2;eps=0.2"
PP_32 = "grid=32x32;J=1;eps=0.2"


@pytest.mark.parametrize("case, experiments", [
    ("3-D", {"cubic": ("grid=4x5x6;J=1;eps=0.2", ("gap_log_bound_ratio",))}),
    ("1-D-128", {"multiband1d": ("n=128;J=2;eps=0.2", ("gap_log_bound_ratio",))}),
    ("2-D-cubic", {"cubic": (GRID_16, BOX_2D), "dictionary": (GRID_16, DICTIONARY)}),
    ("parallelogram-only-16", {"parallelepiped": (PP_16, PARALLELOGRAM)}),
    ("default", {"cubic": (GRID_16, BOX_2D), "dictionary": (GRID_16, DICTIONARY),
                 "parallelepiped": (PP_16, PARALLELOGRAM)}),
    ("readme-32x32", {"cubic": (GRID_32, BOX_2D), "dictionary": (GRID_32, DICTIONARY),
                      "parallelepiped": (PP_32, PARALLELOGRAM)}),
], ids=["3-D", "1-D-128", "2-D-cubic", "parallelogram-only-16", "default",
        "readme-32x32"])
def test_row_inventory_per_geometry(case, experiments):
    """Every operator, in any d, writes the full shared block and then its
    own geometry's rows, and every row passes."""
    rows = verify_config(_config(case))
    assert [r for r in rows if not r.passed] == []
    expected = {(name, metric, params) for name, (params, own) in experiments.items()
                for metric in (own if name == "dictionary" else SHARED + own)}
    assert len(rows) == len(expected)
    assert {(r.experiment, r.metric, r.params) for r in rows} == expected


@pytest.mark.parametrize("n", [511, 512])
def test_oned_translation_row_matches_hand_built_kernels(n):
    from mdprolate import BandConfig, SamplingGrid
    union = _config("1-D-128").cubic
    rows = verify_config(BandConfig(grid=SamplingGrid((n,)), cubic=union))
    [row] = [r for r in rows if r.metric == "center_shift_max_dev"]
    # The row bounds the hand-built kernels' deviation from above, up to
    # the solvers' roundoff.
    oracle = oracles.modulation_invariance_reference(n, union)
    assert oracle - 1e-13 <= row.value <= 1e-9


@pytest.mark.parametrize("widths", [[0.05, 0.05], [0.05, 0.04]],
                         ids=["equal-widths", "unequal-widths"])
def test_oned_verify_solves_once(widths, monkeypatch):
    """The union is solved once, for the shared block, whatever its band
    widths: the translation row is a table certificate, which still
    bounds the hand-built kernels' deviation from above."""
    from mdprolate import BandConfig, CubicBandUnion, SamplingGrid
    union = CubicBandUnion(centers=[[-0.10], [0.20]],
                           half_widths=[[w] for w in widths])
    calls = []
    eigh = _solver._eigh

    def counting(a, *args, **kwargs):
        calls.append(a.table.shape)
        return eigh(a, *args, **kwargs)

    for module in (prolate, operator):
        monkeypatch.setattr(module, "_eigh", counting)
    rows = verify_config(BandConfig(grid=SamplingGrid((96,)), cubic=union))
    assert calls == [(191,)]  # one table of the 96-sample grid
    [row] = [r for r in rows if r.metric == "center_shift_max_dev"]
    oracle = oracles.modulation_invariance_reference(96, union)
    assert oracle - 1e-13 <= row.value <= 1e-9


def test_a_band_edge_at_nyquist_still_translates():
    """A band reaching 1/2 is moved past it like every other band: its
    term is periodic in the centre, so the moved union is the same
    spectrum, translated, and the row still bounds the hand-built
    kernels' deviation."""
    from mdprolate import BandConfig, CubicBandUnion, SamplingGrid
    union = CubicBandUnion.from_intervals([(-0.15, -0.05), (0.40, 0.50)])
    assert (union.centers + union.half_widths).max() == 0.5
    rows = verify_config(BandConfig(grid=SamplingGrid((128,)), cubic=union))
    [row] = [r for r in rows if r.metric == "center_shift_max_dev"]
    assert row.passed
    oracle = oracles.modulation_invariance_reference(128, union)
    assert oracle - 1e-13 <= row.value <= 1e-9


@pytest.mark.parametrize("case", ["full-1-D-band", "full-square-parallelogram"])
def test_a_band_set_spanning_an_axis_is_moved_on_every_axis(case, monkeypatch):
    """A band set with no room to 1/2 is moved by the same fixed step, 0.02
    with its sign alternating by axis, as every other set, and the row
    passes."""
    from mdprolate import (BandConfig, CubicBandUnion, ParallelepipedBand,
                           SamplingGrid)
    if case == "full-1-D-band":
        config = BandConfig(grid=SamplingGrid((64,)),
                            cubic=CubicBandUnion([[0.0]], [[0.5]]))
        step = [0.02]
    else:
        config = BandConfig(grid=SamplingGrid((8, 8)), parallelepiped=(
            ParallelepipedBand(1.0, 0.0, 0.0, 1.0, (0.5, 0.5)),))
        step = [0.02, -0.02]
    moves = []
    deviation = _Tables.shift_deviation

    def recording(tables, moved):
        moves.append(moved.centers - tables.bands.centers)
        return deviation(tables, moved)

    monkeypatch.setattr(_Tables, "shift_deviation", recording)
    rows = verify_config(config)
    [row] = [r for r in rows if r.metric == "center_shift_max_dev"]
    assert row.passed
    [move] = moves
    assert move.tolist() == [step]


def _random_union(rng, dim=2):
    """One to three boxes inside the Nyquist cube, redrawn until they do not
    overlap; each half-width is in [0.1, 0.5) over the box count, so wide
    unions are common."""
    from mdprolate import BandError, CubicBandUnion
    while True:
        count = rng.integers(1, 4)
        half = rng.uniform(0.1, 0.5, (count, dim)) / count
        try:
            return CubicBandUnion(rng.uniform(half - 0.5, 0.5 - half), half)
        except BandError:
            continue


def test_every_row_passes_on_random_2d_unions():
    """Correct operators pass every row, the transition bound included:
    wide 2-D unions on small grids used to count more eigenvalues in [0.05,
    0.95] than the nominal near-zero count the row allowed."""
    from mdprolate import BandConfig, SamplingGrid
    rng = np.random.default_rng(2)
    for _ in range(40):
        config = BandConfig(grid=SamplingGrid(tuple(rng.integers(4, 13, size=2))),
                            cubic=_random_union(rng))
        failed = [r.metric for r in verify_config(config) if not r.passed]
        assert failed == [], (config, failed)


@pytest.mark.parametrize("dim, sizes", [(1, (4, 97)), (3, (3, 8))], ids=["1-D", "3-D"])
def test_every_row_passes_on_random_unions_off_two_axes(dim, sizes):
    """The translation, count and gap rows hold on 1-D and 3-D unions too."""
    from mdprolate import BandConfig, SamplingGrid
    rng = np.random.default_rng(3)
    for _ in range(20):
        config = BandConfig(grid=SamplingGrid(tuple(rng.integers(*sizes, size=dim))),
                            cubic=_random_union(rng, dim))
        failed = [r.metric for r in verify_config(config) if not r.passed]
        assert failed == [], (config, failed)


def test_corruption_hook_fails(corrupted_verify):
    rows = verify_config(default_config())
    assert any(not r.passed for r in rows)


def test_hermitian_row_samples_every_axis_over_its_own_length(monkeypatch):
    """An entry wrong only where the axis-0 difference is 12 or more is seen
    on a 48 x 12 grid: the samples are not confined to a square corner."""
    from mdprolate import BandConfig, ParallelepipedBand, SamplingGrid
    entry = verify.pp_entry

    def skewed(band, m, n, p, q):
        return entry(band, m, n, p, q) + 1e-6 * (np.asarray(m) - p >= 12)

    monkeypatch.setattr(verify, "pp_entry", skewed)
    config = BandConfig(grid=SamplingGrid((48, 12)), parallelepiped=(
        ParallelepipedBand(1.0, 0.4, 0.0, 1.0, (0.1, 0.1)),))
    [row] = [r for r in verify_config(config)
             if r.metric == "hermitian_symmetry_max_err"]
    assert not row.passed and row.value >= 1e-6


def test_max_workers_env(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "3")
    assert max_workers() == 3
    monkeypatch.setenv(THREADS_ENV, "bogus")
    with pytest.raises(ValueError):
        max_workers()
    monkeypatch.delenv(THREADS_ENV)
    assert max_workers() >= 1


def test_jobs_run_inline_by_default(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "2")
    pooled = verify_config(default_config())

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("verify started a thread pool")

    monkeypatch.delenv(THREADS_ENV)
    monkeypatch.setattr(verify, "ThreadPoolExecutor", NoPool)
    assert max_workers() == 1
    assert verify_config(default_config()) == pooled
