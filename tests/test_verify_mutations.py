"""``verify`` fails when a kernel or a solved block is wrong.

Each mutation is patched in for one ``verify_config`` run and must fail at
least one row: off-centre entries of the box kernel or the parallelogram
term scaled by 1 + 1e-6, the sign of either centre phase flipped, and a
sign flip inside the last symmetry block the solver reads.  The configs
are the default one and the 1-D and 3-D unions of the benchmark's
verify-mixed workload.  One miss is not a case here: the kernels scaled
by 1 - 1e-6 fail no row on any of these configs.
"""

import numpy as np
import pytest

from mdprolate import (BandConfig, CubicBandUnion, SamplingGrid, _solver, _tables,
                       default_config, parallelepiped, verify_config)

CONFIGS = {
    "default": default_config,
    "1-D-512": lambda: BandConfig(
        grid=SamplingGrid((512,)),
        cubic=CubicBandUnion(centers=[[-0.10], [0.20]],
                             half_widths=[[0.05], [0.05]])),
    "3-D-12": lambda: BandConfig(
        grid=SamplingGrid((12, 12, 12)),
        cubic=CubicBandUnion(centers=[[-0.15, -0.10, -0.10], [0.20, 0.15, 0.15]],
                             half_widths=[[0.10, 0.10, 0.10]] * 2)),
}

_axis_table = _tables._axis_table
_pp_term = parallelepiped._pp_term
_orbit_blocks = _solver._orbit_blocks


def _axis_table_scaled(n, f_c, half_width):
    table = _axis_table(n, f_c, half_width) * (1.0 + 1e-6)
    table[n - 1] = _axis_table(n, f_c, half_width)[n - 1]
    return table


def _axis_centre_sign(n, f_c, half_width):
    return _axis_table(n, -f_c, half_width)


def _pp_term_scaled(band, t, s, center):
    value = _pp_term(band, t, s, center)
    origin = (np.asarray(t) == 0) & (np.asarray(s) == 0)
    return np.where(origin, value, value * (1.0 + 1e-6))


def _pp_centre_sign(band, t, s, center):
    return _pp_term(band, t, s, tuple(-c for c in center))


def _last_block_flipped(*args, **kwargs):
    """Two strictly-lower entries of the last block negated: the solver
    reads only lower triangles, so this is a symmetric sign flip."""
    blocks = _orbit_blocks(*args, **kwargs)
    last = blocks[-1]
    last[1, 0], last[2, 1] = -last[1, 0], -last[2, 1]
    return blocks


MUTATIONS = {
    "axis-table-scaled": (_tables, "_axis_table", _axis_table_scaled),
    "axis-centre-sign": (_tables, "_axis_table", _axis_centre_sign),
    "pp-term-scaled": (parallelepiped, "_pp_term", _pp_term_scaled),
    "pp-centre-sign": (parallelepiped, "_pp_term", _pp_centre_sign),
    "last-block-flipped": (_solver, "_orbit_blocks", _last_block_flipped),
}

# (mutation, config, a row that must be among the failures or None).  The
# parallelogram mutations have only the default config to act on.
CAUGHT = [
    ("axis-table-scaled", "default", None),
    ("axis-table-scaled", "1-D-512", None),
    ("axis-table-scaled", "3-D-12", None),
    ("axis-centre-sign", "default", None),
    ("axis-centre-sign", "1-D-512", ("multiband1d", "center_shift_max_dev")),
    ("axis-centre-sign", "3-D-12", ("cubic", "center_shift_max_dev")),
    ("pp-term-scaled", "default", None),
    ("pp-centre-sign", "default", ("parallelepiped", "center_shift_max_dev")),
    ("last-block-flipped", "default", None),
    ("last-block-flipped", "1-D-512", None),
    ("last-block-flipped", "3-D-12", None),
]


def _failures(config):
    return {(r.experiment, r.metric) for r in verify_config(config) if not r.passed}


@pytest.mark.parametrize("config", list(CONFIGS))
def test_unmutated_runs_pass(config):
    assert _failures(CONFIGS[config]()) == set()


@pytest.mark.parametrize("mutation, config, row", CAUGHT,
                         ids=[f"{m}-{c}" for m, c, _ in CAUGHT])
def test_each_mutation_fails_a_row(mutation, config, row, monkeypatch):
    module, name, patched = MUTATIONS[mutation]
    monkeypatch.setattr(module, name, patched)
    failed = _failures(CONFIGS[config]())
    assert failed
    if row is not None:
        assert row in failed
