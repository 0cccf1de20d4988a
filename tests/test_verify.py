import pytest

from mdprolate import default_config, verify, verify_config
from mdprolate.verify import CORRUPT_ENV, THREADS_ENV, max_workers


def test_default_suite_all_pass():
    rows = verify_config(default_config(), eps=0.2, seed=0)
    assert rows
    failures = [r for r in rows if not r.passed]
    assert failures == []
    experiments = {r.experiment for r in rows}
    assert {"cubic", "dictionary", "parallelepiped"} <= experiments


def test_rows_deterministic_order():
    a = verify_config(default_config())
    b = verify_config(default_config())
    assert [r.key() for r in a] == [r.key() for r in b]
    assert [r.key() for r in a] == sorted(r.key() for r in a)


def test_three_axis_config_reduced_suite():
    from mdprolate import BandConfig, CubicBandUnion, SamplingGrid
    cfg = BandConfig(
        grid=SamplingGrid((4, 5, 6)),
        cubic=CubicBandUnion(centers=[[0.0, 0.1, -0.1]],
                             half_widths=[[0.1, 0.08, 0.12]]))
    rows = verify_config(cfg)
    assert all(r.passed for r in rows)
    assert {r.metric for r in rows} == {"trace_rel_err",
                                        "eigenvalue_range_excess",
                                        "gap_identity_abs_err"}


def test_corruption_hook_fails(monkeypatch):
    monkeypatch.setenv(CORRUPT_ENV, "1")
    rows = verify_config(default_config())
    assert any(not r.passed for r in rows)


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
