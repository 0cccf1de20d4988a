import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdprolate
from mdprolate.cli import main

import oracles


def write_config(tmp_path, doc, name="bands.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def oned_config(tmp_path):
    return write_config(tmp_path, {
        "dim": 1,
        "cubic": [{"center": [-0.10], "half_widths": [0.05]},
                  {"center": [0.20], "half_widths": [0.05]}],
        "grid": [256],
    })


@pytest.fixture
def twod_config(tmp_path):
    return write_config(tmp_path, {
        "dim": 2,
        "cubic": [{"center": [-0.15, -0.10], "half_widths": [0.10, 0.10]},
                  {"center": [0.20, 0.15], "half_widths": [0.10, 0.10]}],
        "grid": [16, 16],
    })


def test_spectrum_reference_1d(oned_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", oned_config, "--out", str(out)]) == 0
    lines = (out / "multiband1d_eigenvalues.csv").read_text().splitlines()
    assert len(lines) == 257  # header + 256 rows
    summary = json.loads((out / "multiband1d_summary.json").read_text())
    assert summary["trace"] == pytest.approx(51.2, rel=1e-9)
    assert summary["size"] == 256


def test_spectrum_full_band(tmp_path):
    cfg = write_config(tmp_path, {
        "dim": 2,
        "cubic": [{"center": [0.0, 0.0], "half_widths": [0.5, 0.5]}],
        "grid": [8, 8],
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "cubic_eigenvalues.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[1]) for r in rows])
    np.testing.assert_allclose(values, 1.0, atol=1e-12)


def test_spectrum_2d_pinned_by_oracle(twod_config, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", twod_config, "--out", str(out)]) == 0
    rows = (out / "cubic_eigenvalues.csv").read_text().splitlines()[1:]
    assert len(rows) == 256
    values = np.array([float(r.split(",")[1]) for r in rows])
    bands = [((-0.15, -0.10), (0.10, 0.10)), ((0.20, 0.15), (0.10, 0.10))]
    olam, _ = oracles.eigh_descending(
        oracles.entrywise_cubic_covariance(16, 16, bands))
    np.testing.assert_allclose(values, olam, atol=1e-9)


def test_spectrum_byte_identical(oned_config, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["spectrum", "--config", oned_config, "--out", str(out1)])
    main(["spectrum", "--config", oned_config, "--out", str(out2)])
    for name in ("multiband1d_eigenvalues.csv", "multiband1d_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_spectrum_vectors_flag(oned_config, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", oned_config, "--out", str(out),
                 "--vectors"]) == 0
    header = (out / "multiband1d_eigenvectors.csv").read_text().splitlines()[0]
    assert header.startswith("index,v000_re,v000_im")


def test_spectrum_invalid_band_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": [8, 8], "cubic": [
        {"center": [0.5, 0.0], "half_widths": [0.2, 0.2]}]})
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


def test_spectrum_missing_config(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path / "o")]) == 2


def test_dict_single_band_report(tmp_path):
    cfg = write_config(tmp_path, {
        "dim": 2,
        "cubic": [{"center": [0.1, -0.1], "half_widths": [0.10, 0.07]}],
        "grid": [12, 12],
    })
    out = tmp_path / "out"
    assert main(["dict", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    rows = json.loads((out / "dict_report.json").read_text())
    metrics = {r["metric"]: r["value"] for r in rows}
    assert metrics["cos_theta"] >= 1 - 1e-8
    assert metrics["max_projection_residual_sq"] <= 1e-12
    manifest = json.loads((out / "psi" / "manifest.json").read_text())
    assert manifest["atom_count"] >= 1
    assert (out / "phi" / "manifest.json").exists()


def test_dict_eps_out_of_range(twod_config, tmp_path):
    # measure 0.08 -> eps must stay below min(1, 1/0.08 - 1); 0.49 is fine,
    # so force failure with an eps outside the parser's (0, 1/2) range.
    assert main(["dict", "--config", twod_config, "--out", str(tmp_path / "o"),
                 "--eps", "0.6"]) == 2


def test_dict_eps_above_measure_limit(tmp_path):
    # wide band: measure 0.81 makes the admissible range (0, ~0.2346)
    cfg = write_config(tmp_path, {
        "dim": 2,
        "cubic": [{"center": [0.0, 0.0], "half_widths": [0.45, 0.45]}],
        "grid": [8, 8],
    })
    assert main(["dict", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--eps", "0.3"]) == 2
    assert main(["dict", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--eps", "0.1"]) == 0


FULL_BAND = {"dim": 2, "cubic": [{"center": [0.0, 0.0], "half_widths": [0.5, 0.5]}],
             "grid": [8, 8]}


def test_dict_with_both_sizes_reads_no_eps(tmp_path):
    # No eps sizes p for a union of measure 1, but --p and --q need none.
    out = tmp_path / "out"
    assert main(["dict", "--config", write_config(tmp_path, FULL_BAND),
                 "--out", str(out), "--p", "10", "--q", "10"]) == 0
    assert json.loads((out / "phi" / "manifest.json").read_text())["atom_count"] == 10


def test_dict_without_sizes_names_them_when_no_eps_fits(tmp_path, capsys):
    assert main(["dict", "--config", write_config(tmp_path, FULL_BAND),
                 "--out", str(tmp_path / "o"), "--q", "10"]) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert "no eps fits" in error and "--p" in error and "--q" in error


def test_dict_sizing_exceeds_total(twod_config, tmp_path):
    assert main(["dict", "--config", twod_config, "--out", str(tmp_path / "o"),
                 "--p", "9999"]) == 2


def test_approx_complete_basis(twod_config, tmp_path):
    out = tmp_path / "out"
    code = main(["approx", "--config", twod_config, "--out", str(out),
                 "--p", "256", "--trials", "5", "--format", "json"])
    assert code == 0
    rows = json.loads((out / "approx_report.json").read_text())
    metrics = {r["metric"]: r["value"] for r in rows}
    assert metrics["empirical_mean_residual"] <= 1e-9
    assert metrics["analytic_tail"] <= 1e-9


def test_approx_zero_rank_tail(twod_config, tmp_path):
    out = tmp_path / "out"
    code = main(["approx", "--config", twod_config, "--out", str(out),
                 "--p", "0", "--trials", "3", "--format", "json",
                 "--tolerance", "1.0"])
    assert code == 0
    rows = json.loads((out / "approx_report.json").read_text())
    metrics = {r["metric"]: r["value"] for r in rows}
    assert metrics["analytic_tail"] == pytest.approx(256 * 0.08, rel=1e-9)


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text
    assert (out / "verify_report.csv").exists()


def test_verify_one_dimensional_config(oned_config, tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--config", oned_config, "--out", str(out),
                 "--format", "json"]) == 0
    rows = json.loads((out / "verify_report.json").read_text())
    assert {r["experiment"] for r in rows} == {"multiband1d"}
    assert all(r["passed"] for r in rows)


def test_verify_passes_a_wide_centred_box(tmp_path):
    # 34 of its 64 eigenvalues lie in [0.05, 0.95]: more than the 24 = 64 -
    # floor(64 * 0.64) the transition row once allowed, fewer than the gap's
    # bound.
    cfg = write_config(tmp_path, {
        "dim": 2, "cubic": [{"center": [0.0, 0.0], "half_widths": [0.4, 0.4]}],
        "grid": [8, 8]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    row, = [r for r in json.loads((out / "verify_report.json").read_text())
            if r["metric"] == "transition_count_at_0.05"]
    assert row["value"] == 34 and row["passed"]


def test_verify_corrupted_kernel(tmp_path, corrupted_verify):
    assert main(["verify", "--out", str(tmp_path / "out")]) == 1


def test_verify_empty_band_list(tmp_path):
    cfg = write_config(tmp_path, {"grid": [8, 8], "cubic": []})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bands_validate_ok(twod_config, capsys):
    assert main(["bands", "validate", "--config", twod_config]) == 0
    assert "ok" in capsys.readouterr().out


def test_bands_validate_overlap(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dim": 2,
        "parallelepiped": [
            {"a": 1.0, "b": 0.5, "c": 0.0, "d": 1.0,
             "half_widths": [0.1, 0.1], "center": [0.0, 0.0]},
            {"a": 1.0, "b": 0.5, "c": 0.0, "d": 1.0,
             "half_widths": [0.1, 0.1], "center": [0.0, 0.0]},
        ],
        "grid": [8, 8],
    })
    assert main(["bands", "validate", "--config", cfg]) == 1
    assert "overlap" in capsys.readouterr().out


def test_parallelogram_violations_name_their_entries(tmp_path, capsys):
    box = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "half_widths": [0.05, 0.05]}
    cfg = write_config(tmp_path, {
        "dim": 2,
        "parallelepiped": [{**box, "center": [-0.2, 0.0]},
                           {**box, "center": [0.48, 0.1]},
                           {**box, "b": 2.0, "c": 0.5, "center": [0.2, 0.0]}],
        "grid": [8, 8],
    })
    assert main(["bands", "validate", "--config", cfg]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "[FAIL] range bands=[1]", "[FAIL] transform bands=[2]"]
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("band 1: ") and "; band 2: " in error


def test_bands_validate_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["bands", "validate", "--config", str(path)]) == 2


def test_grid_override(oned_config, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", oned_config, "--out", str(out),
                 "--grid", "64"]) == 0
    lines = (out / "multiband1d_eigenvalues.csv").read_text().splitlines()
    assert len(lines) == 65


def test_grid_override_dim_mismatch(twod_config, tmp_path):
    assert main(["spectrum", "--config", twod_config,
                 "--out", str(tmp_path / "o"), "--grid", "64"]) == 2


def test_spectrum_combined_config(tmp_path):
    cfg = write_config(tmp_path, {
        "dim": 2,
        "cubic": [{"center": [-0.15, -0.10], "half_widths": [0.10, 0.10]}],
        "parallelepiped": [{"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0,
                            "half_widths": [0.1, 0.1], "center": [0.2, 0.2]}],
        "grid": [12, 12],
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "cubic_eigenvalues.csv").exists()
    assert (out / "parallelepiped_eigenvalues.csv").exists()
    pp_summary = json.loads((out / "parallelepiped_summary.json").read_text())
    assert pp_summary["trace"] == pytest.approx(144 * 0.04, rel=1e-9)


ONED_DOC = {"dim": 1, "cubic": [{"center": [0.1], "half_widths": [0.05]}],
            "grid": [64]}
TWOD_DOC = {"dim": 2, "cubic": [{"center": [0.1, 0.1], "half_widths": [0.05, 0.05]}],
            "grid": [8, 8]}
# ad - bc overflows to inf, so the band area would be 0.
OVERFLOW_DOC = {"dim": 2, "parallelepiped": [{"a": 1e200, "b": 0.4, "c": 0.0, "d": 1e200,
                                             "half_widths": [0.1, 0.1]}],
                "grid": [8, 8]}
# Each half-width is positive, but prod 2 W underflows to 0.
UNDERFLOW_DOC = {"dim": 2, "cubic": [{"center": [0.1, 0.1],
                                      "half_widths": [1e-170, 1e-170]}],
                 "grid": [8, 8]}
PP_ONLY_DOC = {"dim": 2, "parallelepiped": [{"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0,
                                             "half_widths": [0.1, 0.1]}],
               "grid": [8, 8]}
NO_GRID_DOC = {"dim": 2, "cubic": TWOD_DOC["cubic"]}
NO_HALF_WIDTHS_DOC = {"dim": 2, "cubic": [{"center": [0.1, 0.1]}], "grid": [8, 8]}
PP_MISSING_DOC = {"dim": 2, "parallelepiped": [{"a": 1.0, "b": 0.4}], "grid": [8, 8]}


@pytest.mark.parametrize("argv, env", [
    (["spectrum", "--config", "{twod}", "--grid", "100x100"], None),
    (["verify", "--grid", "100x100"], None),
    (["dict", "--config", "{twod}", "--q", "a,b"], None),
    (["dict", "--config", "{oned}"], None),
    (["verify"], "abc"),
    (["spectrum", "--config", "{oned}", "--grid", "4097"], None),
    (["verify", "--config", "{oned}", "--grid", "4097"], None),
    (["spectrum", "--config", "{folder}"], None),
    (["spectrum", "--config", "{latin1}"], None),
    (["bands", "validate", "--config", "{latin1}"], None),
    (["spectrum", "--config", "{twod}", "--out", "{taken}"], None),
    (["verify", "--config", "{twod}", "--out", "{taken}"], None),
    (["dict", "--config", "{twod}", "--q", "1", "--out", "{taken}"], None),
    (["spectrum", "--config", "{twod}", "--out", "{taken}/o"], None),
    (["verify", "--config", "{twod}", "--out", "{taken}/o"], None),
    (["dict", "--config", "{twod}", "--q", "1", "--out", "{taken}/o"], None),
    (["spectrum", "--config", "{overflow}"], None),
    (["verify", "--config", "{overflow}"], None),
    (["spectrum", "--config", "{underflow}"], None),
    (["verify", "--config", "{underflow}"], None),
    (["dict", "--config", "{pponly}"], None),
    (["approx", "--config", "{pponly}"], None),
    (["dict", "--config", "{twod}", "--q", "1,2"], None),
    (["dict", "--config", "{twod}", "--q", "0"], None),
    (["approx", "--config", "{twod}", "--p", "65"], None),
    (["approx", "--config", "{twod}", "--p", "-1"], None),
    (["spectrum", "--config", "{nogrid}"], None),
    (["spectrum", "--config", "{nohalfwidths}"], None),
    (["spectrum", "--config", "{ppmissing}"], None),
    (["spectrum", "--config", "{folder}/absent.json"], None),
    (["spectrum", "--config", "{pponly}", "--grid", "8x8x8"], None),
], ids=["spectrum-size-cap", "verify-size-cap", "dict-bad-q", "dict-1d",
        "bad-threads", "spectrum-1d-size-cap", "verify-1d-size-cap",
        "config-is-a-directory", "config-not-utf8", "validate-config-not-utf8",
        "spectrum-out-is-a-file", "verify-out-is-a-file", "dict-out-is-a-file",
        "spectrum-out-through-a-file", "verify-out-through-a-file",
        "dict-out-through-a-file", "spectrum-determinant-overflows",
        "verify-determinant-overflows", "spectrum-measure-underflows",
        "verify-measure-underflows", "dict-parallelogram-only",
        "approx-parallelogram-only", "dict-q-count-mismatch", "dict-q-zero",
        "approx-p-past-grid", "approx-p-negative", "config-without-grid",
        "cubic-without-half-widths", "parallelogram-missing-keys",
        "config-missing", "parallelogram-on-3d-grid"])
def test_malformed_input_exits_2_with_json(argv, env, tmp_path, monkeypatch,
                                            capsys):
    if env is not None:
        monkeypatch.setenv("MDPROLATE_THREADS", env)
    (tmp_path / "folder").mkdir()
    (tmp_path / "taken").write_text("")
    (tmp_path / "latin1.json").write_bytes(b'{"dim": 2, "grid": [8, 8], "\xe9": 1}')
    paths = {"twod": write_config(tmp_path, TWOD_DOC, "twod.json"),
             "oned": write_config(tmp_path, ONED_DOC, "oned.json"),
             "overflow": write_config(tmp_path, OVERFLOW_DOC, "overflow.json"),
             "underflow": write_config(tmp_path, UNDERFLOW_DOC, "underflow.json"),
             "pponly": write_config(tmp_path, PP_ONLY_DOC, "pponly.json"),
             "nogrid": write_config(tmp_path, NO_GRID_DOC, "nogrid.json"),
             "nohalfwidths": write_config(tmp_path, NO_HALF_WIDTHS_DOC,
                                          "nohalfwidths.json"),
             "ppmissing": write_config(tmp_path, PP_MISSING_DOC, "ppmissing.json"),
             "folder": str(tmp_path / "folder"), "taken": str(tmp_path / "taken"),
             "latin1": str(tmp_path / "latin1.json")}
    argv = [a.format(**paths) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("out", ["{taken}", "{taken}/o"],
                         ids=["out-is-a-file", "out-through-a-file"])
@pytest.mark.parametrize("argv", [
    ["spectrum"], ["dict", "--q", "1,1"], ["approx", "--trials", "5"], ["verify"],
], ids=["spectrum", "dict", "approx", "verify"])
def test_unwritable_out_fails_before_any_solve(argv, out, twod_config, tmp_path,
                                               monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("an operator was solved before --out was checked")

    monkeypatch.setattr(np.linalg, "eigh", solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    (tmp_path / "taken").write_text("")
    before = sorted(tmp_path.rglob("*"))
    argv = [*argv, "--config", twod_config,
            "--out", out.format(taken=tmp_path / "taken")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--out" in json.loads(captured.err.strip())["error"]
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("band", [
    {"cubic": [{"center": [float("nan"), 0.0], "half_widths": [0.1, 0.1]}]},
    {"cubic": [{"center": [0.0, 0.0], "half_widths": [0.1, float("inf")]}]},
    {"parallelepiped": [{"a": float("nan"), "b": 0.0, "c": 0.0, "d": 1.0,
                         "half_widths": [0.1, 0.1]}]},
], ids=["cubic-nan-center", "cubic-inf-width", "pp-nan-a"])
def test_non_finite_band_rejected(band, tmp_path, capsys):
    cfg = write_config(tmp_path, {"dim": 2, "grid": [8, 8], **band})
    assert main(["bands", "validate", "--config", cfg]) == 1
    assert "[FAIL] finite" in capsys.readouterr().out
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("key", ["a", "c", "d"])
def test_a_kernel_that_overflows_is_a_band_error(key, tmp_path, capsys):
    """A coefficient of -1e308 passes the band checks (the determinant and
    area are finite and positive) but overflows in the kernel, so its
    table is not finite: validate fails the band and the solving commands
    exit 2, with no traceback."""
    band = {"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0, "half_widths": [0.1, 0.1],
            "center": [0, 0], key: -1e308}
    cfg = write_config(tmp_path, {"dim": 2, "parallelepiped": [band], "grid": [8, 8]})
    assert main(["bands", "validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "[FAIL] finite bands=[0]: band 0: its kernel is not finite on the (8, 8) grid"]
    for command in ("spectrum", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "band 0" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_approx_rejects_malformed_tolerance(tolerance, twod_config, tmp_path,
                                            monkeypatch, capsys):
    import mdprolate.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("an operator was built")
    monkeypatch.setattr(cli, "materialize_cubic", refuse)
    out = tmp_path / "out"
    assert main(["approx", "--config", twod_config, "--grid", "8x8",
                 "--tolerance", tolerance, "--out", str(out)]) == 2
    assert "tolerance" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not out.exists()


GRID_8 = {"dim": 2, "grid": [8, 8]}
BOX = {"center": [0.0, 0.0], "half_widths": [0.1, 0.1]}
SHEAR = {"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0, "half_widths": [0.1, 0.1]}


@pytest.mark.parametrize("doc, names", [
    ({**GRID_8, "cubic": [{**BOX, "center": ["a", 0]}]}, "cubic band 0"),
    ({**GRID_8, "cubic": [5]}, "cubic band 0"),
    ({**GRID_8, "parallelepiped": [5]}, "parallelepiped band 0"),
    ({**GRID_8, "cubic": [BOX, {**BOX, "center": [0.3]}]}, "cubic band 1"),
    ({**GRID_8, "parallelepiped": [{**SHEAR, "half_widths": [0.1]}]},
     "parallelepiped band 0"),
    ({**GRID_8, "parallelepiped": [{**SHEAR, "center": [0.1]}]},
     "parallelepiped band 0"),
    ({**GRID_8, "parallelepiped": [{**SHEAR, "a": "x"}]}, "parallelepiped band 0"),
    ({**GRID_8, "cubic": [{**BOX, "half_widths": [True, 0.1]}]}, "cubic band 0"),
    ({**GRID_8, "dim": "x", "cubic": [BOX]}, "dim"),
    ({**GRID_8, "grid": [8.5, 8], "cubic": [BOX]}, "grid"),
    ({**GRID_8, "grid": ["8", "8"], "cubic": [BOX]}, "grid"),
    ({**GRID_8, "grid": [True, 8], "cubic": [BOX]}, "grid"),
    ({**GRID_8, "cubic": 5}, "cubic"),
], ids=["cubic-center-string", "cubic-entry-number", "pp-entry-number",
        "cubic-ragged-centers", "pp-short-half-widths", "pp-short-center",
        "pp-a-string", "cubic-bool-width", "dim-string", "grid-fraction",
        "grid-strings", "grid-bool", "cubic-not-a-list"])
@pytest.mark.parametrize("command", [["spectrum"], ["bands", "validate"]])
def test_malformed_config_value_exits_2_naming_the_entry(doc, names, command,
                                                         tmp_path, capsys):
    cfg = write_config(tmp_path, doc)
    out = ["--out", str(tmp_path / "o")] if command == ["spectrum"] else []
    assert main([*command, "--config", cfg, *out]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and names in json.loads(lines[0])["error"]
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--config", "c.json", "--seed", "abc"],
    ["spectrum", "--bogus"],
    ["nosuch"],
    [],
], ids=["bad-seed", "unknown-flag", "unknown-command", "no-command"])
def test_argument_errors_exit_2_with_json(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "-h"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("band", [{"cubic": [BOX]}, {"parallelepiped": [SHEAR]}],
                         ids=["cubic", "parallelepiped"])
def test_grid_past_int64_hits_the_size_cap(band, tmp_path, capsys):
    # 2**62 * 4 wraps to 0 in int64; any array of that extent fails at once.
    from mdprolate import SamplingGrid
    assert SamplingGrid((2**62, 4)).size == 2**64
    cfg = write_config(tmp_path, {"dim": 2, "grid": [2**62, 4], **band})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "exceeds the cap" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("doc, failing", [
    ({"dim": 1, "cubic": [{"center": [-0.10], "half_widths": [0.05]},
                          {"center": [0.20], "half_widths": [0.05]}],
      "grid": [128]},
     {("multiband1d", "trace_rel_err"), ("multiband1d", "eigenvalue_range_excess"),
      ("multiband1d", "center_shift_max_dev")}),
    ({"dim": 3, "cubic": [{"center": [0.0, 0.1, -0.1],
                           "half_widths": [0.1, 0.08, 0.12]}],
      "grid": [8, 8, 8]},
     {("cubic", "trace_rel_err"), ("cubic", "center_shift_max_dev")}),
    ({"dim": 2, "parallelepiped": [{**SHEAR, "center": [0.0, 0.0]}],
      "grid": [16, 16]},
     {("parallelepiped", "trace_rel_err"), ("parallelepiped", "center_shift_max_dev")}),
    # The dense reference of apply_vs_dense_rel_err is summed from the
    # perturbed table, so that row fails too.
    (None, {("cubic", "trace_rel_err"), ("cubic", "apply_vs_dense_rel_err"),
            ("cubic", "center_shift_max_dev"), ("parallelepiped", "trace_rel_err"),
            ("parallelepiped", "center_shift_max_dev")}),
], ids=["1-D-128", "3-D-8", "parallelogram-only-16", "default"])
def test_corruption_hook_fails_the_trace_row_of_every_geometry(
        doc, failing, tmp_path, corrupted_verify):
    out = tmp_path / "out"
    argv = ["verify", "--out", str(out), "--format", "json"]
    if doc is not None:
        argv += ["--config", write_config(tmp_path, doc)]
    assert main(argv) == 1
    rows = json.loads((out / "verify_report.json").read_text())
    trace = {r["experiment"]: r["passed"] for r in rows
             if r["metric"] == "trace_rel_err"}
    assert trace and not any(trace.values())
    if doc is None:
        assert set(trace) == {"cubic", "parallelepiped"}
    assert {(r["experiment"], r["metric"]) for r in rows
            if not r["passed"]} == failing


# --- the parser is built once; phi bases come from the eigen-tensors --------

def test_parser_is_built_once():
    from mdprolate import cli
    assert cli._build_parser() is cli._build_parser()


def test_errors_leave_the_shared_parser_as_it_was(twod_config, tmp_path, capsys):
    """A malformed ``--grid`` (one argparse rejects, one it passes through)
    exits 2 with its JSON error; the next call in the same process writes
    the bytes a fresh interpreter writes."""
    for grid in (["--grid"], ["--grid", "8xq"]):
        assert main(["spectrum", "--config", twod_config,
                     "--out", str(tmp_path / "bad"), *grid]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]
    argv = ["spectrum", "--config", twod_config, "--grid", "9x7"]
    assert main([*argv, "--out", str(tmp_path / "again")]) == 0
    src = str(Path(mdprolate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-m", "mdprolate.cli", *argv,
                    "--out", str(tmp_path / "fresh")], env=env, check=True,
                   capture_output=True)
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "again").iterdir())
    for name in names:
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes())


def test_phi_basis_is_orthonormal_at_readme_32(ref_spec_32, ref_spectrum_32):
    from mdprolate import build_phi
    from mdprolate.cli import _phi_basis
    phi = build_phi(ref_spec_32, 100, spec_spectrum=ref_spectrum_32)
    basis = _phi_basis(phi)
    assert basis.q.shape == (1024, 100) and basis.rank == 100
    gram = basis.q.conj().T @ basis.q
    assert np.max(np.abs(gram - np.eye(100))) <= 1e-12
    empty = _phi_basis(build_phi(ref_spec_32, 0, spec_spectrum=ref_spectrum_32))
    assert empty.q.shape == (1024, 0) and empty.rank == 0


README_DOC = {"dim": 2,
              "cubic": [{"center": [-0.15, -0.10], "half_widths": [0.10, 0.10]},
                        {"center": [0.20, 0.15], "half_widths": [0.10, 0.10]}],
              "grid": [32, 32]}


@pytest.mark.parametrize("argv", [["dict"], ["approx", "--trials", "200"]],
                         ids=["dict", "approx"])
def test_phi_basis_reports_match_the_svd_basis(argv, tmp_path, monkeypatch):
    """The reports read through the stacked eigen-tensors agree with those
    read through ``orthonormalize``'s SVD basis of the same span."""
    from mdprolate import cli, orthonormalize
    cfg = write_config(tmp_path, README_DOC)

    def report(out):
        assert main([*argv, "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        rows = json.loads((out / f"{argv[0]}_report.json").read_text())
        return {r["metric"]: r["value"] for r in rows}

    got = report(tmp_path / "stacked")
    monkeypatch.setattr(cli, "_phi_basis", orthonormalize)
    ref = report(tmp_path / "svd")
    assert got.keys() == ref.keys()
    for metric, value in ref.items():
        assert abs(got[metric] - value) <= 1e-12, metric


# --- every flag is one its subcommand reads, checked as it is parsed ---------

SHARED = {"--config", "--out", "--format", "--seed", "--eps", "--grid"}
FLAGS = {
    ("spectrum",): SHARED | {"--vectors"},
    ("dict",): SHARED | {"--p", "--q"},
    ("approx",): SHARED | {"--trials", "--p", "--tolerance"},
    ("verify",): SHARED,
    ("bands", "validate"): {"--config"},
}


def _leaf_commands(parser, path=()):
    """``(command path, parser)`` of every subcommand that runs something."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_commands(child, (*path, name))


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    from mdprolate import cli
    flags = {path: {s for a in p._actions for s in a.option_strings}
             - {"-h", "--help"}
             for path, p in _leaf_commands(cli._build_parser())}
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 31


@pytest.mark.parametrize("argv", [
    ["spectrum", "--config", "{twod}", "--trials", "0"],
    ["spectrum", "--config", "{twod}", "--q", "a,b"],
    ["verify", "--p", "-5"],
    ["approx", "--config", "{twod}", "--q", "1"],
    ["dict", "--config", "{twod}", "--trials", "5"],
    ["bands", "validate", "--config", "{twod}", "--grid", "abc"],
    # Prefixes of flags the command takes are not those flags.
    ["approx", "--config", "{twod}", "--conf", "{twod}", "--tol", "0.3",
     "--tri", "5", "--form", "json"],
], ids=["spectrum-trials", "spectrum-q", "verify-p", "approx-q", "dict-trials",
        "validate-grid", "approx-prefixes"])
def test_a_flag_the_command_does_not_take_exits_2(argv, twod_config, tmp_path,
                                                  capsys):
    out = tmp_path / "o"
    argv = [a.format(twod=twod_config) for a in argv]
    if argv[0] != "bands":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("unrecognized arguments: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (["spectrum", "--eps", "0.7"], "argument --eps: eps must be in (0, 1/2)"),
    (["verify", "--seed", "-1"],
     "argument --seed: seed must fit in an unsigned 64-bit integer"),
    (["approx", "--trials", "0"], "argument --trials: trials must be >= 1"),
    (["approx", "--tolerance", "nan"],
     "argument --tolerance: tolerance must be finite and >= 0"),
    (["dict", "--q", "1,x"], "argument --q: q must be comma-separated integers"),
    (["spectrum", "--grid", "8xq"], "argument --grid: grid must be sizes >= 2"),
], ids=["eps", "seed", "trials", "tolerance", "q", "grid"])
def test_a_malformed_value_exits_2_naming_its_flag(argv, error, twod_config,
                                                   tmp_path, capsys):
    out = tmp_path / "o"
    assert main([*argv, "--config", twod_config, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]
    assert message.startswith(error)
    assert message.endswith(f", got {argv[-1]!r}")
    assert captured.out == ""
    assert not out.exists()


def test_vectors_without_a_1d_operator_exits_2_before_any_solve(
        twod_config, tmp_path, monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("an operator was solved before --vectors was checked")

    monkeypatch.setattr(np.linalg, "eigh", solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", twod_config, "--out", str(out),
                 "--vectors"]) == 2
    captured = capsys.readouterr()
    assert "--vectors" in json.loads(captured.err.strip())["error"]
    assert captured.out == ""
    assert not out.exists()


def test_dict_report_csv_reads_back_with_the_csv_module(tmp_path):
    out = tmp_path / "o"
    assert main(["dict", "--config", write_config(tmp_path, README_DOC),
                 "--out", str(out)]) == 0
    with (out / "dict_report.csv").open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["experiment", "params", "metric", "value", "tolerance",
                       "passed"]
    assert len(rows) == 4 and all(len(row) == 6 for row in rows)
    assert {row[1] for row in rows[1:]} == {"grid=32x32;eps=0.2;p=100;q=32,32"}


def test_approx_sizes_phi_as_dict_does(tmp_path):
    """approx, dict and verify read one (1 +/- eps) rule: p = 100 on the
    README union at 32x32, where ceil(N * measure * (1 + eps)) is 99."""
    out = tmp_path / "o"
    assert main(["approx", "--config", write_config(tmp_path, README_DOC),
                 "--out", str(out), "--trials", "200", "--format", "json"]) == 0
    rows = json.loads((out / "approx_report.json").read_text())
    assert {row["params"] for row in rows} == {
        "grid=32x32;p=100;rank=100;trials=200;seed=0"}
