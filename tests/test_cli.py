import json

import numpy as np
import pytest

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


def test_verify_corrupted_kernel(tmp_path, monkeypatch):
    monkeypatch.setenv("MDPROLATE_TEST_CORRUPT", "1")
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


@pytest.mark.parametrize("argv, env", [
    (["spectrum", "--config", "{twod}", "--grid", "100x100"], None),
    (["verify", "--grid", "100x100"], None),
    (["dict", "--config", "{twod}", "--q", "a,b"], None),
    (["dict", "--config", "{oned}"], None),
    (["verify"], "abc"),
], ids=["spectrum-size-cap", "verify-size-cap", "dict-bad-q", "dict-1d",
        "bad-threads"])
def test_malformed_input_exits_2_with_json(argv, env, tmp_path, monkeypatch,
                                            capsys):
    if env is not None:
        monkeypatch.setenv("MDPROLATE_THREADS", env)
    paths = {"twod": write_config(tmp_path, TWOD_DOC, "twod.json"),
             "oned": write_config(tmp_path, ONED_DOC, "oned.json")}
    argv = [a.format(**paths) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]


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
