"""End-to-end command-line runs: artifacts, manifests, exit codes."""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magpol.cli import main

TWO_PI = 2.0 * math.pi
ROOT = Path(__file__).resolve().parents[1]


def _write_config(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _active_system(**extra):
    sys_blk = {
        "kind": "active",
        "gamma_mhz_over_2pi": 10.3,
        "g_mhz_over_2pi": 25.0,
        "kerr_uhz_over_2pi": 3.2,
        "gamma_sat_uhz_over_2pi": 0.8,
    }
    sys_blk.update(extra)
    return sys_blk


def _sweep_doc(**sweep_over):
    sweep = {
        "detuning_start_mhz_over_2pi": -60.0,
        "detuning_stop_mhz_over_2pi": -50.0,
        "steps": 4,
        "t_total_us": 1.0,
        "t_drop_us": 0.25,
    }
    sweep.update(sweep_over)
    return {
        "format_version": 1,
        "system": _active_system(gain_mhz_over_2pi=15.45),
        "sweep": sweep,
    }


def _grid_doc():
    return {
        "format_version": 1,
        "system": {
            "kind": "passive",
            "kappa_mhz_over_2pi": 1.5,
            "gamma_mhz_over_2pi": 16.5,
            "g_mhz_over_2pi": 30.0,
            "kerr_nhz_over_2pi": 9.8,
            "delta_c_mhz_over_2pi": 80.0,
        },
        "grid": {
            "x_axis": "n0",
            "n0_min": 1e13,
            "n0_max": 1e15,
            "x_count": 3,
            "delta_m_min_mhz_over_2pi": -100.0,
            "delta_m_max_mhz_over_2pi": -60.0,
            "delta_m_count": 3,
        },
    }


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cli_import_leaves_scipy_unloaded():
    import magpol
    src = Path(magpol.__file__).resolve().parents[1]
    code = ("import sys, magpol.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_photon_only_limit_cycle(tmp_path):
    cfg = _write_config(tmp_path, {
        "format_version": 1,
        "system": _active_system(g_mhz_over_2pi=0.0,
                                 kerr_uhz_over_2pi=0.0,
                                 gain_mhz_over_2pi=2.0,
                                 gamma_sat_uhz_over_2pi=2.0),
    })
    assert main(["fixed-points", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "fixed_points.json").read_text())
    assert payload["phase"] == "1S+0U"
    (rec,) = payload["fixed_points"]
    # g = 0: the oscillator saturates at n_a = G_eff / gamma_sat
    assert rec["n_a"] == pytest.approx(1e12, rel=1e-9)
    assert rec["n_m"] == pytest.approx(0.0, abs=1e-12)
    assert rec["omega_mhz_over_2pi"] == pytest.approx(0.0, abs=1e-12)


def test_shipped_bistable_point(tmp_path, capsys):
    assert main(["fixed-points",
                 "--config", str(ROOT / "configs" /
                                 "active_bistable_point.json"),
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fixed_points.json").read_text())
    assert payload["phase"] == "2S+1U"
    assert payload["counts"] == {"stable": 2, "unstable": 1, "marginal": 0}
    assert "phase 2S+1U" in capsys.readouterr().out
    labels = [r["classification"] for r in payload["fixed_points"]]
    assert labels.count("stable") == 2 and labels.count("unstable") == 1
    for rec in payload["fixed_points"]:
        assert rec["residual_per_us"] < 1e-6
        # rounding-level polish defects are written as exactly zero
        assert rec["residual_per_us"] == 0.0


def test_manifest_rerun_is_byte_identical(tmp_path):
    jobs = [
        ("fixed-points", _write_config(tmp_path, {
            "format_version": 1,
            "system": _active_system(gain_mhz_over_2pi=15.45,
                                     delta_m_mhz_over_2pi=-46.4),
        }, "fp.json"), ["fixed_points.json"]),
        ("phase-diagram", _write_config(tmp_path, _grid_doc(), "pd.json"),
         ["stable_count.csv", "unstable_count.csv", "marginal_count.csv",
          "blank.csv", "errors.csv", "phase_diagram.json"]),
        ("sweep", _write_config(tmp_path, _sweep_doc(), "sw.json"),
         ["sweep.csv"]),
    ]
    for cmd, cfg, artifacts in jobs:
        first = tmp_path / f"{cmd}-1"
        second = tmp_path / f"{cmd}-2"
        assert main([cmd, "--config", cfg, "--out", str(first)]) == 0
        assert main([cmd, "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        for name in artifacts + ["manifest.json"]:
            assert filecmp.cmp(first / name, second / name,
                               shallow=False), f"{cmd}/{name} differs"


def test_resolution_override(tmp_path):
    cfg = _write_config(tmp_path, _grid_doc())
    out = tmp_path / "out"
    assert main(["phase-diagram", "--config", cfg, "--out", str(out),
                 "--resolution", "3x4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["x_count"] == 3
    assert manifest["grid"]["delta_m_count"] == 4
    rows = _read_csv_rows(out / "stable_count.csv")
    assert len(rows) == 4 and all(len(r) == 3 for r in rows)

    assert main(["phase-diagram", "--config", cfg, "--out", str(out),
                 "--resolution", "3by4"]) == 2


def test_phase_diagram_sidecar(tmp_path):
    cfg = _write_config(tmp_path, _grid_doc())
    out = tmp_path / "out"
    assert main(["phase-diagram", "--config", cfg, "--out", str(out)]) == 0
    side = json.loads((out / "phase_diagram.json").read_text())
    assert side["x_axis"] == "n0"
    assert side["rows_are"] == "delta_m"
    assert len(side["x_values"]) == 3
    assert len(side["delta_m_mhz_over_2pi"]) == 3
    assert side["delta_m_mhz_over_2pi"][0] == pytest.approx(-100.0)
    assert sum(side["region_summary"].values()) == 9
    assert side["onset_review_rows"] == []


def test_sweep_csv_schema_and_memory_columns(tmp_path):
    cfg = _write_config(tmp_path, _sweep_doc())
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv_rows(out / "sweep.csv")
    assert rows[0] == ["k", "delta_m0_mhz_over_2pi", "delta_eff_mhz_over_2pi",
                       "omega_mhz_over_2pi", "confidence", "low_confidence",
                       "diverged"]
    body = rows[1:]
    assert len(body) == 4
    assert [int(r[0]) for r in body] == [0, 1, 2, 3]
    for r in body:
        assert r[5] in ("true", "false") and r[6] in ("true", "false")
        assert math.isfinite(float(r[3]))
    # the first step starts from omega_initial = 0, so nominal == effective
    assert float(body[0][1]) == float(body[0][2])


def test_all_zero_seed_sweep_records_unfittable_steps(tmp_path):
    """The active origin is a fixed point, so a zero seed never leaves
    it: every step has a window without power, which is flagged, not
    fatal."""
    doc = json.loads((ROOT / "configs" / "sweep_low_gain.json").read_text())
    doc.pop("out")
    doc["sweep"]["steps"] = 3
    doc["sweep"]["seed_state"] = {"a_re": 0.0, "a_im": 0.0,
                                  "m_re": 0.0, "m_im": 0.0}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    body = _read_csv_rows(out / "sweep.csv")[1:]
    assert [int(r[0]) for r in body] == [0, 1, 2]
    for r in body:
        assert math.isnan(float(r[3]))
        assert float(r[4]) == 0.0
        assert r[5] == "true" and r[6] == "false"
        # no fitted offset, so the detuning is never re-centered
        assert float(r[1]) == float(r[2])


def test_memoryless_sweep_has_no_detuning_shift(tmp_path):
    cfg = _write_config(tmp_path, _sweep_doc(memory_detuning=False,
                                             memory_state=False))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    for r in _read_csv_rows(out / "sweep.csv")[1:]:
        assert float(r[1]) == float(r[2])


def test_sweep_spectrogram_artifacts(tmp_path):
    doc = _sweep_doc()
    doc["spectrogram"] = {"f_min_mhz": -80.0, "f_max_mhz": 80.0}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    axes = json.loads((out / "spectrogram_axes.json").read_text())
    mat = np.array([[float(v) for v in r]
                    for r in _read_csv_rows(out / "spectrogram.csv")])
    assert mat.shape == (len(axes["freqs_mhz"]),
                         len(axes["detunings_mhz_over_2pi"]))
    assert mat.shape[1] == 4
    assert min(axes["freqs_mhz"]) >= -80.0
    assert max(axes["freqs_mhz"]) <= 80.0
    assert np.allclose(mat.max(axis=0), 1.0)


def test_fit_commands_on_shipped_data(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # shipped configs use repo-relative data paths
    out = tmp_path / "s11"
    assert main(["fit-s11", "--config", "configs/s11_fit.json",
                 "--out", str(out)]) == 0
    fit = json.loads((out / "fit_s11.json").read_text())
    assert fit["omega_m_ghz_over_2pi"] == pytest.approx(3.05, rel=1e-5)
    assert fit["kappa_a_mhz_over_2pi"] == pytest.approx(4.0, rel=1e-2)
    assert fit["gamma_mhz_over_2pi"] == pytest.approx(10.3, rel=1e-2)
    assert fit["kappa_load_mhz_over_2pi"] == pytest.approx(
        fit["kappa_a_mhz_over_2pi"] + fit["gamma_mhz_over_2pi"], rel=1e-12)

    out = tmp_path / "kittel"
    assert main(["fit-kittel", "--config", "configs/kittel_fit.json",
                 "--out", str(out)]) == 0
    fit = json.loads((out / "fit_kittel.json").read_text())
    assert fit["gamma_e_mhz_per_mt"] == pytest.approx(28.2, rel=1e-6)
    assert fit["anisotropy_mt"] == pytest.approx(-3.35, rel=1e-4)


def test_exit_code_2_on_config_problems(tmp_path, capsys):
    def expect_2(doc, command, fragment):
        cfg = _write_config(tmp_path, doc)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert fragment in err, f"{fragment!r} not in {err!r}"

    doc = _sweep_doc()
    doc["system"]["bogus"] = 1.0
    expect_2(doc, "sweep", "$.system: unknown key(s): bogus")

    doc = _sweep_doc()
    doc["system"]["gamma_ghz_over_2pi"] = 0.0103
    expect_2(doc, "sweep", "conflicting unit variants for gamma")

    doc = _sweep_doc()
    doc["system"]["delta_m_mhz_over_2pi"] = -46.4
    expect_2(doc, "sweep", "$.system.delta_m_mhz_over_2pi")

    doc = {
        "format_version": 1,
        "system": _active_system(),
        "grid": dict(_grid_doc()["grid"], x_axis="gain"),
    }
    expect_2(doc, "phase-diagram",
             "$.grid.gain_min_mhz_over_2pi: missing required key")

    doc = _sweep_doc()
    del doc["system"]["gain_mhz_over_2pi"]
    expect_2(doc, "sweep", "gain_mhz_over_2pi: missing required key")

    doc = _sweep_doc()
    doc["format_version"] = 99
    expect_2(doc, "sweep", "unsupported version 99")

    doc = _sweep_doc()
    doc["command"] = "fixed-points"
    expect_2(doc, "sweep", "config was written for 'fixed-points'")

    doc = _sweep_doc()
    doc["system"]["gamma_mhz_over_2pi"] = -1.0
    expect_2(doc, "sweep", "below the minimum")

    expect_2({"format_version": 1}, "fixed-points",
             "$.system: missing required block")

    # passive steady-state runs demand a drive block
    passive = {
        "format_version": 1,
        "system": {
            "kind": "passive",
            "kappa_mhz_over_2pi": 1.5,
            "gamma_mhz_over_2pi": 16.5,
            "g_mhz_over_2pi": 30.0,
        },
    }
    expect_2(passive, "fixed-points", "$.drive")

    both = dict(passive)
    both["drive"] = {"n0": 1e12, "eta_per_us": 1e5}
    expect_2(both, "fixed-points", "drive")

    assert main(["fixed-points", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2


def test_gain_forbidden_with_gain_axis(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "system": _active_system(gain_mhz_over_2pi=15.0),
        "grid": {
            "x_axis": "gain",
            "gain_min_mhz_over_2pi": 10.0,
            "gain_max_mhz_over_2pi": 22.0,
            "x_count": 2,
            "delta_m_min_mhz_over_2pi": -70.0,
            "delta_m_max_mhz_over_2pi": -25.0,
            "delta_m_count": 2,
        },
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["phase-diagram", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 2
    assert "gain is set by the grid block" in capsys.readouterr().err


def test_exit_code_1_on_fit_failures(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    lines = ["freq_unit,GHz"]
    for i in range(40):
        f = 3.00 + 0.002 * i
        lines.append(f"{f},{1.0 - 0.001 * math.sin(i)}")
    flat.write_text("\n".join(lines) + "\n")
    cfg = _write_config(tmp_path, {"format_version": 1,
                                   "data_csv": str(flat)})
    assert main(["fit-s11", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 1
    assert "no dip in spectrum" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("freq_unit,GHz\n")
    cfg = _write_config(tmp_path, {"format_version": 1,
                                   "data_csv": str(empty)})
    assert main(["fit-s11", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 2
    assert "no data rows" in capsys.readouterr().err
