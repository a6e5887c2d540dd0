"""End-to-end command-line runs: artifacts, manifests, exit codes."""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _cases import spectrogram, sweep_windows
from _digests import of_files, pinned
from magpol import config, dynamics, phasemap
from magpol.cli import _write_json, _write_matrix_csv, main
from magpol.errors import DivergenceError
from magpol.model import Rates
from magpol.spectral import spectrum_freqs

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


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """Neither start-up nor a phase-diagram run, even with
    ``--threads 2``, loads scipy (only fit-s11 needs it),
    ``concurrent.futures`` or ``multiprocessing``: a scan runs in the
    calling thread."""
    import magpol
    src = Path(magpol.__file__).resolve().parents[1]
    root = src.parent
    lazy = ("scipy", "multiprocessing", "concurrent.futures")
    argv = ["phase-diagram", "--config",
            str(root / "configs" / "active_gain_map.json"), "--threads", "2",
            "--resolution", "12x9", "--out", str(tmp_path)]

    def loaded(names):
        return (f"print(sorted(m for m in sys.modules for p in {names!r} "
                f"if m == p or m.startswith(p + '.')))")

    for code in (f"import sys, magpol.cli; {loaded(lazy)}",
                 f"import sys, magpol.cli; "
                 f"assert magpol.cli.main({argv!r}) == 0; {loaded(lazy)}"):
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        # the last line: a scan prints its summary first
        assert out.stdout.splitlines()[-1] == "[]", out.stdout


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


# every shipped config and the command it is written for
SHIPPED_CONFIGS = {
    "active_bistable_point": "fixed-points",
    "active_gain_map": "phase-diagram",
    "active_photon_number_map": "phase-diagram",
    "passive_detuned_map": "phase-diagram",
    "passive_zero_detuning_map": "phase-diagram",
    "sweep_sidebands": "sweep",
    "sweep_low_gain": "sweep",
    "sweep_broadband": "sweep",
    "s11_fit": "fit-s11",
    "kittel_fit": "fit-kittel",
}


def test_shipped_config_table_covers_the_directory():
    names = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert names == sorted(SHIPPED_CONFIGS)


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_config_manifest_is_a_fixpoint(tmp_path, name):
    command = SHIPPED_CONFIGS[name]
    run = config.parse_run(
        config.load_config(str(ROOT / "configs" / f"{name}.json")), command)
    again = config.parse_run(run.resolved, command)
    assert again.resolved == run.resolved
    _write_json(str(tmp_path / "first.json"), run.resolved)
    _write_json(str(tmp_path / "second.json"), again.resolved)
    assert filecmp.cmp(tmp_path / "first.json", tmp_path / "second.json",
                       shallow=False)


# what each command writes besides manifest.json
ARTIFACTS = {
    "fixed-points": ["fixed_points.json"],
    "phase-diagram": ["blank.csv", "errors.csv", "marginal_count.csv",
                      "phase_diagram.json", "stable_count.csv",
                      "unstable_count.csv"],
    "sweep": ["sweep.csv"],
    "fit-s11": ["fit_s11.json"],
    "fit-kittel": ["fit_kittel.json"],
}


def run_shipped(name, tmp_path):
    """Run the shipped config ``name`` from the repository root as
    written, cut only in size: maps at 12x9 and sweeps to 3 steps, with
    their own dt, t_total and t_drop. Returns its output folder."""
    command = SHIPPED_CONFIGS[name]
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    extra = ["--resolution", "12x9"] if command == "phase-diagram" else []
    if command == "sweep":
        doc["sweep"]["steps"] = 3
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path, doc),
                 "--out", str(out), *extra]) == 0
    return out


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_config_runs(tmp_path, monkeypatch, name):
    """Every shipped config runs as written, cut only in size (see
    ``run_shipped``), and writes the files pinned in digests.json."""
    monkeypatch.chdir(ROOT)  # shipped configs use repo-relative data paths
    command = SHIPPED_CONFIGS[name]
    expected = ARTIFACTS[command] + ["manifest.json"]
    if "spectrogram" in json.loads(
            (ROOT / "configs" / f"{name}.json").read_text()):
        expected += ["spectrogram.csv", "spectrogram_axes.json"]
    out = run_shipped(name, tmp_path)
    assert sorted(os.listdir(out)) == sorted(expected)
    assert of_files(out) == pinned("shipped")[name]


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
    assert main(["phase-diagram", "--config",
                 _write_config(tmp_path, _sweep_doc(), "sweep.json"),
                 "--out", str(out), "--resolution", "3x4"]) == 2


@pytest.mark.parametrize("config", ["active_gain_map", "passive_detuned_map"])
def test_phase_diagram_files_do_not_depend_on_threads(tmp_path, config):
    """``--threads`` has no effect: without it, with 1 and with 2 the
    run writes the same files, byte for byte."""
    cfg = str(ROOT / "configs" / f"{config}.json")
    runs = {"none": [], "1": ["--threads", "1"], "2": ["--threads", "2"]}
    for name, flag in runs.items():
        assert main(["phase-diagram", "--config", cfg,
                     "--out", str(tmp_path / name),
                     "--resolution", "12x9", *flag]) == 0
    names = sorted(os.listdir(tmp_path / "none"))
    assert "phase_diagram.json" in names and "errors.csv" in names
    for other in ("1", "2"):
        assert sorted(os.listdir(tmp_path / other)) == names, other
        for name in names:
            assert filecmp.cmp(tmp_path / "none" / name,
                               tmp_path / other / name, shallow=False), \
                (other, name)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_command_line_error(tmp_path, capsys,
                                                   threads):
    cfg, out = _write_config(tmp_path, _grid_doc()), tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["phase-diagram", "--config", cfg, "--out", str(out),
              "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --threads: must be at least 1, got {threads}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("matrix,expected", [
    (np.array([[True, False, True], [False, False, True]]),
     b"1,0,1\r\n0,0,1\r\n"),
    (np.array([[0, 3, -2], [32767, -32768, 1]], dtype=np.int16),
     b"0,3,-2\r\n32767,-32768,1\r\n"),
    (np.array([[0.1, 1e-300, -0.0], [1e16, np.nan, -np.inf],
               [1.0 / 3.0, 5e-324, 12.5]]),
     b"0.1,1e-300,-0.0\r\n1e+16,nan,-inf\r\n"
     b"0.3333333333333333,5e-324,12.5\r\n"),
], ids=["bool", "int16", "float"])
def test_matrix_csv_bytes(tmp_path, matrix, expected):
    path = tmp_path / "m.csv"
    _write_matrix_csv(str(path), matrix)
    assert path.read_bytes() == expected


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


def test_one_step_sweep_writes_one_row(tmp_path):
    cfg = _write_config(tmp_path, _sweep_doc(steps=1))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    (row,) = _read_csv_rows(out / "sweep.csv")[1:]
    assert row[0] == "0" and float(row[1]) == pytest.approx(-60.0)
    assert float(row[1]) == float(row[2]) and row[6] == "false"


def test_diverged_sweep_step_keeps_its_detuning(tmp_path, monkeypatch,
                                                capsys):
    """The step whose integration diverges is a row of its own: its
    effective detuning is the one its error text gives, its fit stays
    NaN, as do all of the steps after it, and the run exits 0."""
    integrate = dynamics.integrate_segment
    calls = []

    def diverge_on_step_2(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise DivergenceError("stub overflow", step=5)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_segment", diverge_on_step_2)
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write_config(tmp_path, _sweep_doc()),
                 "--out", str(out)]) == 0
    body = _read_csv_rows(out / "sweep.csv")[1:]
    assert [r[6] for r in body] == ["false", "false", "true", "false"]
    delta_eff = [float(r[2]) for r in body]
    omega = [float(r[3]) for r in body]
    assert all(map(math.isfinite, delta_eff[:3] + omega[:2]))
    assert math.isnan(delta_eff[3]) and math.isnan(omega[2])
    assert math.isnan(omega[3])
    # the diverged step was re-centered by step 1's fit, as any other
    assert delta_eff[2] == pytest.approx(float(body[2][1]) - omega[1],
                                         rel=1e-12)
    assert calls[2][1].delta_m == pytest.approx(TWO_PI * delta_eff[2],
                                                rel=1e-12)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("2/4 steps integrated; ")
    d_nom = TWO_PI * float(body[2][1])
    assert lines[-1] == (
        f"  diverged at step 2: step 2 (detuning {d_nom:.6g} rad/us, "
        f"effective {calls[2][1].delta_m:.6g}): stub overflow")


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


def test_sweep_spectrogram_axis_is_the_validated_axis(tmp_path):
    """The written axis is the one the config's crop check is made on:
    the protocol's window at the protocol's dt, cropped, bit for bit."""
    doc = _sweep_doc()
    doc["spectrogram"] = {"f_min_mhz": -80.0, "f_max_mhz": 80.0}
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    protocol = config.parse_run(doc, "sweep").protocol
    freqs = spectrum_freqs(protocol.window_samples(), protocol.dt)
    freqs = freqs[(freqs >= -80.0) & (freqs <= 80.0)]
    axes = json.loads((out / "spectrogram_axes.json").read_text())
    assert axes["freqs_mhz"] == [float(f) for f in freqs]


def test_sweep_spectrogram_stacks_the_kept_windows_columns(tmp_path):
    """The CLI turns each step's window into its column as the step
    ends; the matrix is byte-equal to the ``build_spectrogram`` columns
    of the windows that a consumer of ``run_sweep`` keeps copies of,
    stacked in step order."""
    doc = _sweep_doc()
    doc["spectrogram"] = {"f_min_mhz": -80.0, "f_max_mhz": 80.0}
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    run = config.parse_run(doc, "sweep")
    _, windows = sweep_windows(run.protocol, run.system,
                               initial_state=run.initial_state)
    _, mags = spectrogram([win.a for win in windows], run.protocol.dt,
                          -80.0, 80.0)
    _write_matrix_csv(str(tmp_path / "kept.csv"), mags)
    assert ((out / "spectrogram.csv").read_bytes()
            == (tmp_path / "kept.csv").read_bytes())


@pytest.mark.parametrize("spectrogram", [True, False],
                         ids=["with_spectrogram", "without_spectrogram"])
def test_sweep_peak_memory_grows_less_than_a_window_per_step(tmp_path,
                                                             spectrogram):
    """A sweep holds no step's window: each added step raises the peak
    traced memory of a ``sweep`` run by less than one photon window."""
    doc = _sweep_doc(t_total_us=1.0, t_drop_us=0.5)
    if spectrogram:
        doc["spectrogram"] = {"f_min_mhz": -80.0, "f_max_mhz": 80.0}
    window_bytes = 16 * config.parse_run(
        doc, "sweep").protocol.window_samples()

    def peak(steps: int) -> int:
        doc["sweep"]["steps"] = steps
        cfg = _write_config(tmp_path, doc, f"steps{steps}.json")
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / f"out{steps}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # warm-up: lazy imports and caches
    growth = (peak(24) - peak(8)) / 16
    assert growth < window_bytes, (
        f"peak grew {growth:.0f} bytes per step; a window is {window_bytes}")


def test_sweep_spectrogram_with_uneven_step_windows(tmp_path):
    """At dt 6e-4 a cut at each step's own start time + t_drop would
    keep 4833 samples on step 0 and 4834 on step 2. Every step keeps
    the protocol's one window instead, so the columns stack."""
    doc = json.loads((ROOT / "configs" / "sweep_sidebands.json").read_text())
    doc.pop("out")
    doc["sweep"].update(steps=3, dt_us=6e-4, t_total_us=5.0, t_drop_us=2.1)
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    mat = _read_csv_rows(out / "spectrogram.csv")
    assert len(mat) > 0 and all(len(r) == 3 for r in mat)


@pytest.mark.parametrize("change, fragment", [
    ({"spectrogram": {"f_min_mhz": 600.0, "f_max_mhz": 700.0}},
     "$.spectrogram: f_min_mhz..f_max_mhz holds no FFT bin"),
    ({"sweep": {"fit_fraction": 0.005}}, "$.sweep: fit_fraction 0.005 fits"),
], ids=["crop_without_bins", "fit_window_under_8_samples"])
def test_sweep_config_rejected_before_integration(tmp_path, capsys, change,
                                                  fragment):
    doc = _sweep_doc()
    for key, block in change.items():
        doc.setdefault(key, {}).update(block)
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()  # nothing integrated, nothing written


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


@pytest.mark.parametrize("name, dt_us, keep_spectrogram", [
    pytest.param("sweep_sidebands", 1e-300, True, id="sweep_sidebands"),
    pytest.param("sweep_low_gain", 1e-300, True, id="sweep_low_gain"),
    # 4e18 samples: fewer than an index counts, but 32 bytes each are not
    pytest.param("sweep_sidebands", 2e-18, True,
                 id="samples_of_32_bytes_with_spectrogram"),
    pytest.param("sweep_sidebands", 2e-18, False,
                 id="samples_of_32_bytes_without_spectrogram"),
])
def test_sweep_step_an_array_cannot_index_is_a_config_error(
        name, dt_us, keep_spectrogram, tmp_path, capsys, monkeypatch):
    # a spectrogram block sizes its FFT bins from the step at parse time;
    # without one, only the integrator would reach the step
    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(dynamics, "integrate_segment", no_integration)
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["sweep"].update(steps=2, dt_us=dt_us)
    if not keep_spectrogram:
        doc.pop("spectrogram")
    out = tmp_path / "x"
    assert main(["sweep", "--config", _write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    assert "more than an array can index" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spectrogram", [True, False],
                         ids=["with_spectrogram", "without_spectrogram"])
def test_sweep_step_memory_cannot_hold_exits_1(tmp_path, capsys, monkeypatch,
                                               spectrogram):
    # 8e15 RK4 steps per step: the spectrogram's FFT axis cannot be
    # allocated at parse time, nor the integrator's samples before its
    # first step. The integrator rescales its rates after allocating and
    # before the first step, and nothing else in a sweep rescales them.
    def no_step(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(Rates, "rescale", no_step)
    doc = json.loads((ROOT / "configs" / "sweep_sidebands.json").read_text())
    doc["sweep"].update(steps=2, dt_us=1e-15)
    if not spectrogram:
        doc.pop("spectrogram")
    out = tmp_path / "x"
    start = time.monotonic()
    _expect_one_error_line(["sweep", "--config", _write_config(tmp_path, doc),
                            "--out", str(out)], 1, capsys, "out of memory")
    assert time.monotonic() - start < 10.0
    assert not (out / "sweep.csv").exists()


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
    doc["seed"] = 7  # runs are deterministic; there is no seed to set
    expect_2(doc, "sweep", "$: unknown key(s): seed")

    doc = _sweep_doc()
    doc["format_version"] = 99
    expect_2(doc, "sweep", "unsupported version 99")

    doc = _sweep_doc()
    del doc["format_version"]
    expect_2(doc, "sweep", "$.format_version: missing required key")

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


def test_active_zero_gamma(tmp_path, capsys):
    """The active steady-state solve needs gamma > 0, so fixed-points
    and phase-diagram runs reject gamma = 0 at parse time; a sweep
    integrates the equations and accepts it."""
    fp = {"format_version": 1,
          "system": _active_system(gamma_mhz_over_2pi=0.0,
                                   gain_mhz_over_2pi=15.45)}
    pd = {"format_version": 1,
          "system": _active_system(gamma_mhz_over_2pi=0.0),
          "grid": {"x_axis": "gain", "gain_min_mhz_over_2pi": -2.0,
                   "gain_max_mhz_over_2pi": 22.0, "x_count": 2,
                   "delta_m_min_mhz_over_2pi": -70.0,
                   "delta_m_max_mhz_over_2pi": -25.0, "delta_m_count": 2}}
    for command, doc in (("fixed-points", fp), ("phase-diagram", pd)):
        out = tmp_path / command
        assert main([command, "--config", _write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert ("$.system.gamma_mhz_over_2pi: 0.0 maps to 0.0 rad/us, "
                "must be > 0.0") in capsys.readouterr().err
        assert not out.exists()

    sweep = _sweep_doc(steps=2)
    sweep["system"]["gamma_mhz_over_2pi"] = 0.0
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_config(tmp_path, sweep),
                 "--out", str(out)]) == 0
    assert len(_read_csv_rows(out / "sweep.csv")) == 3


def test_passive_drive_overflow_is_a_conditioning_error(tmp_path, capsys):
    """n0 = 1e300 overflows the cube that scales the passive cubic."""
    system = _grid_doc()["system"]
    fp = {"format_version": 1, "system": system, "drive": {"n0": 1e300}}
    assert main(["fixed-points", "--config", _write_config(tmp_path, fp),
                 "--out", str(tmp_path / "fp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: passive cubic: ") and err.count("\n") == 1

    pd = _grid_doc()
    pd["grid"].update(n0_min=1e13, n0_max=1e300, x_count=2, delta_m_count=2)
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--config", _write_config(tmp_path, pd),
                 "--out", str(out)]) == 0
    side = json.loads((out / "phase_diagram.json").read_text())
    assert _read_csv_rows(out / "errors.csv") == [["0", "1"], ["0", "1"]]
    assert sorted(side["error_messages"]) == ["0,1", "1,1"]
    for msg in side["error_messages"].values():
        assert msg.startswith("ConditioningError: passive cubic: ")


def test_passive_map_drive_overflow_is_a_bare_cavity_error(tmp_path):
    """An n0 whose drive amplitude overflows a float fails its cells
    with the bare-cavity overflow, and no numpy warning is printed."""
    doc = json.loads((ROOT / "configs" / "passive_detuned_map.json")
                     .read_text())
    doc["grid"].update(n0_min=1e300, n0_max=1e307)
    out = tmp_path / "pd"
    run = _run_cli("phase-diagram", "--config", _write_config(tmp_path, doc),
                   "--resolution", "2x2", "--out", str(out))
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    side = json.loads((out / "phase_diagram.json").read_text())
    for iy in range(2):
        assert side["error_messages"][f"{iy},1"].startswith(
            "ConditioningError: bare cavity: eta^2 / ((kappa/2)^2 + "
            "delta_c^2) overflows (eta = inf /us")


def _passive_system(**over):
    return dict(_grid_doc()["system"], **over)


def _expect_one_error_line(argv, code, capsys, fragment):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err, f"{fragment!r} not in {err!r}"


def test_huge_kappa_is_a_conditioning_error(tmp_path, capsys):
    """(kappa/2)^2 overflows a float: every passive command says so."""
    system = _passive_system(kappa_mhz_over_2pi=1e200)
    sweep = dict(_sweep_doc(steps=2)["sweep"])
    out = str(tmp_path / "x")
    for command, extra, code, fragment in (
            ("fixed-points", {"drive": {"eta_per_us": 1e3}}, 1,
             "error: bare cavity: ((kappa/2)^2 + delta_c^2) overflows"),
            ("fixed-points", {"drive": {"n0": 1e9}}, 2,
             "error: $.drive: bare cavity: ((kappa/2)^2"),
            ("sweep", {"drive": {"eta_per_us": 1e3}, "sweep": sweep}, 1,
             "error: bare cavity: ((kappa/2)^2 + delta_c^2) overflows")):
        doc = {"format_version": 1, "system": system, **extra}
        _expect_one_error_line(
            [command, "--config", _write_config(tmp_path, doc), "--out",
             out], code, capsys, fragment)

    pd = _grid_doc()
    pd["system"] = system
    pd["grid"].update(x_count=2, delta_m_count=2)
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--config", _write_config(tmp_path, pd),
                 "--out", str(out)]) == 0
    side = json.loads((out / "phase_diagram.json").read_text())
    assert len(side["error_messages"]) == 4
    for msg in side["error_messages"].values():
        assert msg.startswith("ConditioningError: bare cavity: ")


def test_degenerate_passive_map_is_rejected(tmp_path, capsys):
    """With kappa = delta_c = 0 no n0 maps to a drive, which would make
    every cell an error: the map is rejected while parsing, as a
    degenerate n0 drive is."""
    pd = _grid_doc()
    pd["system"] = _passive_system(kappa_mhz_over_2pi=0.0)
    del pd["system"]["delta_c_mhz_over_2pi"]
    out = tmp_path / "pd"
    _expect_one_error_line(
        ["phase-diagram", "--config", _write_config(tmp_path, pd),
         "--resolution", "6x5", "--out", str(out)], 2, capsys,
        "error: $.grid.x_axis: degenerate mapping: kappa and delta_c both "
        "zero")
    assert not out.exists()


def test_passive_sweep_drive_overflow_is_a_conditioning_error(tmp_path,
                                                              capsys):
    """eta^2 overflows a float before the sweep sizes its scale."""
    doc = {"format_version": 1, "system": _passive_system(),
           "drive": {"eta_per_us": 1e300},
           "sweep": dict(_sweep_doc(steps=2)["sweep"])}
    _expect_one_error_line(
        ["sweep", "--config", _write_config(tmp_path, doc), "--out",
         str(tmp_path / "x")], 1, capsys,
        "error: bare cavity: eta^2 / ((kappa/2)^2 + delta_c^2) overflows "
        "(eta = 1.000000e+300 /us")


def test_weak_passive_drive(tmp_path, capsys):
    """eta = 1e-200 underflows n0 to 0: the steady-state solve, which
    scales by sqrt(n0), refuses it; a sweep integrates at scale 1."""
    doc = {"format_version": 1, "system": _passive_system(),
           "drive": {"eta_per_us": 1e-200}}
    _expect_one_error_line(
        ["fixed-points", "--config", _write_config(tmp_path, doc), "--out",
         str(tmp_path / "fp")], 1, capsys,
        "underflows the bare-cavity photon number to 0")

    doc["sweep"] = dict(_sweep_doc(steps=2)["sweep"])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert len(_read_csv_rows(out / "sweep.csv")) == 3


def test_undamped_resonant_magnon_is_a_conditioning_error(tmp_path, capsys):
    """With gamma = 0, no Kerr and delta_m = 0 the magnon's response to
    the cavity is singular: fixed-points exits 1 and says so."""
    system = {"kind": "passive", "kappa_mhz_over_2pi": 1.5,
              "gamma_mhz_over_2pi": 0.0, "g_mhz_over_2pi": 30.0}
    doc = {"format_version": 1, "system": system,
           "drive": {"eta_per_us": 1e3}}
    _expect_one_error_line(
        ["fixed-points", "--config", _write_config(tmp_path, doc), "--out",
         str(tmp_path / "fp")], 1, capsys, "magnon response singular")


def test_all_zero_rates_give_a_marginal_origin(tmp_path):
    """A passive system with every rate and the drive 0 has no rate
    scale; its tolerances use 1, so the origin's residual quantum is
    not 0 and the run writes one marginal point."""
    system = {k: 0.0 for k in _passive_system()}
    system["kind"] = "passive"
    doc = {"format_version": 1, "system": system,
           "drive": {"eta_per_us": 0.0}}
    assert main(["fixed-points", "--config", _write_config(tmp_path, doc),
                 "--out", str(tmp_path / "fp")]) == 0
    payload = json.loads((tmp_path / "fp" / "fixed_points.json").read_text())
    assert payload["counts"] == {"stable": 0, "unstable": 0, "marginal": 1}
    (rec,) = payload["fixed_points"]
    assert rec["a0"] == rec["m0"] == [0.0, 0.0]
    assert rec["residual_per_us"] == 0.0


def test_huge_sweep_seed_is_a_conditioning_error(tmp_path, capsys):
    doc = _sweep_doc(steps=2, seed_state={"a_re": 1e200})
    _expect_one_error_line(
        ["sweep", "--config", _write_config(tmp_path, doc), "--out",
         str(tmp_path / "x")], 1, capsys,
        "error: photon or magnon number of ModeState(a=(1e+200+0j), m=0j, "
        "t=0.0) overflows")


def test_active_sweep_scale_overflow_is_a_conditioning_error(tmp_path,
                                                             capsys):
    """G_eff / gamma_sat overflows a float before the sweep sizes its
    scale and default seed: the error names the rates, not a seed key
    the config never set."""
    doc = _sweep_doc(steps=2)
    doc["system"] = _active_system(gain_mhz_over_2pi=1e20,
                                   gamma_sat_nhz_over_2pi=1e-290)
    del doc["system"]["gamma_sat_uhz_over_2pi"]
    _expect_one_error_line(
        ["sweep", "--config", _write_config(tmp_path, doc), "--out",
         str(tmp_path / "x")], 1, capsys,
        "error: saturated cavity: G_eff / gamma_sat overflows (G_eff = "
        "6.283185e+20, gamma_sat = 6.283185e-305 rad/us)")


def test_saturated_photon_overflow_is_a_conditioning_error(tmp_path):
    """An active system whose G_eff / gamma_sat overflows a float ends
    with that ConditioningError, not a NaN root or eigenvalue solve:
    one error line for fixed-points, coupled or not (g = 0), and the
    error text in every cell of a map, with no numpy warning."""
    system = _active_system(gain_mhz_over_2pi=1e4, delta_m_mhz_over_2pi=-46.4,
                            gamma_sat_nhz_over_2pi=1e-290)
    del system["kerr_uhz_over_2pi"], system["gamma_sat_uhz_over_2pi"]
    message = ("saturated cavity: G_eff / gamma_sat overflows (G_eff = "
               "{:.6e}, gamma_sat = 6.283185e-305 rad/us)")
    for g in (25.0, 0.0):
        doc = {"format_version": 1,
               "system": {**system, "g_mhz_over_2pi": g}}
        out = _run_cli("fixed-points", "--config",
                       _write_config(tmp_path, doc),
                       "--out", str(tmp_path / f"fp{g}"))
        assert out.returncode == 1
        assert out.stderr == "error: " + message.format(TWO_PI * 1e4) + \
            "\n", out.stderr

    del system["gain_mhz_over_2pi"], system["delta_m_mhz_over_2pi"]
    pd = {"format_version": 1, "system": system,
          "grid": {"x_axis": "gain", "gain_min_mhz_over_2pi": 1e4,
                   "gain_max_mhz_over_2pi": 2e4, "x_count": 2,
                   "delta_m_min_mhz_over_2pi": -70.0,
                   "delta_m_max_mhz_over_2pi": -25.0, "delta_m_count": 2}}
    out = _run_cli("phase-diagram", "--config", _write_config(tmp_path, pd),
                   "--out", str(tmp_path / "pd"))
    assert out.returncode == 0 and out.stderr == "", out.stderr
    side = json.loads((tmp_path / "pd" / "phase_diagram.json").read_text())
    assert side["error_messages"] == {
        f"{iy},{ix}": "ConditioningError: " + message.format(TWO_PI * gain)
        for iy in range(2) for ix, gain in enumerate((1e4, 2e4))}


def _run_cli(*argv):
    """One CLI run in its own process, so a traceback would show."""
    import magpol
    env = {**os.environ,
           "PYTHONPATH": str(Path(magpol.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "magpol.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_extreme_active_rates_print_no_numpy_warnings(tmp_path):
    """Overflowing quintic coefficients are reported, not warned about:
    stderr holds the one error line of a fixed-points run and nothing
    for a map whose cells all fail. A subnormal Kerr term, whose
    leading coefficient no reciprocal could take, is solved like no
    Kerr term: same points, same map, and nothing on stderr."""
    def run(command, doc, out=None):
        return _run_cli(command, "--config", _write_config(tmp_path, doc),
                        "--out", str(tmp_path / (out or command)))

    for key, value in (("gain_mhz_over_2pi", 1e200),
                       ("kerr_mhz_over_2pi", 1e250),
                       ("gamma_sat_nhz_over_2pi", 1e-290),
                       ("g_mhz_over_2pi", 1e200)):
        system = _active_system(gain_mhz_over_2pi=15.45)
        system.pop(key.rsplit("_", 3)[0] + "_uhz_over_2pi", None)
        system[key] = value
        out = run("fixed-points", {"format_version": 1, "system": system})
        assert out.returncode == 1
        assert out.stderr == ("error: active quintic: non-finite "
                              "polynomial coefficients\n"), out.stderr

    def map_doc(system, gains):
        return {"format_version": 1, "system": system,
                "grid": {"x_axis": "gain",
                         "gain_min_mhz_over_2pi": gains[0],
                         "gain_max_mhz_over_2pi": gains[1], "x_count": 2,
                         "delta_m_min_mhz_over_2pi": -100.0,
                         "delta_m_max_mhz_over_2pi": -60.0,
                         "delta_m_count": 2}}

    for system, gains in ((_active_system(), (1e199, 1e200)),
                          (_active_system(g_mhz_over_2pi=1e200), (5, 10))):
        out = run("phase-diagram", map_doc(system, gains))
        assert out.returncode == 0 and out.stderr == "", out.stderr
        side = json.loads(
            (tmp_path / "phase-diagram" / "phase_diagram.json").read_text())
        assert set(side["error_messages"].values()) == {
            "ConditioningError: active quintic: non-finite polynomial "
            "coefficients"}

    for kerr in (1e-160, 0.0):
        system = _active_system(kerr_uhz_over_2pi=kerr)
        for command, doc in (
                ("fixed-points", {"format_version": 1, "system": {
                    **system, "gain_mhz_over_2pi": 15.45}}),
                ("phase-diagram", map_doc(system, (15, 20)))):
            out = run(command, doc, f"{command}{kerr}")
            assert out.returncode == 0 and out.stderr == "", out.stderr
    for name in ("fixed_points.json", "stable_count.csv",
                 "unstable_count.csv", "errors.csv"):
        folder = "fixed-points" if name.endswith("json") else "phase-diagram"
        assert (tmp_path / f"{folder}1e-160" / name).read_bytes() == \
            (tmp_path / f"{folder}0.0" / name).read_bytes(), name


def test_overflowing_magnon_scale_prints_no_numpy_warning(tmp_path):
    """G_eff * gamma overflows in the magnon number of a quintic root
    whose state is far below admission: the run reports no fixed point
    and warns about nothing."""
    system = _active_system(gamma_mhz_over_2pi=3.56e151,
                            gain_mhz_over_2pi=5.59e253,
                            delta_m_mhz_over_2pi=3.0)
    out = _run_cli("fixed-points", "--config",
                   _write_config(tmp_path, {"format_version": 1,
                                            "system": system}),
                   "--out", str(tmp_path / "fp"))
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    assert out.stdout == "0 fixed point(s), phase 0S+0U\n"


def test_extreme_passive_rates_print_no_numpy_warnings(tmp_path):
    """The passive cubic overflows into the same one error as the
    quintic: one line from fixed-points, no numpy warning, and a map
    whose numpy-scalar detunings overflow exits 0 with a clean stderr."""
    def run(command, doc):
        return _run_cli(command, "--config", _write_config(tmp_path, doc),
                        "--out", str(tmp_path / command))

    huge_kerr = _passive_system(kerr_ghz_over_2pi=1e300)
    del huge_kerr["kerr_nhz_over_2pi"]
    for system, n0 in ((_passive_system(delta_m_ghz_over_2pi=1e300), 1e12),
                       (huge_kerr, 1e-300),
                       (_passive_system(), 1e300)):
        out = run("fixed-points", {"format_version": 1, "system": system,
                                   "drive": {"n0": n0}})
        assert out.returncode == 1
        assert out.stderr == ("error: passive cubic: non-finite "
                              "polynomial coefficients\n"), out.stderr

    pd = {"format_version": 1, "system": huge_kerr,
          "grid": {"x_axis": "n0", "n0_min": 1e9, "n0_max": 1e12,
                   "x_count": 2, "delta_m_min_mhz_over_2pi": -10.0,
                   "delta_m_max_mhz_over_2pi": 10.0, "delta_m_count": 2}}
    out = run("phase-diagram", pd)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    side = json.loads(
        (tmp_path / "phase-diagram" / "phase_diagram.json").read_text())
    assert set(side["error_messages"].values()) == {
        "ConditioningError: passive cubic: non-finite polynomial "
        "coefficients"}


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


def _malformed_input(tmp_path, case):
    """(command, config path) of a run whose input file is malformed."""
    cfg = tmp_path / "run.json"
    if case == "config_not_utf8":
        cfg.write_bytes(b"\xff\xfe{")
    elif case == "config_nested_too_deep":
        cfg.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    elif case == "value_nested_too_deep":
        doc = _sweep_doc()
        doc["system"]["kind"] = json.loads("[" * 900 + "]" * 900)
        cfg.write_text(json.dumps(doc))
    elif case == "integer_past_digit_limit":
        cfg.write_text('{"format_version": 1' + "0" * 5000 + "}")
    elif case == "integer_beyond_float":
        doc = _sweep_doc()
        doc["system"]["gamma_mhz_over_2pi"] = 10 ** 400
        cfg.write_text(json.dumps(doc))
    elif case.endswith(("_nan", "_inf", "_1e999")):
        # a shipped data CSV whose line 6 holds a value that is no
        # finite number
        fit, value = case.split("_csv_")
        lines = (ROOT / "configs" / "data" / f"{fit}_example.csv").read_text(
            encoding="utf-8").splitlines()
        lines[5] = f"{lines[5].split(',')[0]},{value}"
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg.write_text(json.dumps({"format_version": 1,
                                   "data_csv": str(csv_path)}))
        return f"fit-{fit}", str(cfg)
    else:  # a data CSV that is not UTF-8
        csv_path = tmp_path / "dip.csv"
        csv_path.write_bytes(b"freq_unit,GHz\n\xff3.0,0.9\n")
        cfg.write_text(json.dumps({"format_version": 1,
                                   "data_csv": str(csv_path)}))
        return "fit-s11", str(cfg)
    return "sweep", str(cfg)


@pytest.mark.parametrize("case", [
    "config_not_utf8", "config_nested_too_deep", "value_nested_too_deep",
    "integer_past_digit_limit", "integer_beyond_float", "csv_not_utf8",
    "s11_csv_nan", "s11_csv_inf", "s11_csv_1e999",
    "kittel_csv_nan", "kittel_csv_inf", "kittel_csv_1e999"])
def test_malformed_input_file_is_one_error_line(tmp_path, case):
    command, cfg = _malformed_input(tmp_path, case)
    out = _run_cli(command, "--config", cfg, "--out", str(tmp_path / "x"))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    if "_csv_" in case:
        assert "data.csv:6: non-finite value in " in out.stderr, out.stderr


def test_out_naming_a_file_is_an_io_error(tmp_path, capsys):
    """``--out`` must name a directory: an existing file at that path
    ends the run with one ``i/o error:`` line and exit 1."""
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["sweep", "--config", _write_config(tmp_path, _sweep_doc()),
                 "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err


def test_grid_memory_cannot_hold_exits_1(tmp_path, capsys, monkeypatch):
    # 1e16 cells: the scan's counts cannot be allocated, and it fails
    # before it solves a range
    def no_solve(*args):
        raise AssertionError("a range was solved")

    monkeypatch.setattr(phasemap, "solve_cells", no_solve)
    doc = _grid_doc()
    doc["grid"].update(x_count=10 ** 8, delta_m_count=10 ** 8)
    start = time.monotonic()
    _expect_one_error_line(["phase-diagram", "--config",
                            _write_config(tmp_path, doc),
                            "--out", str(tmp_path / "x")],
                           1, capsys, "out of memory")
    assert time.monotonic() - start < 10.0


def test_sweep_steps_memory_cannot_hold_exits_1(tmp_path, capsys,
                                                monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(dynamics, "integrate_segment", no_integration)
    cfg = _write_config(tmp_path, _sweep_doc(steps=10 ** 15))
    start = time.monotonic()
    _expect_one_error_line(["sweep", "--config", cfg,
                            "--out", str(tmp_path / "x")],
                           1, capsys, "out of memory")
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("command, change, extra, fragment", [
    ("phase-diagram", {"x_count": 10 ** 30}, [],
     "$.grid: x_count * delta_m_count = 3e+30 cells"),
    ("phase-diagram", {"x_count": 3 * 10 ** 9, "delta_m_count": 3 * 10 ** 9},
     [], "$.grid: x_count * delta_m_count = 9e+18 cells"),
    ("phase-diagram", {}, ["--resolution", "10000000000x10000000000"],
     "$.grid: x_count * delta_m_count = 1e+20 cells"),
    ("sweep", {"steps": 10 ** 30}, [], "$.sweep.steps: must be <="),
    ("sweep", {"steps": 2 * 10 ** 18}, [], "$.sweep.steps: must be <="),
], ids=["grid_x_count", "grid_cells", "resolution", "steps",
        "steps_of_8_bytes"])
def test_counts_no_array_can_hold_are_config_errors(tmp_path, capsys, command,
                                                    change, extra, fragment):
    if command == "sweep":
        doc = _sweep_doc(**change)
    else:
        doc = _grid_doc()
        doc["grid"].update(change)
    out = tmp_path / "x"
    _expect_one_error_line([command, "--config", _write_config(tmp_path, doc),
                            "--out", str(out), *extra], 2, capsys, fragment)
    assert not out.exists()
