"""What the benchmark's tracing layer needs from the package.

``perfbench/tracing.py`` rebinds solver names on ``magpol.cli``,
``magpol.phasemap`` and ``magpol.dynamics`` and divides by the calls of
spans and counters that the commands must reach. A renamed attribute
makes its ``install`` raise, and a span no command reaches makes its
per-layer metrics divide by zero; neither shows in the other tests.
This test goes when the tracing layer does.
"""

import importlib.util
import json
from pathlib import Path

from magpol import cli

ROOT = Path(__file__).resolve().parents[1]

# spans whose call counts the per-layer metrics divide by
SPANS = ("steady.passive_fixed_points", "steady.active_fixed_points",
         "stability.classify.passive", "stability.classify.active",
         "spectral.phase_slope_offset", "calib.load_csv", "calib.fit_s11",
         "calib.fit_kittel")
COUNTERS = ("dynamics.rk4_steps", "spectral.steps")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_every_divisor_is_reached(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # shipped configs use repo-relative data paths
    tracing = _load_tracing()
    sweep = json.loads((ROOT / "configs" / "sweep_sidebands.json").read_text())
    sweep["sweep"]["steps"] = 2
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(sweep))
    runs = [
        ["phase-diagram", "--config", "configs/passive_zero_detuning_map.json",
         "--resolution", "4x4", "--threads", "1"],
        ["fixed-points", "--config", "configs/active_bistable_point.json"],
        ["sweep", "--config", str(sweep_cfg)],
        ["fit-s11", "--config", "configs/s11_fit.json"],
        ["fit-kittel", "--config", "configs/kittel_fit.json"],
    ]
    tr = tracing.Tracer("full")
    try:
        tracing.install(tr)
        for k, argv in enumerate(runs):
            assert cli.main(argv + ["--out", str(tmp_path / str(k))]) == 0
    finally:
        tr.restore()
    calls = {}
    for span in tr.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    for name in SPANS:
        assert calls.get(name, 0) > 0, f"no call reached span {name}"
    for name in COUNTERS:
        assert tr.counters[name] > 0, f"counter {name} stayed 0"
