"""Seeded program inputs, written into a temporary directory.

Seed 0 is the shipped configs and sample CSVs, unchanged. Any other
seed shifts the grid and sweep bounds by less than one step (sizes
stay the same) and regenerates the S11 and Kittel CSVs from known
parameters with seeded noise. The program only ever sees the files.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

SHIPPED = {
    "map_passive": "configs/passive_detuned_map.json",
    "map_active": "configs/active_gain_map.json",
    "sweep": "configs/sweep_sidebands.json",
    "fixed_points": "configs/active_bistable_point.json",
    "fit_s11": "configs/s11_fit.json",
    "fit_kittel": "configs/kittel_fit.json",
}

# Parameters the shipped sample CSVs were made from (lab units).
SHIPPED_S11_TRUTH = {"omega_m_ghz_over_2pi": 3.05,
                     "kappa_a_mhz_over_2pi": 4.0,
                     "gamma_mhz_over_2pi": 10.3}
SHIPPED_KITTEL_TRUTH = {"gamma_e_mhz_per_mt": 28.2, "anisotropy_mt": -3.35}

# Shifts stay inside this fraction of one step either way.
MAX_SHIFT = 0.45


@dataclass
class Inputs:
    """Config paths per input plus the truth behind the fit CSVs."""

    seed: int
    configs: dict[str, str]
    docs: dict[str, dict]
    truth: dict[str, dict] = field(default_factory=dict)


def _load(root: str, rel: str) -> dict:
    with open(os.path.join(root, rel)) as fh:
        return json.load(fh)


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _shift_linear(blk: dict, lo: str, hi: str, count: int, u: float) -> None:
    step = (blk[hi] - blk[lo]) / (count - 1)
    blk[lo] += u * step
    blk[hi] += u * step


def _shift_grid(doc: dict, rng: np.random.Generator) -> None:
    grid = doc["grid"]
    ux, uy = rng.uniform(-MAX_SHIFT, MAX_SHIFT, size=2)
    if grid["x_axis"] == "n0":
        ratio = (grid["n0_max"] / grid["n0_min"]) ** (1.0 / (grid["x_count"]
                                                             - 1))
        grid["n0_min"] *= ratio ** ux
        grid["n0_max"] *= ratio ** ux
    else:
        _shift_linear(grid, "gain_min_mhz_over_2pi", "gain_max_mhz_over_2pi",
                      grid["x_count"], ux)
    _shift_linear(grid, "delta_m_min_mhz_over_2pi",
                  "delta_m_max_mhz_over_2pi", grid["delta_m_count"], uy)


def _s11_csv(path: str, rng: np.random.Generator) -> dict:
    """Reflection dip |1 - kappa_a / (i (w - w_m) + kappa_load / 2)|."""
    truth = {"omega_m_ghz_over_2pi": 3.05 + rng.uniform(-0.005, 0.005),
             "kappa_a_mhz_over_2pi": rng.uniform(3.0, 5.0),
             "gamma_mhz_over_2pi": rng.uniform(8.0, 12.0)}
    f_ghz = 2.96 + 0.0005 * np.arange(361)
    w = f_ghz * 1e3                               # MHz
    w_m = truth["omega_m_ghz_over_2pi"] * 1e3
    k_a = truth["kappa_a_mhz_over_2pi"]
    k_load = k_a + truth["gamma_mhz_over_2pi"]
    mag = np.abs(1.0 - k_a / (1j * (w - w_m) + 0.5 * k_load))
    mag = mag + 1e-3 * rng.normal(size=mag.size)
    with open(path, "w") as fh:
        fh.write("freq_unit,GHz\n")
        for f, y in zip(f_ghz, mag):
            fh.write(f"{f:.6f},{y:.6f}\n")
    return truth


def _kittel_csv(path: str, rng: np.random.Generator) -> dict:
    """Line f = gamma_e (B + mu0 H_A) with a few kHz of noise."""
    truth = {"gamma_e_mhz_per_mt": rng.uniform(28.0, 28.4),
             "anisotropy_mt": rng.uniform(-5.0, -2.0)}
    b_mt = 105.0 + 2.0 * np.arange(11)
    f_ghz = 1e-3 * truth["gamma_e_mhz_per_mt"] * (b_mt
                                                  + truth["anisotropy_mt"])
    f_ghz = f_ghz + 2e-6 * rng.normal(size=f_ghz.size)
    with open(path, "w") as fh:
        fh.write("field_unit,mT\n")
        for b, f in zip(b_mt, f_ghz):
            fh.write(f"{b:.3f},{f:.6f}\n")
    return truth


def make_inputs(root: str, seed: int, tmp: str) -> Inputs:
    """Write the seed's inputs under ``tmp``; see the module docstring."""
    docs = {name: _load(root, rel) for name, rel in SHIPPED.items()}
    if seed == 0:
        return Inputs(seed=0, configs=dict(SHIPPED), docs=docs,
                      truth={"fit_s11": dict(SHIPPED_S11_TRUTH),
                             "fit_kittel": dict(SHIPPED_KITTEL_TRUTH)})

    rng = np.random.default_rng(seed)
    docs = copy.deepcopy(docs)
    _shift_grid(docs["map_passive"], rng)
    _shift_grid(docs["map_active"], rng)

    sweep = docs["sweep"]["sweep"]
    _shift_linear(sweep, "detuning_start_mhz_over_2pi",
                  "detuning_stop_mhz_over_2pi", sweep["steps"],
                  rng.uniform(-MAX_SHIFT, MAX_SHIFT))

    # One point: move it by under one step of the active gain map.
    system = docs["fixed_points"]["system"]
    system["delta_m_mhz_over_2pi"] += rng.uniform(-MAX_SHIFT, MAX_SHIFT) * 0.3
    system["gain_mhz_over_2pi"] += rng.uniform(-MAX_SHIFT, MAX_SHIFT) * 0.08

    truth = {"fit_s11": _s11_csv(os.path.join(tmp, "s11.csv"), rng),
             "fit_kittel": _kittel_csv(os.path.join(tmp, "kittel.csv"),
                                       rng)}
    docs["fit_s11"]["data_csv"] = os.path.join(tmp, "s11.csv")
    docs["fit_kittel"]["data_csv"] = os.path.join(tmp, "kittel.csv")

    configs = {name: _write_json(os.path.join(tmp, f"{name}.json"), doc)
               for name, doc in docs.items()}
    return Inputs(seed=seed, configs=configs, docs=docs, truth=truth)


def probe_config(inputs: Inputs, tmp: str, steps: int = 4) -> str:
    """The seeded sweep cut to its first ``steps`` steps, same spacing."""
    doc = copy.deepcopy(inputs.docs["sweep"])
    sweep = doc["sweep"]
    step = ((sweep["detuning_stop_mhz_over_2pi"]
             - sweep["detuning_start_mhz_over_2pi"]) / (sweep["steps"] - 1))
    sweep["detuning_stop_mhz_over_2pi"] = (
        sweep["detuning_start_mhz_over_2pi"] + step * (steps - 1))
    sweep["steps"] = steps
    return _write_json(os.path.join(tmp, "sweep_probe.json"), doc)
