"""Output checks against independent references.

Maps: the fixed-point count of a seeded sample of cells against the
multi-start Newton oracle in ``tests/_oracles.py`` at 512 starts (at
64 starts it misses the third root of some passive cells). Every
root the oracle returns is a converged root, so it can only miss
roots: where it finds fewer than the program it is rerun at 2048
starts, as the acceptance tests do. On active
gain maps the sample also holds the cells nearest the doublet line
delta_m = -K (G - gamma/2) / gamma_sat. Sweeps: every step present,
and each confident step's fitted omega within one bin of its
spectrogram column peak. Fits: the parameters the input CSV was made
from. ``fixed-points``: the oracle count.

Each check is a pure function of parsed artifacts, so the self-tests
can corrupt an artifact and show that the check flags it.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

ORACLE_STARTS = (512, 2048)
# Sample sizes per map: uniform cells, cells on a count boundary, and
# (active maps) the cells nearest the doublet line.
SAMPLE_UNIFORM = {"passive": 8, "active": 4}
SAMPLE_BOUNDARY = {"passive": 8, "active": 4}
SAMPLE_DOUBLET = 10
DISTINCT_RTOL = 1e-6

FIT_TOLERANCE = {
    # key: (kind, tolerance) with kind "rel" or "abs"
    "omega_m_ghz_over_2pi": ("rel", 1e-5),
    "kappa_a_mhz_over_2pi": ("rel", 3e-2),
    "gamma_mhz_over_2pi": ("rel", 3e-2),
    "gamma_e_mhz_per_mt": ("rel", 1e-3),
    "anisotropy_mt": ("abs", 0.05),
}


# ---------------------------------------------------------------- maps

def read_map_counts(out_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points per cell (stable + unstable + marginal), and errors."""
    def load(name):
        return np.loadtxt(os.path.join(out_dir, name), delimiter=",",
                          dtype=np.int64, ndmin=2)
    total = (load("stable_count.csv") + load("unstable_count.csv")
             + load("marginal_count.csv"))
    return total, load("errors.csv").astype(bool)


def _boundary_cells(counts: np.ndarray) -> np.ndarray:
    edge = np.zeros(counts.shape, dtype=bool)
    dy = counts[1:, :] != counts[:-1, :]
    dx = counts[:, 1:] != counts[:, :-1]
    edge[1:, :] |= dy
    edge[:-1, :] |= dy
    edge[:, 1:] |= dx
    edge[:, :-1] |= dx
    return np.argwhere(edge)


def doublet_cells(grid, n: int) -> list[tuple[int, int]]:
    """Per gain column, the row nearest the doublet line; the n nearest."""
    base = grid.base
    dms = grid.delta_m_values()
    step = dms[1] - dms[0]
    ranked = []
    for ix, gain in enumerate(grid.x_values()):
        line = -base.kerr * (gain - 0.5 * base.gamma) / base.gamma_sat
        iy = int(np.argmin(np.abs(dms - line)))
        ranked.append((abs(dms[iy] - line) / step, iy, ix))
    ranked.sort()
    return [(iy, ix) for _, iy, ix in ranked[:n]]


def sample_cells(grid, counts: np.ndarray, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng([seed, 1])
    ny, nx = counts.shape
    cells: list[tuple[int, int]] = []
    if grid.system == "active" and grid.x_axis == "gain":
        cells += doublet_cells(grid, SAMPLE_DOUBLET)
    edge = _boundary_cells(counts)
    if len(edge):
        pick = rng.choice(len(edge), size=min(len(edge),
                                              SAMPLE_BOUNDARY[grid.system]),
                          replace=False)
        cells += [tuple(int(v) for v in edge[i]) for i in pick]
    flat = rng.choice(ny * nx, size=SAMPLE_UNIFORM[grid.system],
                      replace=False)
    cells += [(int(i) // nx, int(i) % nx) for i in flat]
    return list(dict.fromkeys(cells))      # drop repeats, keep order


def _oracle_roots(solve, program: int) -> list:
    """Oracle roots, escalating the starts while fewer than ``program``."""
    for n_starts in ORACLE_STARTS:
        roots = solve(n_starts)
        if len(roots) >= program:
            break
    return roots


def _distinct(roots) -> int:
    """Roots left after merging those within DISTINCT_RTOL.

    Keys are the photon and magnon numbers and, for active roots, the
    frequency. Reported beside the oracle's own count only: the oracle
    merges at 1e-8, and it can return several copies of one badly
    conditioned low-amplitude root.
    """
    keys = []
    for root in roots:
        key = (abs(root[0]) ** 2, abs(root[1]) ** 2, *root[2:])
        if not any(all(abs(x - y) <= DISTINCT_RTOL * max(abs(x), abs(y))
                       for x, y in zip(key, k)) for k in keys):
            keys.append(key)
    return len(keys)


def oracle_map_counts(grid, counts: np.ndarray,
                      cells) -> dict[tuple[int, int], tuple[int, int]]:
    """Oracle fixed-point count of each cell, and its distinct count."""
    from _oracles import (active_fixed_points_newton,
                          passive_fixed_points_newton)
    from magpol.model import DriveSpec

    xs, dms = grid.x_values(), grid.delta_m_values()
    out = {}
    for iy, ix in cells:
        params = grid.base.replace(delta_m=float(dms[iy]))
        if grid.system == "passive":
            n0 = float(xs[ix])
            drive = DriveSpec(eta=math.sqrt(
                n0 * ((0.5 * params.kappa) ** 2 + params.delta_c ** 2)))

            def solve(n, params=params, drive=drive):
                return passive_fixed_points_newton(params, drive, n_starts=n)
        else:
            gain = float(xs[ix]) if grid.x_axis == "gain" \
                else float(xs[ix]) * params.gamma_sat
            params = params.replace(gain=gain, gain_absorbed=True,
                                    delta_c=0.0)

            def solve(n, params=params):
                return active_fixed_points_newton(params, n_starts=n)
        roots = _oracle_roots(solve, int(counts[iy, ix]))
        out[(iy, ix)] = (len(roots), _distinct(roots))
    return out


def map_mismatches(counts: np.ndarray, oracle: dict) -> list[str]:
    return [f"cell ({iy},{ix}): program {int(counts[iy, ix])}, "
            f"oracle {n} ({d} distinct at {DISTINCT_RTOL:.0e})"
            for (iy, ix), (n, d) in oracle.items() if counts[iy, ix] != n]


# --------------------------------------------------------------- sweep

def read_sweep(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "spectrogram_axes.json")) as fh:
        axes = json.load(fh)
    spec = np.loadtxt(os.path.join(out_dir, "spectrogram.csv"),
                      delimiter=",", ndmin=2)
    return {
        "k": [int(r["k"]) for r in rows],
        "omega": np.array([float(r["omega_mhz_over_2pi"]) for r in rows]),
        "confident": np.array([r["low_confidence"] == "false"
                               and r["diverged"] == "false" for r in rows]),
        "freqs": np.asarray(axes["freqs_mhz"], dtype=float),
        "spec": spec,
    }


def sweep_mismatches(sweep: dict, steps: int) -> tuple[int, list[str]]:
    """(checked items, mismatches) for one sweep's artifacts."""
    bad = []
    if sweep["k"] != list(range(steps)):
        bad.append(f"steps: expected 0..{steps - 1}, got {len(sweep['k'])} "
                   f"rows")
    lost = np.flatnonzero(~np.isfinite(sweep["omega"]))
    if lost.size:
        bad.append(f"steps: {lost.size} without a fitted omega, first "
                   f"{lost[0]}")
    freqs, spec = sweep["freqs"], sweep["spec"]
    if spec.shape != (freqs.size, len(sweep["k"])):
        bad.append(f"spectrogram shape {spec.shape}, expected "
                   f"({freqs.size}, {len(sweep['k'])})")
        return 1, bad
    bin_w = float(freqs[1] - freqs[0])
    peaks = freqs[np.argmax(spec, axis=0)]
    checked = 1
    for k in np.flatnonzero(sweep["confident"]):
        checked += 1
        off = abs(sweep["omega"][k] - peaks[k]) / bin_w
        if not off <= 1.0 + 1e-9:
            bad.append(f"step {k}: omega {sweep['omega'][k]:+.4f} MHz is "
                       f"{off:.2f} bins from the spectrogram peak")
    return checked, bad


# ---------------------------------------------------------------- fits

def read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def fit_mismatches(fit: dict, truth: dict, what: str) -> list[str]:
    bad = []
    for key, want in truth.items():
        kind, tol = FIT_TOLERANCE[key]
        got = fit.get(key)
        err = (abs(got - want) / abs(want) if kind == "rel"
               else abs(got - want)) if isinstance(got, float) else math.inf
        if not err <= tol:
            bad.append(f"{what} {key}: got {got}, made from {want} "
                       f"({kind} error {err:.2e} > {tol:.0e})")
    return bad


def oracle_point_count(run, program: int) -> int:
    from _oracles import active_fixed_points_newton, \
        passive_fixed_points_newton
    if run.kind == "passive":
        return len(_oracle_roots(lambda n: passive_fixed_points_newton(
            run.system, run.drive, n_starts=n), program))
    return len(_oracle_roots(lambda n: active_fixed_points_newton(
        run.system, n_starts=n), program))


def point_mismatches(payload: dict, oracle: int) -> list[str]:
    got = len(payload["fixed_points"])
    return [] if got == oracle else [
        f"fixed-points: program {got}, oracle {oracle}"]
