"""Command-line entry point: configs in, CSV/JSON artifacts out.

Every run writes a ``manifest.json`` next to its outputs: the fully
resolved configuration (defaults materialized, resolution applied,
seed state recorded). Re-running ``magpol <cmd> --config manifest.json
--out <dir>`` reproduces the data files byte for byte; the output
location is deliberately excluded from the manifest since it must not
affect results, and so is ``--threads``, which has no effect.

Exit codes: 0 success (including sweeps that hit a divergence, which
is an annotated physics outcome), 1 numeric failure (fit failure,
conditioning, internal consistency, I/O, an allocation memory cannot
hold), 2 invalid input (bad config, bad CSV, bad command line).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__, config
from .calib import (fit_kittel, fit_s11, load_field_points_csv,
                    load_spectrum_csv)
from .dynamics import run_sweep
from .errors import (ConditioningError, ConfigError, DivergenceError,
                     FitError, InternalConsistencyError)
from .model import TWO_PI, batch_rates
from .phasemap import onset_monotonicity_flags, scan
from .spectral import build_spectrogram
from .stability import MARGIN_RTOL, VERDICTS, classify, phase_label, spectrum
from .steady import RESIDUAL_RTOL, active_fixed_points, passive_fixed_points


def _mhz(rad_per_us) -> float:
    """rad/us -> ordinary MHz, the reporting unit for offsets."""
    return float(rad_per_us) / TWO_PI


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """One CSV row per grid row. Counts and flags are written as
    integers, floats by the csv module's repr, which round-trips. Rows
    are converted one at a time, so a large float matrix is never held
    as Python floats all at once."""
    if matrix.dtype.kind != "f":
        matrix = matrix.astype(np.int64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(map(np.ndarray.tolist, matrix))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _fp_record(fp, verdict: str, params, tol: float) -> dict:
    """JSON record of one fixed point of ``params``: its ``classify``
    ``verdict`` and its ``spectrum`` report; ``tol`` is its residual
    tolerance.

    The residual is written as a multiple of 1e-3 * tol: the polish
    leaves defects of pure rounding (1e-14..1e-10 rad/us), which would
    otherwise change the artifact whenever the arithmetic is reordered.
    """
    quantum = 1e-3 * tol
    report = spectrum(fp, params)
    return {
        "kind": fp.kind,
        "omega_mhz_over_2pi": _mhz(fp.omega),
        "n_a": fp.n_a,
        "n_m": fp.n_m,
        "a0": _complex_pair(fp.a0),
        "m0": _complex_pair(fp.m0),
        "net_gain_per_us": fp.net_gain,
        "residual_per_us": round(fp.residual / quantum) * quantum,
        "classification": verdict,
        "margin_per_us": report.margin,
        "eigenvalues_per_us": [_complex_pair(e) for e in report.eigenvalues],
        "discarded_per_us": (
            _complex_pair(report.eigenvalues[report.discarded])
            if report.discarded >= 0 else None),
        "neutral_suspect": report.neutral_suspect,
    }


def cmd_fixed_points(run: config.RunConfig, out_dir: str) -> int:
    params = run.system
    cell = batch_rates(params)
    sol = (passive_fixed_points(cell, run.drive.eta) if run.kind == "passive"
           else active_fixed_points(cell))
    if sol.errors:
        raise sol.errors[0]
    code, errors = classify(sol, params)
    if errors:
        raise next(iter(errors.values()))
    tol = RESIDUAL_RTOL * params.rate_scale()
    records = [_fp_record(sol.take(i), VERDICTS[k], params, tol)
               for i, k in enumerate(code.tolist())]
    counts = {v: sum(rec["classification"] == v for rec in records)
              for v in VERDICTS}
    phase = phase_label(*counts.values())
    payload = {
        "phase": phase,
        "counts": counts,
        "fixed_points": records,
        "margin_rtol": MARGIN_RTOL,
        "version": __version__,
    }
    if run.kind == "active":
        payload["counting"] = "admissible coupled solutions only (n_m > 0)"
    _write_json(os.path.join(out_dir, "fixed_points.json"), payload)
    _write_json(os.path.join(out_dir, "manifest.json"), run.resolved)
    print(f"{len(records)} fixed point(s), phase {phase}")
    for rec in records:
        print(f"  omega/2pi = {rec['omega_mhz_over_2pi']:+10.4f} MHz   "
              f"n_a = {rec['n_a']:.4e}   n_m = {rec['n_m']:.4e}   "
              f"{rec['classification']} (margin {rec['margin_per_us']:+.3e}"
              f" /us)")
    return 0


def cmd_phase_diagram(run: config.RunConfig, out_dir: str) -> int:
    diagram = scan(run.grid)
    _write_matrix_csv(os.path.join(out_dir, "stable_count.csv"),
                      diagram.stable)
    _write_matrix_csv(os.path.join(out_dir, "unstable_count.csv"),
                      diagram.unstable)
    _write_matrix_csv(os.path.join(out_dir, "marginal_count.csv"),
                      diagram.marginal)
    _write_matrix_csv(os.path.join(out_dir, "blank.csv"), diagram.blank)
    _write_matrix_csv(os.path.join(out_dir, "errors.csv"), diagram.errors)

    grid = run.grid
    x = grid.x_values()
    sidecar = {
        "delta_m_mhz_over_2pi": [_mhz(v) for v in grid.delta_m_values()],
        "x_axis": grid.x_axis,
        "rows_are": "delta_m",
        "region_summary": diagram.region_summary(),
        "onset_review_rows": onset_monotonicity_flags(diagram),
        "margin_rtol": MARGIN_RTOL,
        "version": __version__,
    }
    if grid.x_axis == "n0":
        sidecar["x_values"] = [float(v) for v in x]
    else:
        sidecar["x_values_mhz_over_2pi"] = [_mhz(v) for v in x]
    if grid.system == "active":
        sidecar["counting"] = "admissible coupled solutions only (n_m > 0)"
    if diagram.error_messages:
        sidecar["error_messages"] = {
            f"{iy},{ix}": msg
            for (iy, ix), msg in sorted(diagram.error_messages.items())}
    _write_json(os.path.join(out_dir, "phase_diagram.json"), sidecar)
    _write_json(os.path.join(out_dir, "manifest.json"), run.resolved)

    total = grid.x_count * grid.delta_m_count
    print(f"{grid.delta_m_count} x {grid.x_count} cells "
          f"({grid.system}, x axis {grid.x_axis}):")
    for label, count in sidecar["region_summary"].items():
        print(f"  {label:>10s}  {count:7d}  ({100.0 * count / total:5.1f}%)")
    flags = sidecar["onset_review_rows"]
    if flags:
        print(f"  note: onset not monotonic in {len(flags)} row(s); "
              f"see phase_diagram.json")
    return 0


def cmd_sweep(run: config.RunConfig, out_dir: str) -> int:
    # Each step's window becomes its spectrogram column as the step
    # ends, so the sweep holds no windows.
    spec = run.spectrogram
    freqs, columns = None, []

    def to_column(window) -> None:
        nonlocal freqs
        freqs, column = build_spectrogram(
            window.a, run.protocol.dt, spec["f_min_mhz"], spec["f_max_mhz"])
        columns.append(column)

    result = run_sweep(run.protocol, run.system,
                       None if run.drive is None else run.drive.eta,
                       initial_state=run.initial_state,
                       on_window=to_column if spec is not None else None)
    rows_path = os.path.join(out_dir, "sweep.csv")
    with open(rows_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "delta_m0_mhz_over_2pi",
                         "delta_eff_mhz_over_2pi", "omega_mhz_over_2pi",
                         "confidence", "low_confidence", "diverged"])
        for k in range(len(run.protocol.detunings)):
            diverged = (result.diverged_at is not None
                        and k == result.diverged_at)
            writer.writerow([
                k,
                repr(_mhz(run.protocol.detunings[k])),
                repr(_mhz(result.detunings_effective[k])),
                repr(_mhz(result.omegas[k])),
                repr(float(result.confidences[k])),
                str(bool(result.low_confidence[k])).lower(),
                str(diverged).lower(),
            ])

    n_done = len(result.segments)
    if columns:
        _write_matrix_csv(os.path.join(out_dir, "spectrogram.csv"),
                          np.column_stack(columns))
        _write_json(os.path.join(out_dir, "spectrogram_axes.json"), {
            "freqs_mhz": [float(f) for f in freqs],
            "detunings_mhz_over_2pi": [
                _mhz(d) for d in run.protocol.detunings[:n_done]],
            "floor": spec["floor"],
            "t_drop_us": run.protocol.t_drop,
            "rows_are": "frequency",
        })
    _write_json(os.path.join(out_dir, "manifest.json"), run.resolved)

    n_low = int(result.low_confidence[:n_done].sum())
    print(f"{n_done}/{len(run.protocol.detunings)} steps integrated; "
          f"{n_low} low-confidence fit(s)")
    omegas = result.omegas[np.isfinite(result.omegas)]
    if omegas.size:
        print(f"  omega/2pi range [{_mhz(omegas.min()):+.3f}, "
              f"{_mhz(omegas.max()):+.3f}] MHz")
    if result.diverged_at is not None:
        print(f"  diverged at step {result.diverged_at}: {result.error}")
    return 0


def cmd_fit_s11(run: config.RunConfig, out_dir: str) -> int:
    fit = fit_s11(load_spectrum_csv(run.data_csv))
    payload = {
        "omega_m_ghz_over_2pi": fit.omega_m / (TWO_PI * 1e9),
        "kappa_a_mhz_over_2pi": fit.kappa_a / (TWO_PI * 1e6),
        "gamma_mhz_over_2pi": fit.gamma / (TWO_PI * 1e6),
        "kappa_load_mhz_over_2pi": fit.kappa_load / (TWO_PI * 1e6),
        "goodness": fit.goodness,
        "baseline": fit.baseline,
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "fit_s11.json"), payload)
    _write_json(os.path.join(out_dir, "manifest.json"), run.resolved)
    print(f"omega_m/2pi = {payload['omega_m_ghz_over_2pi']:.6f} GHz   "
          f"kappa_a/2pi = {payload['kappa_a_mhz_over_2pi']:.4f} MHz   "
          f"gamma/2pi = {payload['gamma_mhz_over_2pi']:.4f} MHz   "
          f"rms {fit.goodness:.2e}")
    return 0


def cmd_fit_kittel(run: config.RunConfig, out_dir: str) -> int:
    fit = fit_kittel(load_field_points_csv(run.data_csv))
    payload = {
        "gamma_e_mhz_per_mt": fit.gamma_e_hz_per_t * 1e-9,
        "anisotropy_mt": fit.anisotropy_t * 1e3,
        "residual_rms_mhz_over_2pi": fit.residual_rms / (TWO_PI * 1e6),
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "fit_kittel.json"), payload)
    _write_json(os.path.join(out_dir, "manifest.json"), run.resolved)
    print(f"gamma_e/2pi = {payload['gamma_e_mhz_per_mt']:.4f} MHz/mT   "
          f"mu0 H_A = {payload['anisotropy_mt']:+.4f} mT   "
          f"rms {payload['residual_rms_mhz_over_2pi']:.3e} MHz")
    return 0


def _apply_resolution(doc: dict, resolution: str) -> None:
    try:
        nx, ny = resolution.lower().split("x")
        nx, ny = int(nx), int(ny)
    except ValueError:
        raise ConfigError(f"--resolution must be NxM (x count x detuning "
                          f"count), got {resolution!r}") from None
    grid = doc.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("--resolution needs a config with a grid block")
    grid["x_count"] = nx
    grid["delta_m_count"] = ny


def worker_count(text: str) -> int:
    """The type of --threads: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magpol",
        description="Coupled photon-magnon fixed points, phase diagrams, "
                    "sweeps, and calibration fits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("fixed-points", "solve and classify steady states"),
            ("phase-diagram", "scan stability counts over a grid"),
            ("sweep", "hysteretic detuning sweep with emission fits"),
            ("fit-s11", "fit a reflection dip CSV"),
            ("fit-kittel", "fit a field-frequency line CSV")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="JSON run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (default: config 'out' "
                            "field, else current directory)")
        if name == "phase-diagram":
            p.add_argument("--threads", type=worker_count, default=1,
                           help="has no effect: the scan runs in the "
                                "calling thread (still parsed, so existing "
                                "scripts keep working)")
            p.add_argument("--resolution", default=None, metavar="NxM",
                           help="override grid size (x count x detuning "
                                "count)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = config.load_config(args.config)
        if args.command == "phase-diagram" and args.resolution:
            _apply_resolution(doc, args.resolution)
        run = config.parse_run(doc, args.command)
        out_dir = args.out or run.out or "."
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "fixed-points":
            return cmd_fixed_points(run, out_dir)
        if args.command == "phase-diagram":
            return cmd_phase_diagram(run, out_dir)
        if args.command == "sweep":
            return cmd_sweep(run, out_dir)
        if args.command == "fit-s11":
            return cmd_fit_s11(run, out_dir)
        return cmd_fit_kittel(run, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, ConditioningError, InternalConsistencyError,
            DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
