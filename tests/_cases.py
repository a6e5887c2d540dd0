"""Shared parameter factories for the test suite.

Two recurring parameter sets: a broad-line strong-coupling pair used
by the map tests (kerr per magnon of order 2pi x 10 nHz) and a
narrow-line pair with larger Kerr used by the sweep and bistability
tests. Rates are rad/us throughout; **over replaces any field.

``ACCEPTANCE_GRIDS`` are the four full-size maps of the acceptance
fixtures, by fixture name.

``stack`` and ``verdict_of`` put fixed-point rows into the shape
``stability.classify`` takes and back. ``passive_fixed_points`` and
``active_fixed_points`` are one-cell calls of the batched solves of the
same names in ``magpol.steady``: they raise the cell's error and return
its fixed points as a list of rows.

``sweep_windows`` runs ``dynamics.run_sweep`` with a consumer that
copies every step's analysis window, since the result keeps none.
``spectrogram`` stacks the ``build_spectrogram`` columns of windows as
``sweep`` does.
"""

import dataclasses

import numpy as np

from magpol import steady
from magpol.dynamics import SweepProtocol, SweepResult, TrajectorySegment, \
    run_sweep
from magpol.model import DriveSpec, SystemParams, TWO_PI, batch_rates
from magpol.phasemap import GridSpec
from magpol.spectral import build_spectrogram
from magpol.stability import VERDICTS, classify
from magpol.steady import Solution


def broadline_params(**over) -> SystemParams:
    kw = dict(kappa=TWO_PI * 1.5, gamma=TWO_PI * 16.5, g=TWO_PI * 30.0,
              kerr=TWO_PI * 9.8e-15)
    kw.update(over)
    return SystemParams(**kw)


def narrowline_params(**over) -> SystemParams:
    kw = dict(gamma=TWO_PI * 10.3, g=TWO_PI * 25.0, kerr=TWO_PI * 3.2e-12,
              gamma_sat=TWO_PI * 0.8e-12, gain=TWO_PI * 15.45)
    kw.update(over)
    return SystemParams(**kw)


def _passive_grid(**base_over) -> GridSpec:
    return GridSpec(system="passive", x_axis="n0", x_min=1e9, x_max=1e15,
                    x_count=201, delta_m_min=-TWO_PI * 100.0,
                    delta_m_max=TWO_PI * 100.0, delta_m_count=201,
                    base=broadline_params(**base_over))


ACCEPTANCE_GRIDS = {
    "zero_detuning_map": _passive_grid(),
    "detuned_map": _passive_grid(delta_c=TWO_PI * 80.0),
    "active_photon_map": GridSpec(
        system="active", x_axis="n0", x_min=1e9, x_max=1e15, x_count=201,
        delta_m_min=-TWO_PI * 100.0, delta_m_max=TWO_PI * 100.0,
        delta_m_count=201,
        base=broadline_params(gamma_sat=TWO_PI * 2.0e-12, gain=0.0)),
    "gain_map": GridSpec(
        system="active", x_axis="gain", x_min=TWO_PI * 10.0,
        x_max=TWO_PI * 22.0, x_count=151, delta_m_min=-TWO_PI * 70.0,
        delta_m_max=-TWO_PI * 25.0, delta_m_count=151,
        base=narrowline_params(gain=0.0)),
}


def stack(rows) -> Solution:
    """One batch ``Solution`` of fixed-point rows of one model."""
    cols = list(zip(*rows))
    return Solution(rows[0].kind, *map(np.array, cols[1:-1]), errors={})


def verdict_of(row: Solution, params) -> str:
    """Verdict name of one fixed-point row; raises the row's error."""
    code, errors = classify(row, params)
    if errors:
        raise errors[0]
    return VERDICTS[code[0]]


def rows(sol: Solution) -> list[Solution]:
    """The fixed points of a one-cell ``Solution`` as rows of Python
    scalars, ``cell`` 0 and ``errors`` {}; raises the cell's error."""
    if sol.errors:
        raise sol.errors[0]
    return [Solution(sol.kind, 0, *row, errors={})
            for row in zip(*(v.tolist() for v in sol[2:-1]))]


def passive_fixed_points(params: SystemParams,
                         drive: DriveSpec) -> list[Solution]:
    """One cell's passive steady states, sorted by n_m."""
    return rows(steady.passive_fixed_points(batch_rates(params), drive.eta))


def active_fixed_points(params: SystemParams) -> list[Solution]:
    """One cell's coupled active steady states, sorted by omega."""
    return rows(steady.active_fixed_points(batch_rates(params)))


def sweep_windows(protocol: SweepProtocol, params: SystemParams, **kw
                  ) -> tuple[SweepResult, list[TrajectorySegment]]:
    """``run_sweep(protocol, params, **kw)`` and a copy of each completed
    step's analysis window (``a``, ``m``, ``t0``, ``dt`` and ``k0``), in
    step order."""
    windows = []

    def keep(win: TrajectorySegment) -> None:
        windows.append(dataclasses.replace(win, a=win.a.copy(),
                                           m=win.m.copy()))

    return run_sweep(protocol, params, on_window=keep, **kw), windows


def spectrogram(windows, dt: float, f_min: float, f_max: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """(freqs, matrix): the ``build_spectrogram`` column of each window,
    sampled every ``dt`` us, stacked in order, as ``sweep`` writes
    them."""
    columns = [build_spectrogram(z, dt, f_min, f_max) for z in windows]
    return columns[0][0], np.column_stack([col for _, col in columns])
