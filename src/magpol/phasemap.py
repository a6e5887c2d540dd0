"""Stability phase diagrams over (drive or gain) x (magnon detuning).

A grid cell fixes one point in parameter space; the cell is solved for
all fixed points, each is classified, and the cell reports how many
came out stable, unstable, and marginal. Cells with no admissible
fixed point are blank (for the active system that means the origin is
the only attractor). Exceptions raised while solving a cell go to a
per-cell error channel instead of aborting the scan.

The x axis is either a photon number target ``n0`` (drive power for
the passive system through ``n0_to_drive_passive``, pump gain for the
active one through ``n0_to_gain_active``) or the effective gain
directly. n0 axes are sampled logarithmically, gain axes linearly,
detuning always linearly.

An active grid is solved in one process as batched array computations
over blocks of ``ACTIVE_BLOCK`` cells (``steady.solve_active`` and
``stability.classify_points``); a passive grid cell by cell, its rows
optionally spread over worker processes. Scans are deterministic:
every cell's result depends only on that cell and is assembled by
index, so it is identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import steady
from .model import DriveSpec, SystemParams, batch_rates
from .stability import MARGIN_RTOL, classify, classify_points
# active_fixed_points is unused here but stays a module attribute:
# perfbench/tracing.py rebinds the solver names it finds on phasemap.
from .steady import active_fixed_points, passive_fixed_points  # noqa: F401

_VALID_SYSTEMS = ("passive", "active")
_VALID_AXES = ("n0", "gain")

# Cells an active scan solves per batch. The stacked arrays take about
# 3 kB per cell, so this bounds the scan's memory for any grid size;
# larger blocks are no faster.
ACTIVE_BLOCK = 4096


@dataclass(frozen=True)
class GridSpec:
    """Scan layout: x axis, detuning axis, and the shared base parameters.

    ``base`` carries every rate that does not vary across the grid;
    ``delta_m`` and (depending on the axis) ``gain`` in it are
    overridden cell by cell. Detunings and gain are rad/us as usual;
    ``n0`` bounds are photon numbers.
    """

    system: str
    x_axis: str
    x_min: float
    x_max: float
    x_count: int
    delta_m_min: float
    delta_m_max: float
    delta_m_count: int
    base: SystemParams

    def __post_init__(self):
        if self.system not in _VALID_SYSTEMS:
            raise ValueError(f"system must be one of {_VALID_SYSTEMS}")
        if self.x_axis not in _VALID_AXES:
            raise ValueError(f"x_axis must be one of {_VALID_AXES}")
        if self.system == "passive" and self.x_axis == "gain":
            raise ValueError("passive scans take an n0 axis, not gain")
        if self.x_count < 2 or self.delta_m_count < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not self.delta_m_min < self.delta_m_max:
            raise ValueError("delta_m_min must be < delta_m_max")
        if self.x_axis == "n0" and self.x_min <= 0:
            raise ValueError("n0 axis is logarithmic and needs x_min > 0")

    def x_values(self) -> np.ndarray:
        if self.x_axis == "n0":
            return np.geomspace(self.x_min, self.x_max, self.x_count)
        return np.linspace(self.x_min, self.x_max, self.x_count)

    def delta_m_values(self) -> np.ndarray:
        return np.linspace(self.delta_m_min, self.delta_m_max,
                           self.delta_m_count)


@dataclass
class PhaseDiagram:
    """Counts per cell; arrays are (delta_m_count, x_count)."""

    grid: GridSpec
    stable: np.ndarray
    unstable: np.ndarray
    marginal: np.ndarray
    blank: np.ndarray
    errors: np.ndarray
    error_messages: dict[tuple[int, int], str] = field(default_factory=dict)

    def phase_label(self, iy: int, ix: int) -> str:
        """Cell label like '2S+1U', or 'blank' / 'error'."""
        if self.errors[iy, ix]:
            return "error"
        if self.blank[iy, ix]:
            return "blank"
        lab = f"{self.stable[iy, ix]}S+{self.unstable[iy, ix]}U"
        if self.marginal[iy, ix]:
            lab += f"+{self.marginal[iy, ix]}M"
        return lab

    def region_summary(self) -> dict[str, int]:
        """Cell count per phase label, for reporting."""
        # one integer per distinct label, then one phase_label call each
        base = int(max(self.stable.max(), self.unstable.max(),
                       self.marginal.max(), 0)) + 1
        code = ((self.stable.astype(np.int64) * base + self.unstable)
                * base + self.marginal)
        code = np.where(self.errors, -2, np.where(self.blank, -1, code))
        _, first, counts = np.unique(code, return_index=True,
                                     return_counts=True)
        return dict(sorted(
            (self.phase_label(*np.unravel_index(i, code.shape)), int(n))
            for i, n in zip(first, counts)))


def n0_to_drive_passive(n0: float, params: SystemParams) -> DriveSpec:
    """Drive that puts n0 photons in the bare (uncoupled) cavity.

    Inverts n0 = eta^2 / ((kappa/2)^2 + delta_c^2). When the external
    port is configured (kappa_ext > 0 and omega_d > 0) the equivalent
    input power and flux are attached for reporting; without a port the
    drive amplitude alone is returned, since the steady-state problem
    only sees eta.
    """
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    denom = (0.5 * params.kappa) ** 2 + params.delta_c ** 2
    if denom <= 0.0:
        raise ValueError("degenerate mapping: kappa and delta_c both zero")
    eta = math.sqrt(n0 * denom)
    if params.kappa_ext <= 0.0 or params.omega_d <= 0.0:
        return DriveSpec(eta=eta)
    from .model import power_from_drive
    drive = DriveSpec(eta=eta)
    return DriveSpec(eta=eta, s_in=eta / math.sqrt(params.kappa_ext),
                     power_w=power_from_drive(drive, params))


def n0_to_gain_active(n0: float, params: SystemParams) -> float:
    """Effective gain whose free-running photon number would be n0."""
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    if params.gamma_sat <= 0.0:
        raise ValueError("degenerate mapping: gamma_sat must be > 0")
    return n0 * params.gamma_sat


def _eval_cell(grid: GridSpec, x: float, delta_m: float,
               margin_rtol: float) -> tuple[int, int, int, int, str | None]:
    """(n_stable, n_unstable, n_marginal, n_total, error) for one
    passive cell."""
    try:
        params = grid.base.replace(delta_m=delta_m)
        drive = n0_to_drive_passive(x, params)
        fps = passive_fixed_points(params, drive)
        ns = nu = nm = 0
        for fp in fps:
            rep = classify(fp, params, margin_rtol=margin_rtol)
            if rep.is_marginal:
                nm += 1
            elif rep.is_stable:
                ns += 1
            else:
                nu += 1
        return ns, nu, nm, len(fps), None
    except Exception as exc:  # cell errors must not abort the scan
        return 0, 0, 0, 0, _error_text(exc)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _eval_row(args) -> list[tuple[int, int, int, int, str | None]]:
    grid, iy, margin_rtol = args
    dm = grid.delta_m_values()[iy]
    return [_eval_cell(grid, x, dm, margin_rtol) for x in grid.x_values()]


def _scan_passive(grid: GridSpec, workers: int, margin_rtol: float):
    """Per-cell passive scan, rows spread over ``workers`` processes."""
    tasks = [(grid, iy, margin_rtol) for iy in range(grid.delta_m_count)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_eval_row, tasks, chunksize=1))
    else:
        rows = [_eval_row(t) for t in tasks]
    cells = [cell for row in rows for cell in row]
    counts = np.array([cell[:4] for cell in cells], dtype=np.int64)
    messages = {k: cell[4] for k, cell in enumerate(cells)
                if cell[4] is not None}
    return counts.T, messages


def _scan_active(grid: GridSpec, margin_rtol: float):
    """All cells of an active grid, solved in blocks of ACTIVE_BLOCK cells:
    ``steady.solve_active`` for the fixed points of a block, one
    ``classify_points`` for their spectra."""
    n = grid.x_count * grid.delta_m_count
    xs = grid.x_values()
    try:
        gains = xs if grid.x_axis == "gain" else np.array(
            [n0_to_gain_active(x, grid.base) for x in xs])
    except ValueError as exc:
        return np.zeros((4, n), dtype=np.int64), dict.fromkeys(
            range(n), _error_text(exc))
    cells = batch_rates(grid.base, delta_c=0.0,
                        delta_m=np.repeat(grid.delta_m_values(), grid.x_count),
                        gain_eff=np.tile(gains, grid.delta_m_count))
    counts = np.zeros((4, n), dtype=np.int64)
    errors: dict[int, Exception] = {}
    for lo in range(0, n, ACTIVE_BLOCK):
        block = cells.take(slice(lo, lo + ACTIVE_BLOCK))
        size = min(ACTIVE_BLOCK, n - lo)
        sol = steady.solve_active(block)
        rates = block.take(sol.cell)
        spectra = classify_points(rates, sol.a0, sol.m0, sol.omega, True,
                                  margin_rtol * rates.rate_scale())
        failed = dict(sol.errors)
        for i, exc in spectra.errors.items():
            failed.setdefault(int(sol.cell[i]), exc)
        ok = ~np.isin(sol.cell, list(failed))
        marginal = spectra.is_marginal
        for row, mask in enumerate((~marginal & spectra.is_stable,
                                    ~marginal & ~spectra.is_stable,
                                    marginal, ok)):
            counts[row, lo:lo + size] = np.bincount(sol.cell[ok & mask],
                                                    minlength=size)
        errors.update((lo + k, exc) for k, exc in failed.items())
    return counts, {k: _error_text(e) for k, e in sorted(errors.items())}


def scan(grid: GridSpec, workers: int = 1,
         margin_rtol: float = MARGIN_RTOL) -> PhaseDiagram:
    """Evaluate every cell of the grid; see the module docstring.

    Active grids are solved in this process, as batched array
    computations over blocks of cells. Passive grids are solved cell by
    cell, and ``workers`` > 1 distributes their rows over processes.
    Results do not depend on the worker count.
    """
    shape = (grid.delta_m_count, grid.x_count)
    if grid.system == "active":
        counts, messages = _scan_active(grid, margin_rtol)
    else:
        counts, messages = _scan_passive(grid, workers, margin_rtol)
    ns, nu, nm, ntot = (c.reshape(shape) for c in counts)
    errors = np.zeros(shape, dtype=bool)
    errors.flat[list(messages)] = True
    return PhaseDiagram(
        grid=grid, stable=ns.astype(np.int16), unstable=nu.astype(np.int16),
        marginal=nm.astype(np.int16), blank=(ntot == 0) & ~errors,
        errors=errors,
        error_messages={divmod(k, grid.x_count): msg
                        for k, msg in messages.items()})


def bistable_onset(diagram: PhaseDiagram,
                   n_stable: int = 2, n_unstable: int = 1) -> np.ndarray:
    """First x index per detuning row matching the given phase, else -1."""
    ny, nx = diagram.stable.shape
    out = np.full(ny, -1, dtype=int)
    for iy in range(ny):
        hits = np.flatnonzero(
            (diagram.stable[iy] == n_stable)
            & (diagram.unstable[iy] == n_unstable)
            & ~diagram.blank[iy] & ~diagram.errors[iy])
        if hits.size:
            out[iy] = hits[0]
    return out


def onset_monotonicity_flags(diagram: PhaseDiagram) -> list[int]:
    """Rows where the bistable onset is not monotone in distance from
    the most favorable detuning.

    The onset drive should only grow as the detuning moves away from
    the row where bistability starts earliest. Returns the offending
    row indices for manual review; an empty list means the profile is
    clean. Rows without any bistable cell are skipped.
    """
    onset = bistable_onset(diagram)
    present = np.flatnonzero(onset >= 0)
    if present.size == 0:
        return []
    opt = present[np.argmin(onset[present])]
    flags = []
    for row_range in (range(opt, -1, -1), range(opt, len(onset))):
        last = None
        for iy in row_range:
            if onset[iy] < 0:
                continue
            if last is not None and onset[iy] < last:
                flags.append(iy)
            last = onset[iy]
    return sorted(set(flags))
