"""Stability phase diagrams over (drive or gain) x (magnon detuning).

A grid cell fixes one point in parameter space; the cell is solved for
all fixed points, each is classified by the Hurwitz test of
``stability`` (no eigenvalue is computed), and the cell reports how
many came out stable, unstable, and marginal. Cells with no admissible
fixed point are blank (for the active system that means the origin is
the only attractor). Exceptions raised while solving a cell go to a
per-cell error channel instead of aborting the scan.

The x axis is either a photon number target ``n0`` (drive power for
the passive system through ``n0_to_drive_passive``, pump gain for the
active one through ``n0_to_gain_active``) or the effective gain
directly. n0 axes are sampled logarithmically, gain axes linearly,
detuning always linearly.

``solve_cells`` labels any set of points, on the grid or off it: it
builds their rates, solves them in one batched call
(``steady.passive_fixed_points`` or ``steady.active_fixed_points``),
classifies all their fixed points in one ``stability.classify`` call
and counts. ``scan`` is the layout around it: it builds both axes
once, cuts the grid into row-major ranges of at most ``BLOCK`` cells
and hands each range's points to ``solve_cells`` in the calling
thread. Threads would not pay: the root stage is numpy arithmetic on
arrays of a few thousand entries, whose every short operation hands
the GIL over and takes it back, so a second thread only adds CPU time.
Scans are deterministic: every cell's result depends only on that
cell and is assembled by index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SystemParams, bare_cavity_photons, batch_rates
from .stability import classify, phase_label
from .steady import active_fixed_points, passive_fixed_points

_VALID_SYSTEMS = ("passive", "active")
_VALID_AXES = ("n0", "gain")

# Most cells a range holds. An active range's stacked arrays take
# about 3 kB per cell, so this bounds the scan's memory for any grid
# size; larger ranges are no faster.
BLOCK = 4096


@dataclass(frozen=True)
class GridSpec:
    """Scan layout: x axis, detuning axis, and the shared base parameters.

    ``base`` carries every rate that does not vary across the grid;
    ``delta_m`` in it is overridden cell by cell, and so is, on an
    active grid, the net gain G_eff (either axis sets it), so an active
    ``base`` needs ``gain_absorbed`` true. Detunings and gain are
    rad/us as usual; ``n0`` bounds are photon numbers.
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
        if self.system == "active" and not self.base.gain_absorbed:
            raise ValueError("active scans set G_eff cell by cell, so they "
                             "need gain_absorbed true")
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
        return phase_label(self.stable[iy, ix], self.unstable[iy, ix],
                           self.marginal[iy, ix])

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


def n0_to_drive_passive(n0: float | np.ndarray,
                        params: SystemParams) -> float | np.ndarray:
    """Drive amplitude eta that puts n0 photons in the bare (uncoupled)
    cavity (a number or an array).

    Inverts ``model.bare_cavity_photons`` (ConditioningError where its
    denominator overflows). eta is inf where n0 times the denominator
    overflows, which the passive solve reports as a bare-cavity
    overflow. ``model.power_from_drive`` gives the input power behind
    eta when the external port is set.
    """
    if np.any(np.less(n0, 0)):
        raise ValueError(f"n0 must be >= 0, got {np.min(n0)}")
    _, denom = bare_cavity_photons(params)
    if denom <= 0.0:
        raise ValueError("degenerate mapping: kappa and delta_c both zero, "
                         "so n0 sets no drive")
    with np.errstate(over="ignore"):
        return np.sqrt(np.multiply(n0, denom))


def n0_to_gain_active(n0: float | np.ndarray,
                      params: SystemParams) -> float | np.ndarray:
    """Effective gain whose free-running photon number would be n0 (a
    number or an array)."""
    if np.any(np.less(n0, 0)):
        raise ValueError(f"n0 must be >= 0, got {np.min(n0)}")
    if params.gamma_sat <= 0.0:
        raise ValueError("degenerate mapping: gamma_sat must be > 0")
    return n0 * params.gamma_sat


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def solve_cells(grid: GridSpec, x: np.ndarray, delta_m: np.ndarray):
    """Counts and error texts of the points (x[k], delta_m[k]).

    ``x`` is in ``grid.x_axis`` units and, like ``delta_m``, a 1-D
    array; the points need not lie on the grid, whose system, axis and
    base parameters they take. Returns the (4, K) stable, unstable,
    marginal and total counts and {k: error text}. The points are
    solved in one ``passive_fixed_points`` or ``active_fixed_points``
    call and their fixed points classified in one ``classify`` call;
    an x axis that does not map to a drive or a gain fails every point.
    """
    base = grid.base
    try:
        if grid.system == "passive":
            eta = n0_to_drive_passive(x, base)
            cells = batch_rates(base, delta_m=delta_m)
        else:
            gains = x if grid.x_axis == "gain" else n0_to_gain_active(x, base)
            cells = batch_rates(base, delta_m=delta_m, gain_eff=gains)
    except ValueError as exc:
        return np.zeros((4, len(x)), dtype=np.int64), dict.fromkeys(
            range(len(x)), _error_text(exc))
    sol = (passive_fixed_points(cells, eta) if grid.system == "passive"
           else active_fixed_points(cells))
    failed = dict(sol.errors)
    code, errors = classify(sol, cells.take(sol.cell))
    for i, exc in errors.items():
        failed.setdefault(int(sol.cell[i]), exc)
    ok = ~np.isin(sol.cell, list(failed))
    counts = np.zeros((4, len(x)), dtype=np.int64)
    np.add.at(counts, (code[ok], sol.cell[ok]), 1)
    counts[3] = counts[:3].sum(axis=0)
    return counts, {k: _error_text(e) for k, e in sorted(failed.items())}


def scan(grid: GridSpec) -> PhaseDiagram:
    """Evaluate every cell of the grid; see the module docstring.

    The cells are cut into row-major ranges of at most ``BLOCK`` cells,
    solved one after the other by ``solve_cells``.
    """
    n = grid.x_count * grid.delta_m_count
    shape = (grid.delta_m_count, grid.x_count)
    # allocated first: a grid that memory cannot hold fails before
    # any range is solved
    counts = np.empty((4, n), dtype=np.int16)
    errors = np.zeros(shape, dtype=bool)
    # every cell's point, row-major; each range solves a slice of them
    x = np.tile(grid.x_values(), grid.delta_m_count)
    delta_m = np.repeat(grid.delta_m_values(), grid.x_count)
    messages = {}
    for lo in range(0, n, BLOCK):
        block, errs = solve_cells(grid, x[lo:lo + BLOCK],
                                  delta_m[lo:lo + BLOCK])
        counts[:, lo:lo + BLOCK] = block
        messages.update((lo + k, msg) for k, msg in errs.items())
    ns, nu, nm, ntot = counts.reshape((4,) + shape)
    errors.flat[list(messages)] = True
    return PhaseDiagram(
        grid=grid, stable=ns, unstable=nu, marginal=nm,
        blank=(ntot == 0) & ~errors, errors=errors,
        error_messages={divmod(k, grid.x_count): msg
                        for k, msg in messages.items()})


def bistable_onset(diagram: PhaseDiagram) -> np.ndarray:
    """First x index per detuning row in the 2S+1U phase, else -1."""
    hits = ((diagram.stable == 2) & (diagram.unstable == 1)
            & ~diagram.blank & ~diagram.errors)
    return np.where(hits.any(1), hits.argmax(1), -1)


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
    # rows present on each side, walked outward from the optimum
    sides = (present[present <= opt][::-1], present[present >= opt])
    return np.sort(np.concatenate(
        [side[1:][np.diff(onset[side]) < 0] for side in sides])).tolist()
