"""Calibration fits: reflection dip and Kittel line.

This module works in lab units rather than the solver's internal
ones: angular frequencies in rad/s, magnetic fields in tesla (the
applied mu0 H0). Conversion to solver detunings (rad/us) happens at
the CLI boundary.

The reflection model is the standard input-output form for a single
port coupled to one resonance::

    S11(w) = 1 - kappa_a / (i (w - omega_m) + kappa_load / 2)

with total linewidth kappa_load = kappa_a + gamma split into the
antenna coupling kappa_a and the intrinsic magnon damping gamma. Only
the magnitude |S11| is fitted, since that is what a scalar network
measurement provides; the overall amplitude of the data is removed
first by normalizing the off-resonant baseline to 1 and the applied
factor is kept on the result.

The magnon frequency follows the Kittel law ``omega_m = gamma_e mu0
(H0 + H_A)``, linear in field, fitted by ordinary least squares.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError
from .model import TWO_PI

# Minimum fractional dip depth below the normalized baseline for the
# data to count as containing a resonance at all.
MIN_DIP_DEPTH = 0.01


@dataclass(frozen=True)
class ReflectionFit:
    """Single-resonance reflection-dip parameters, all rates rad/s.

    ``goodness`` is the rms misfit of the normalized magnitude (so
    0.001 means 0.1% of the baseline level); ``baseline`` is the
    amplitude factor divided out of the data before fitting.
    """

    omega_m: float
    kappa_a: float
    gamma: float
    goodness: float
    baseline: float = 1.0

    def __post_init__(self):
        if self.kappa_a < 0 or self.gamma < 0:
            raise ValueError("coupling and damping rates must be >= 0")

    @property
    def kappa_load(self) -> float:
        """Total loaded linewidth, kappa_a + gamma by definition."""
        return self.kappa_a + self.gamma


@dataclass(frozen=True)
class KittelFit:
    """Linear field-to-frequency law omega_m = gamma_e mu0 (H0 + H_A).

    ``gamma_e_hz_per_t`` is gamma_e / 2 pi in Hz per tesla (the usual
    "MHz/mT" number times 1e9); ``anisotropy_t`` is mu0 H_A in tesla;
    ``residual_rms`` is the rms misfit in rad/s.
    """

    gamma_e_hz_per_t: float
    anisotropy_t: float
    residual_rms: float

    @property
    def slope_rad_s_per_t(self) -> float:
        return TWO_PI * self.gamma_e_hz_per_t

    def magnon_freq(self, b_t: float) -> float:
        """omega_m (rad/s) at applied field mu0 H0 = b_t (tesla)."""
        return self.slope_rad_s_per_t * (b_t + self.anisotropy_t)


def s11_model(omega, fit: ReflectionFit):
    """Complex reflection coefficient at angular frequency omega (rad/s)."""
    omega = np.asarray(omega, dtype=float)
    denom = 1j * (omega - fit.omega_m) + 0.5 * fit.kappa_load
    return 1.0 - fit.kappa_a / denom


def _baseline_level(mags: np.ndarray) -> float:
    """Off-resonance amplitude: median of the outer tenth of each edge."""
    n_edge = max(2, mags.size // 10)
    edges = np.concatenate([mags[:n_edge], mags[-n_edge:]])
    level = float(np.median(edges))
    if not (level > 0 and math.isfinite(level)):
        raise FitError(f"non-positive baseline level {level}")
    return level


def fit_s11(spectrum) -> ReflectionFit:
    """Fit (omega_m, kappa_a, gamma) to a measured |S11| dip.

    ``spectrum`` is an (N, 2) array-like of (omega rad/s, |S11|) rows,
    N >= 8, with the dip bracketed by off-resonant data on both sides.
    Damped least squares on the magnitude of ``s11_model``, seeded
    from the dip position, depth and half-depth width. Magnitude data
    determine kappa_a and gamma only up to exchange (see the comment
    below), so results use the undercoupled convention
    kappa_a <= gamma. Raises FitError when the data contain no dip or
    cannot bracket it.
    """
    # imported here: scipy.optimize takes about 0.6 s and 45 MB to
    # import, which every other command would pay at start-up
    from scipy.optimize import least_squares

    arr = np.asarray(spectrum, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FitError(f"spectrum must be (N, 2), got {arr.shape}")
    if arr.shape[0] < 8:
        raise FitError(f"need >= 8 spectrum points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise FitError("spectrum contains non-finite values")
    order = np.argsort(arr[:, 0])
    omega, y = arr[order, 0], arr[order, 1]
    if omega[0] == omega[-1]:
        raise FitError("spectrum has zero frequency span")
    # |S11|^2 = 1 - kappa_a gamma / ((w - w_m)^2 + kappa_load^2/4) is
    # symmetric under kappa_a <-> gamma, so magnitude data cannot tell
    # the two apart; results are reported in the undercoupled
    # convention kappa_a <= gamma.

    baseline = _baseline_level(y)
    y = y / baseline
    i_dip = int(np.argmin(y))
    depth = 1.0 - float(y[i_dip])
    if depth < MIN_DIP_DEPTH:
        raise FitError(f"no dip in spectrum (depth {depth:.4f} below "
                       f"baseline, need {MIN_DIP_DEPTH})")
    if i_dip == 0 or i_dip == y.size - 1:
        raise FitError("dip sits at the edge of the frequency window")

    # half-depth width as the loaded-linewidth seed
    half = 1.0 - 0.5 * depth
    i_lo = i_dip
    while i_lo > 0 and y[i_lo] < half:
        i_lo -= 1
    i_hi = i_dip
    while i_hi < y.size - 1 and y[i_hi] < half:
        i_hi += 1
    width = float(omega[i_hi] - omega[i_lo])
    if width <= 0:
        width = float(omega[-1] - omega[0]) / 10.0

    # The edge-median normalization is only approximate when the
    # window is a few linewidths wide, so the true off-resonant level
    # is refined as a free amplitude factor alongside the physics.
    def residual(theta):
        w_m, k_a, g_m, amp = theta
        fit = ReflectionFit(omega_m=w_m, kappa_a=k_a, gamma=g_m, goodness=0.0)
        return amp * np.abs(s11_model(omega, fit)) - y

    span = float(omega[-1] - omega[0])
    r0 = 0.5 * (1.0 - float(y[i_dip]))
    k_a0 = max(r0 * width, 1e-6 * width)
    g_m0 = max(width - k_a0, 1e-6 * width)
    sol = least_squares(
        residual, x0=[float(omega[i_dip]), k_a0, g_m0, 1.0],
        bounds=([float(omega[0]), 0.0, 0.0, 0.5],
                [float(omega[-1]), np.inf, np.inf, 2.0]),
        x_scale=[max(span, width), width, width, 1.0])
    if not sol.success:
        raise FitError(f"reflection fit did not converge: {sol.message}")
    rms = math.sqrt(2.0 * sol.cost / omega.size)
    k_a, g_m = float(sol.x[1]), float(sol.x[2])
    if k_a > g_m:
        k_a, g_m = g_m, k_a
    return ReflectionFit(omega_m=float(sol.x[0]), kappa_a=k_a, gamma=g_m,
                         goodness=rms, baseline=baseline * float(sol.x[3]))


def fit_kittel(points) -> KittelFit:
    """Least-squares Kittel line through (mu0 H0 tesla, omega_m rad/s).

    Needs at least two distinct fields; the slope must come out
    positive for the gyromagnetic interpretation to hold.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FitError(f"points must be (N, 2), got {arr.shape}")
    if arr.shape[0] < 2:
        raise FitError(f"need >= 2 field points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise FitError("field points contain non-finite values")
    b, w = arr[:, 0], arr[:, 1]
    if np.ptp(b) == 0:
        raise FitError("all fields identical; line is underdetermined")
    slope, intercept = np.polyfit(b, w, 1)
    if slope <= 0:
        raise FitError(f"non-physical Kittel slope {slope:.4g} rad/s/T")
    resid = w - (slope * b + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return KittelFit(gamma_e_hz_per_t=float(slope) / TWO_PI,
                     anisotropy_t=float(intercept / slope),
                     residual_rms=rms)


def detuning_from_field(b_t: float, kittel: KittelFit,
                        omega_ref: float) -> float:
    """Magnon-drive detuning (rad/s) at field b_t against omega_ref."""
    return kittel.magnon_freq(b_t) - omega_ref


def _read_two_column_csv(path: str, expect_tag: str,
                         units: dict[str, float]) -> tuple[float, np.ndarray]:
    """Strict two-column CSV with a one-line unit header.

    The header must be ``<expect_tag>,<unit>`` with the unit one of
    ``units``, a unit -> scale table; returns (the unit's scale, data
    rows). Errors carry the path and 1-based line number.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    rows = []
    unit = None
    for ln, row in enumerate(csv.reader(lines), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        cells = [c.strip() for c in row]
        if unit is None:
            if len(cells) != 2 or cells[0] != expect_tag:
                raise ConfigError(
                    f"{path}:{ln}: expected header '{expect_tag},"
                    f"<{'|'.join(units)}>', got {','.join(cells)!r}")
            if cells[1] not in units:
                raise ConfigError(
                    f"{path}:{ln}: unknown unit {cells[1]!r}; expected "
                    f"one of {sorted(units)}")
            unit = cells[1]
            continue
        if len(cells) != 2:
            raise ConfigError(f"{path}:{ln}: expected 2 columns, got "
                              f"{len(cells)}")
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            raise ConfigError(f"{path}:{ln}: non-numeric value in "
                              f"{','.join(cells)!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigError(f"{path}:{ln}: non-finite value in "
                              f"{','.join(cells)!r}")
        rows.append((x, y))
    if unit is None:
        raise ConfigError(f"{path}: empty file; expected a "
                          f"'{expect_tag},<unit>' header")
    if not rows:
        raise ConfigError(f"{path}: no data rows after the header")
    return units[unit], np.asarray(rows, dtype=float)


def load_spectrum_csv(path: str) -> np.ndarray:
    """Read a reflection spectrum CSV into (omega rad/s, |S11|) rows.

    Format: header line ``freq_unit,Hz`` or ``freq_unit,GHz``, then
    two columns (frequency, linear magnitude).
    """
    scale, data = _read_two_column_csv(path, "freq_unit",
                                       {"Hz": 1.0, "GHz": 1e9})
    out = data.copy()
    out[:, 0] = TWO_PI * data[:, 0] * scale
    return out


def load_field_points_csv(path: str) -> np.ndarray:
    """Read a Kittel CSV into (mu0 H0 tesla, omega_m rad/s) rows.

    Format: header line ``field_unit,mT`` or ``field_unit,G``
    (1 G = 0.1 mT), then two columns (field, frequency in GHz).
    """
    scale, data = _read_two_column_csv(path, "field_unit",
                                       {"mT": 1e-3, "G": 1e-4})
    out = data.copy()
    out[:, 0] = data[:, 0] * scale
    out[:, 1] = TWO_PI * data[:, 1] * 1e9
    return out
