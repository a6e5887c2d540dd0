"""Coupled photon-magnon mode equations and parameter containers.

Conventions used throughout the package:

* Rates and detunings are angular, in rad/us. A value quoted as
  "2 pi x 1.5 MHz" enters as ``2 * np.pi * 1.5``.
* Time is in us.
* Mode amplitudes are in sqrt(quanta), so ``abs(a)**2`` is a photon
  number and ``abs(m)**2`` a magnon number.
* SI quantities (watts, joules) appear only at the I/O boundary:
  ``eta_from_power`` here and the calibration module.

Two rotating-frame models are implemented. The passive cavity is driven
through an external port and both modes decay::

    da/dt = -(kappa/2 + i delta_c) a - i g m + eta
    dm/dt = -(gamma/2 + i delta_m) m - i g a - i kerr |m|^2 m

The active cavity replaces drive and photon decay with saturable gain
(a van der Pol photon mode coupled to the magnon mode). Its frame
rotates at the gain center, so ``delta_c`` is zero exactly::

    da/dt = (G_eff - gamma_sat |a|^2) a - i g m
    dm/dt = -(gamma/2 + i delta_m) m - i g a - i kerr |m|^2 m

``G_eff`` is the photon gain net of internal loss. ``SystemParams.gain``
holds G_eff directly when ``gain_absorbed`` is true (the default);
otherwise it holds the raw pump gain and ``kappa/2`` is subtracted.

This module holds the only copy of the equations, used by every
solver: ``vector_field`` builds the right-hand side, and
``jacobian_rows``/``jacobian`` its linearization in the doubled basis
(a, a*, m, m*). All three evaluate elementwise on arrays of states of
any leading shape, with the rates taken from a ``SystemParams`` or, for
a batch of parameter points, from a ``Rates`` of broadcasting arrays.

Large occupations (1e9..1e15 quanta) make the raw nonlinear terms span
many decades, so solvers rescale amplitudes by ``s = sqrt(n_ref)`` with
``rescale`` before doing numerics; the equations are form-invariant
under ``a -> a/s, m -> m/s, kerr -> kerr s^2, gamma_sat -> gamma_sat s^2,
eta -> eta/s``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# CODATA 2018 reduced Planck constant, J s. I/O conversions only.
HBAR_JS = 1.054571817e-34

# rad/us per us^-1
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SystemParams:
    """Rates and detunings of one photon-magnon pair, all angular (rad/us).

    Parameters
    ----------
    kappa : float
        Total photon decay rate (passive cavity).
    gamma : float
        Total magnon decay rate.
    g : float
        Photon-magnon coupling rate, >= 0.
    kerr : float
        Magnon self-Kerr shift per magnon. May take either sign.
    delta_c : float
        Photon detuning from the drive (passive only; must stay 0 for
        the active model, whose frame is pinned to the gain center).
    delta_m : float
        Magnon detuning from the drive (passive) or from the gain
        center (active).
    kappa_ext : float
        External port coupling, 0 <= kappa_ext <= kappa (passive).
    omega_d : float
        Drive frequency, used only to convert input power to photon
        flux (passive).
    gain : float
        Photon gain (active). Effective or raw depending on
        ``gain_absorbed``.
    gamma_sat : float
        Gain saturation per photon (active), >= 0.
    gain_absorbed : bool
        True if ``gain`` is already net of internal photon loss
        (G_eff); False if kappa/2 still has to be subtracted.
    """

    kappa: float = 0.0
    gamma: float = 0.0
    g: float = 0.0
    kerr: float = 0.0
    delta_c: float = 0.0
    delta_m: float = 0.0
    kappa_ext: float = 0.0
    omega_d: float = 0.0
    gain: float = 0.0
    gamma_sat: float = 0.0
    gain_absorbed: bool = True

    def __post_init__(self):
        for name in ("kappa", "gamma", "g", "kerr", "delta_c", "delta_m",
                     "kappa_ext", "omega_d", "gain", "gamma_sat"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.gamma_sat < 0:
            raise ValueError(f"gamma_sat must be >= 0, got {self.gamma_sat}")
        if self.omega_d < 0:
            raise ValueError(f"omega_d must be >= 0, got {self.omega_d}")
        if not 0.0 <= self.kappa_ext <= self.kappa:
            raise ValueError(
                f"kappa_ext must lie in [0, kappa], got {self.kappa_ext} "
                f"with kappa={self.kappa}")

    @property
    def gain_eff(self) -> float:
        """Net photon gain G_eff = gain - kappa/2 (or gain if absorbed)."""
        if self.gain_absorbed:
            return self.gain
        return self.gain - 0.5 * self.kappa

    def rate_scale(self) -> float:
        """Characteristic rate used for residual and margin tolerances."""
        return max(self.kappa, self.gamma, 2.0 * self.g,
                   abs(self.delta_c), abs(self.delta_m),
                   abs(self.gain_eff), 1e-9)

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ModeState:
    """Instantaneous amplitudes (sqrt quanta) and the time they refer to."""

    a: complex
    m: complex
    t: float = 0.0

    @property
    def n_a(self) -> float:
        return abs(self.a) ** 2

    @property
    def n_m(self) -> float:
        return abs(self.m) ** 2

    def is_finite(self) -> bool:
        return (math.isfinite(self.a.real) and math.isfinite(self.a.imag)
                and math.isfinite(self.m.real) and math.isfinite(self.m.imag)
                and math.isfinite(self.t))


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive on the passive cavity.

    ``eta`` is the drive amplitude as it enters the photon equation,
    in sqrt(quanta)/us; phase is gauged away, so eta >= 0. ``s_in``
    (sqrt(quanta)/sqrt(us)) and ``power_w`` (watts) are kept when the
    drive was built from an input power, for reporting only.
    """

    eta: float
    s_in: float | None = None
    power_w: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.eta) or self.eta < 0:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta!r}")


def eta_from_power(power_w: float, params: SystemParams) -> DriveSpec:
    """Convert input power (W) to the intracavity drive amplitude.

    The input photon flux is ``s_in^2 = P / (hbar omega_d)`` and the
    drive term is ``eta = sqrt(kappa_ext) * s_in``. Requires a strictly
    positive drive frequency and external coupling.
    """
    if power_w < 0 or not math.isfinite(power_w):
        raise ValueError(f"power_w must be finite and >= 0, got {power_w!r}")
    if params.omega_d <= 0:
        raise ValueError("omega_d must be > 0 to convert power to flux")
    if params.kappa_ext <= 0:
        raise ValueError("kappa_ext must be > 0 to convert power to flux")
    # omega_d is rad/us; hbar omega in J needs rad/s, and the flux in
    # quanta/us needs another 1e-6.
    flux_per_us = power_w / (HBAR_JS * params.omega_d * 1e6) * 1e-6
    s_in = math.sqrt(flux_per_us)
    return DriveSpec(eta=math.sqrt(params.kappa_ext) * s_in,
                     s_in=s_in, power_w=power_w)


def power_from_drive(drive: DriveSpec, params: SystemParams) -> float:
    """Inverse of eta_from_power: input power (W) behind a drive amplitude."""
    if params.omega_d <= 0 or params.kappa_ext <= 0:
        raise ValueError("omega_d and kappa_ext must be > 0 to assign a power")
    flux_per_us = drive.eta ** 2 / params.kappa_ext
    return flux_per_us * 1e6 * (HBAR_JS * params.omega_d * 1e6)


class Rates(NamedTuple):
    """The rates the equations read, as floats or broadcasting arrays.

    ``vector_field`` and ``jacobian_rows`` read only these attributes,
    so they take a ``Rates`` wherever they take a ``SystemParams``: a
    batch of parameter points (one detuning, gain or rescaled
    nonlinearity per state) then evaluates as one array expression.
    ``gain_eff`` is G_eff itself. Build one with ``batch_rates``.
    """

    kappa: float | np.ndarray
    gamma: float | np.ndarray
    g: float | np.ndarray
    kerr: float | np.ndarray
    delta_c: float | np.ndarray
    delta_m: float | np.ndarray
    gain_eff: float | np.ndarray
    gamma_sat: float | np.ndarray

    def rate_scale(self):
        """``SystemParams.rate_scale`` of each batch member."""
        return functools.reduce(np.maximum, (
            self.kappa, self.gamma, 2.0 * self.g, np.abs(self.delta_c),
            np.abs(self.delta_m), np.abs(self.gain_eff), 1e-9))

    def take(self, idx) -> "Rates":
        """The rates of the batch members ``idx`` (floats pass through)."""
        return Rates(*(v[idx] if np.ndim(v) else v for v in self))


def batch_rates(params: SystemParams, **arrays) -> Rates:
    """``params``' rates with some replaced by per-member arrays."""
    fields = {name: getattr(params, name) for name in Rates._fields}
    fields.update(arrays)
    return Rates(**fields)


def vector_field(params: SystemParams | Rates,
                 drive: DriveSpec | None = None):
    """Right-hand side ``rhs(a, m) -> (da/dt, dm/dt)`` at fixed parameters.

    With ``drive`` the passive driven model, without it the active
    model, whose frame is pinned to the gain center, so a nonzero
    ``delta_c`` is rejected rather than silently ignored. The rates are
    bound as closure locals for the inner loop of the integrator.
    """
    hk = 0.5 * params.kappa
    hg = 0.5 * params.gamma
    g = params.g
    kerr = params.kerr
    dc = params.delta_c
    dmg = params.delta_m
    if drive is not None:
        eta = drive.eta

        def rhs(a: complex, m: complex) -> tuple[complex, complex]:
            da = -(hk + 1j * dc) * a - 1j * g * m + eta
            nm = m.real * m.real + m.imag * m.imag
            dm = -(hg + 1j * (dmg + kerr * nm)) * m - 1j * g * a
            return da, dm
        return rhs

    if dc != 0.0:
        raise ValueError(f"active model requires delta_c == 0, got {dc}")
    g_eff = params.gain_eff
    gsat = params.gamma_sat

    def rhs(a: complex, m: complex) -> tuple[complex, complex]:
        na = a.real * a.real + a.imag * a.imag
        da = (g_eff - gsat * na) * a - 1j * g * m
        nm = m.real * m.real + m.imag * m.imag
        dm = -(hg + 1j * (dmg + kerr * nm)) * m - 1j * g * a
        return da, dm
    return rhs


def jacobian_rows(params: SystemParams | Rates, a, m, omega=0.0,
                  active: bool = False) -> tuple[tuple, tuple]:
    """Rows d(da/dt) and d(dm/dt) of the doubled-basis linearization.

    Columns are the derivatives with respect to (a, a*, m, m*) at the
    state (a, m), in a frame co-rotating at ``omega`` (d/dt picks up
    +i*omega). Only the photon row depends on the model: gain and
    saturation with ``active``, else the passive cavity (the constant
    drive drops out). Entries are scalars or arrays broadcasting over
    the states.
    """
    g = params.g
    kerr = params.kerr
    row_m = (-1j * g, 0j,
             -(0.5 * params.gamma + 1j * (params.delta_m - omega))
             - 2j * kerr * abs(m) ** 2,
             -1j * kerr * m * m)
    if active:
        gsat = params.gamma_sat
        row_a = (params.gain_eff + 1j * omega - 2.0 * gsat * abs(a) ** 2,
                 -gsat * a * a, -1j * g, 0j)
    else:
        row_a = (-(0.5 * params.kappa + 1j * (params.delta_c - omega)), 0j,
                 -1j * g, 0j)
    return row_a, row_m


def jacobian(params: SystemParams | Rates, a, m, omega=0.0,
             active: bool = False) -> np.ndarray:
    """Linearization acting on the doubled vector (da, da*, dm, dm*).

    Shape (..., 4, 4) over the broadcast shape of the states. Rows 1
    and 3 are rows 0 and 2 conjugated with the pairing swapped, so the
    spectrum is closed under complex conjugation.
    """
    row_a, row_m = jacobian_rows(params, a, m, omega, active)
    entries = [*row_a, *(row_a[k].conjugate() for k in (1, 0, 3, 2)),
               *row_m, *(row_m[k].conjugate() for k in (1, 0, 3, 2))]
    out = np.empty(np.broadcast(*entries).shape + (16,), dtype=complex)
    for k, entry in enumerate(entries):
        out[..., k] = entry
    return out.reshape(out.shape[:-1] + (4, 4))


def rhs_passive(state: ModeState, params: SystemParams,
                drive: DriveSpec) -> tuple[complex, complex]:
    """Time derivatives (da/dt, dm/dt) of the driven passive model."""
    if not state.is_finite():
        raise OverflowError(f"non-finite state at t={state.t}: {state!r}")
    return vector_field(params, drive)(state.a, state.m)


def rhs_active(state: ModeState,
               params: SystemParams) -> tuple[complex, complex]:
    """Time derivatives (da/dt, dm/dt) of the gain-driven model."""
    rhs = vector_field(params)
    if not state.is_finite():
        raise OverflowError(f"non-finite state at t={state.t}: {state!r}")
    return rhs(state.a, state.m)


def rescale(state: ModeState | None, params: SystemParams, s: float,
            drive: DriveSpec | None = None
            ) -> tuple[ModeState | None, SystemParams, DriveSpec | None]:
    """Rescale amplitudes by s and the nonlinear rates by s^2.

    Returns (state/s, params with kerr*s^2 and gamma_sat*s^2, drive/s).
    The equations of motion are invariant: rhs of the scaled system
    equals rhs of the original divided by s, componentwise. ``state``
    and ``drive`` may be None and are passed through as None.
    """
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"scale s must be finite and > 0, got {s!r}")
    sp = params.replace(kerr=params.kerr * s * s,
                        gamma_sat=params.gamma_sat * s * s)
    st = None
    if state is not None:
        st = ModeState(a=state.a / s, m=state.m / s, t=state.t)
    dr = None
    if drive is not None:
        dr = DriveSpec(eta=drive.eta / s)
    return st, sp, dr
