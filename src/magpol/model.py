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

This module states the equations for the solvers: ``vector_field``
builds the right-hand side ``rhs(ar, ai, mr, mi) -> (dar, dai, dmr,
dmi)``, the equations above split into real and imaginary parts and
evaluated in real arithmetic, and ``jacobian`` their linearization as a
real matrix on (Re a, Im a, Re m, Im m). Both evaluate elementwise on
floats or on arrays of states of any leading shape, with the rates
taken from a ``SystemParams`` or, for a batch of parameter points, from
a ``Rates`` of broadcasting arrays. The Newton polish, the stability
classification and the test oracles call them. The RK4 loop of
``dynamics.integrate_segment`` holds one fused restatement of
``vector_field`` instead, with no call per stage, which the tests pin
to it bit for bit.

Large occupations (1e9..1e15 quanta) make the raw nonlinear terms span
many decades, so solvers rescale amplitudes by ``s = sqrt(n_ref)``
before doing numerics; the equations are form-invariant under
``a -> a/s, m -> m/s, kerr -> kerr s^2, gamma_sat -> gamma_sat s^2,
eta -> eta/s``. This module owns that scale: ``Rates.rescale`` is the
one rescaling of the rates (callers divide state and drive by s),
``bare_cavity_photons`` the one bare-cavity photon number
eta^2 / ((kappa/2)^2 + delta_c^2), the n_ref of the passive model, and
``saturated_photons`` the n_ref G_eff / gamma_sat of the active one,
both elementwise, raising or recording a ConditioningError on overflow.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError

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
        return float(Rates.rate_scale(self))

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
    in sqrt(quanta)/us; phase is gauged away, so eta >= 0. It is the
    only drive quantity the equations see: ``eta_from_power`` and
    ``power_from_drive`` convert to and from an input power.
    """

    eta: float

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
    return DriveSpec(eta=math.sqrt(params.kappa_ext) * s_in)


def power_from_drive(drive: DriveSpec, params: SystemParams) -> float:
    """Inverse of eta_from_power: input power (W) behind a drive amplitude."""
    if params.omega_d <= 0 or params.kappa_ext <= 0:
        raise ValueError("omega_d and kappa_ext must be > 0 to assign a power")
    flux_per_us = drive.eta ** 2 / params.kappa_ext
    return flux_per_us * 1e6 * (HBAR_JS * params.omega_d * 1e6)


class Rates(NamedTuple):
    """The rates the equations read, as floats or broadcasting arrays.

    ``vector_field`` and ``jacobian`` read only these attributes,
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
        """Characteristic rate of each batch member for tolerances, with
        no absolute floor (1 where every rate is 0, which has no scale);
        ``SystemParams.rate_scale`` is its one-point call."""
        scale = functools.reduce(np.maximum, (
            self.kappa, self.gamma, 2.0 * self.g, np.abs(self.delta_c),
            np.abs(self.delta_m), np.abs(self.gain_eff)))
        return scale + (scale == 0.0)

    def take(self, idx) -> "Rates":
        """The rates of the batch members ``idx`` (floats pass through)."""
        return Rates(*(v[idx] if np.ndim(v) else v for v in self))

    def rescale(self, s) -> "Rates":
        """The rates seen by amplitudes divided by ``s``: kerr and
        gamma_sat times s^2, the linear rates unchanged. ``s`` is a
        float or broadcasts over the batch members."""
        return self._replace(kerr=self.kerr * s * s,
                             gamma_sat=self.gamma_sat * s * s)


def batch_rates(params: SystemParams, **arrays) -> Rates:
    """``params``' rates with some replaced by per-member arrays."""
    fields = {name: getattr(params, name) for name in Rates._fields}
    fields.update(arrays)
    return Rates(**fields)


def bare_cavity_photons(params: SystemParams | Rates, eta=0.0,
                        errors: dict[int, Exception] | None = None):
    """Photons a drive ``eta`` holds in the bare (uncoupled) cavity.

    Returns (n0, denom) with denom = (kappa/2)^2 + delta_c^2 and
    n0 = eta^2 / denom, or n0 = 0 where denom is 0 (no steady state:
    callers decide), elementwise over a ``Rates`` of arrays and an
    array ``eta``. Where either overflows it raises ConditioningError,
    or, given ``errors``, maps the batch member's index to it.
    """
    kappa, delta_c, eta = np.broadcast_arrays(params.kappa, params.delta_c,
                                              eta)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # float_power is libm's pow, as Python's float ** is: same bits
        denom = np.float_power(0.5 * kappa, 2) + np.float_power(delta_c, 2)
        n0 = np.where(denom > 0.0, np.float_power(eta, 2) / denom, 0.0)
    for i in np.flatnonzero(~(np.isfinite(n0) & np.isfinite(denom))):
        exc = ConditioningError(
            f"bare cavity: {'eta^2 / ' if np.isfinite(denom.flat[i]) else ''}"
            f"((kappa/2)^2 + delta_c^2) overflows (eta = {eta.flat[i]:.6e} "
            f"/us, kappa = {kappa.flat[i]:.6e}, delta_c = "
            f"{delta_c.flat[i]:.6e} rad/us)")
        if errors is None:
            raise exc
        errors[int(i)] = exc
    return n0[()], denom[()]


def saturated_photons(params: SystemParams | Rates,
                      errors: dict[int, Exception] | None = None):
    """Photons at which saturation cancels the gain: G_eff / gamma_sat.

    The n_ref of the active model, elementwise over a ``Rates`` of
    arrays; negative below threshold, and 0 where gamma_sat is 0 (no
    saturation: callers decide). Where the ratio overflows it raises
    ConditioningError, or, given ``errors``, maps the batch member's
    index to it.
    """
    gain_eff, gamma_sat = np.broadcast_arrays(params.gain_eff,
                                              params.gamma_sat)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n_sat = np.where(gamma_sat > 0.0, gain_eff / gamma_sat, 0.0)
    for i in np.flatnonzero(~np.isfinite(n_sat)):
        exc = ConditioningError(
            f"saturated cavity: G_eff / gamma_sat overflows (G_eff = "
            f"{gain_eff.flat[i]:.6e}, gamma_sat = {gamma_sat.flat[i]:.6e} "
            f"rad/us)")
        if errors is None:
            raise exc
        errors[int(i)] = exc
    return n_sat[()]


def vector_field(params: SystemParams | Rates,
                 drive: DriveSpec | None = None):
    """Right-hand side ``rhs(ar, ai, mr, mi) -> (dar, dai, dmr, dmi)``.

    The arguments are the real and imaginary parts of a and m, and the
    results those of da/dt and dm/dt, at fixed parameters, as floats or
    broadcasting arrays. With ``drive`` the passive driven model,
    without it the active model, whose frame is pinned to the gain
    center, so a nonzero ``delta_c`` is rejected rather than silently
    ignored. The rates are bound as closure locals.

    Real arithmetic only: each component is the textbook expansion of
    the complex products in the module docstring with the exact zero
    and unit parts of ``1j * x`` dropped, so every value rounds as it
    does in complex arithmetic; only the sign of an exactly zero dm
    component can differ. The trailing ``+ 0.0`` of the passive dai is
    the imaginary part of the real drive ``eta``, which turns -0.0 into
    0.0 as the complex sum does.
    """
    hk = 0.5 * params.kappa
    hg = 0.5 * params.gamma
    g = params.g
    kerr = params.kerr
    dc = params.delta_c
    dmg = params.delta_m
    if drive is not None:
        eta = drive.eta

        def rhs(ar, ai, mr, mi):
            w = dmg + kerr * (mr * mr + mi * mi)
            return (dc * ai - hk * ar + g * mi + eta,
                    -hk * ai - dc * ar - g * mr + 0.0,
                    w * mi - hg * mr + g * ai,
                    -hg * mi - w * mr - g * ar)
        return rhs

    if np.any(dc != 0.0):
        raise ValueError(f"active model requires delta_c == 0, got {dc}")
    g_eff = params.gain_eff
    gsat = params.gamma_sat

    def rhs(ar, ai, mr, mi):
        net = g_eff - gsat * (ar * ar + ai * ai)
        w = dmg + kerr * (mr * mr + mi * mi)
        return (net * ar + g * mi,
                net * ai - g * mr,
                w * mi - hg * mr + g * ai,
                -hg * mi - w * mr - g * ar)
    return rhs


def jacobian(params: SystemParams | Rates, a, m, omega=0.0,
             active: bool = False) -> np.ndarray:
    """Real linearization acting on (Re a, Im a, Re m, Im m).

    Shape (..., 4, 4) over the broadcast shape of the states (a, m), in
    a frame co-rotating at ``omega`` (d/dt picks up +i*omega). Each row
    pair is built from the derivatives (A, B) of da/dt or dm/dt with
    respect to (z, z*), z = a or m, as the block [[Re(A+B), -Im(A-B)],
    [Im(A+B), Re(A-B)]]. Only the photon rows depend on the model: gain
    and saturation with ``active``, else the passive cavity (the
    constant drive drops out). The matrix is similar to the
    doubled-basis one on (da, da*, dm, dm*), so it has the same
    spectrum, closed under complex conjugation.
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
    cols = [(row[0] + row[1], 1j * (row[0] - row[1]),
             row[2] + row[3], 1j * (row[2] - row[3]))
            for row in (row_a, row_m)]
    out = np.empty(np.broadcast(*cols[0], *cols[1]).shape + (4, 4))
    for i, row in enumerate(cols):
        for k, col in enumerate(row):
            out[..., 2 * i, k] = np.real(col)
            out[..., 2 * i + 1, k] = np.imag(col)
    return out
