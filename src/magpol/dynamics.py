"""Time integration and hysteretic detuning sweeps.

Segments are integrated with a fixed-step classical Runge-Kutta
scheme on the real and imaginary parts of the two mode amplitudes,
in one loop that restates ``model.vector_field`` inline, pinned to it
bit for bit by the tests. Before integrating, state and drive are
divided by a scale s that makes them O(1), and the nonlinear rates
absorb it (``model.Rates.rescale``): the trajectory is exactly
equivalent, and a fixed overflow guard then means the same thing for
every parameter set.

The sweep protocol models a stepped magnet sweep in which the system
keeps oscillating between steps: each step starts from the final
state of the previous one, and the detuning actually experienced is
the programmed value minus the emission offset measured on the
previous step. Both memory channels can be disabled independently to
recover a memoryless sweep. A sweep keeps each step's last sample
only; its analysis windows go to a caller's consumer as steps end.
"""

from __future__ import annotations

import array
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DivergenceError, FitError
from .model import DriveSpec, ModeState, SystemParams, bare_cavity_photons, \
    batch_rates, saturated_photons
from .spectral import phase_slope_offset

# Squared-amplitude overflow guard, in rescaled units where the
# natural saturated state is O(1).
DIVERGENCE_CAP = 1e12

# Phase-fit confidence below which a sweep step is flagged as not
# single-tone (chaotic, multi-tone, or still transient).
LOW_CONFIDENCE = 0.5


@dataclass(frozen=True)
class TrajectorySegment:
    """One integrated stretch at fixed parameters.

    ``a`` and ``m`` are the complex photon and magnon amplitudes, in
    sqrt quanta: every step of ``integrate_segment``, initial sample
    included, a sweep step's analysis window or its last sample. Their
    time grid is stored, not their times: an integration started at
    ``t0`` with step ``dt``, whose sample ``k0`` is the first one held.
    ``times`` computes the sample times from it, as the integrator's
    own ``t0 + dt * k`` with the same bits.
    """

    a: np.ndarray
    m: np.ndarray
    t0: float
    dt: float
    k0: int = 0

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.k0, self.k0 + self.a.size)

    def final_state(self) -> ModeState:
        return ModeState(a=complex(self.a[-1]), m=complex(self.m[-1]),
                         t=float(self.t0 + self.dt
                                 * (self.k0 + self.a.size - 1)))


def _natural_scale(params: SystemParams, drive: DriveSpec | None) -> float:
    """Squared-amplitude scale of the saturated/driven state, <= 0 where
    there is none (callers take at least 1). Raises ConditioningError
    where it overflows."""
    if drive is not None:
        return bare_cavity_photons(params, drive.eta)[0]
    return saturated_photons(params)


def integrate_segment(state: ModeState, params: SystemParams,
                      duration: float, dt: float,
                      drive: DriveSpec | None = None) -> TrajectorySegment:
    """Fixed-step RK4 integration over ``duration`` (us).

    With ``drive`` the passive driven equations are integrated;
    without it the active (gain plus saturation) equations are, which
    requires ``delta_c == 0`` like the rest of the active machinery.
    The step loop holds one fused restatement of ``model.vector_field``
    with no call per stage: each stage does its operations in its
    order, so every sample has the bits of an RK4 on vector_field (the
    tests pin the two together). Only photon rows branch on the model.
    Raises DivergenceError if the rescaled squared amplitude of either
    mode exceeds DIVERGENCE_CAP, with ``step`` set to the offending
    step index; ConditioningError if the initial occupation, the
    bare-cavity or the saturated photon number overflows; MemoryError,
    before any step, if the samples of ``duration / dt`` steps do not
    fit in memory.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n = int(round(duration / dt))
    if n < 1:
        raise ValueError(f"duration {duration} shorter than one step {dt}")
    if not state.is_finite():
        raise ValueError("initial state is not finite")
    # Every sample's four components, one column each, allocated before
    # the first step so that a step count memory cannot hold fails at once.
    out_ar, out_ai, out_mr, out_mi = (array.array("d", [0.0]) * (n + 1)
                                      for _ in range(4))

    try:
        n_state = max(state.n_a, state.n_m)
    except OverflowError:
        raise ConditioningError(
            f"photon or magnon number of {state!r} overflows") from None
    s = math.sqrt(max(_natural_scale(params, drive), n_state, 1.0))

    # Python floats throughout: a numpy scalar (a fitted detuning, say)
    # would make every operation of the loop a numpy scalar operation,
    # several times slower, with the same bits.
    kappa, gamma, g, kerr, dc, dmg, g_eff, gsat = map(
        float, batch_rates(params).rescale(s))
    passive = drive is not None
    if not passive and dc != 0.0:
        raise ValueError(f"active model requires delta_c == 0, got {dc}")
    eta = float(drive.eta / s) if passive else 0.0
    hk, hg = 0.5 * kappa, 0.5 * gamma
    # vector_field's leading -hk * ai and -hg * mi are (-hk) * ai, (-hg) * mi
    nhk, nhg = -hk, -hg
    a, m = state.a / s, state.m / s
    ar, ai, mr, mi = map(float, (a.real, a.imag, m.real, m.imag))
    out_ar[0], out_ai[0], out_mr[0], out_mi[0] = ar, ai, mr, mi
    na = ar * ar + ai * ai
    nm = mr * mr + mi * mi
    h = float(dt)
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(1, n + 1):
        # stage 1, at the step's start: na and nm are its |a|^2, |m|^2
        w = dmg + kerr * nm
        if passive:
            k1ar = dc * ai - hk * ar + g * mi + eta
            k1ai = nhk * ai - dc * ar - g * mr + 0.0
        else:
            net = g_eff - gsat * na
            k1ar = net * ar + g * mi
            k1ai = net * ai - g * mr
        k1mr = w * mi - hg * mr + g * ai
        k1mi = nhg * mi - w * mr - g * ar
        xar = ar + h2 * k1ar
        xai = ai + h2 * k1ai
        xmr = mr + h2 * k1mr
        xmi = mi + h2 * k1mi
        w = dmg + kerr * (xmr * xmr + xmi * xmi)
        if passive:
            k2ar = dc * xai - hk * xar + g * xmi + eta
            k2ai = nhk * xai - dc * xar - g * xmr + 0.0
        else:
            net = g_eff - gsat * (xar * xar + xai * xai)
            k2ar = net * xar + g * xmi
            k2ai = net * xai - g * xmr
        k2mr = w * xmi - hg * xmr + g * xai
        k2mi = nhg * xmi - w * xmr - g * xar
        xar = ar + h2 * k2ar
        xai = ai + h2 * k2ai
        xmr = mr + h2 * k2mr
        xmi = mi + h2 * k2mi
        w = dmg + kerr * (xmr * xmr + xmi * xmi)
        if passive:
            k3ar = dc * xai - hk * xar + g * xmi + eta
            k3ai = nhk * xai - dc * xar - g * xmr + 0.0
        else:
            net = g_eff - gsat * (xar * xar + xai * xai)
            k3ar = net * xar + g * xmi
            k3ai = net * xai - g * xmr
        k3mr = w * xmi - hg * xmr + g * xai
        k3mi = nhg * xmi - w * xmr - g * xar
        xar = ar + h * k3ar
        xai = ai + h * k3ai
        xmr = mr + h * k3mr
        xmi = mi + h * k3mi
        w = dmg + kerr * (xmr * xmr + xmi * xmi)
        if passive:
            k4ar = dc * xai - hk * xar + g * xmi + eta
            k4ai = nhk * xai - dc * xar - g * xmr + 0.0
        else:
            net = g_eff - gsat * (xar * xar + xai * xai)
            k4ar = net * xar + g * xmi
            k4ai = net * xai - g * xmr
        k4mr = w * xmi - hg * xmr + g * xai
        k4mi = nhg * xmi - w * xmr - g * xar
        ar = ar + h6 * (k1ar + 2.0 * (k2ar + k3ar) + k4ar)
        ai = ai + h6 * (k1ai + 2.0 * (k2ai + k3ai) + k4ai)
        mr = mr + h6 * (k1mr + 2.0 * (k2mr + k3mr) + k4mr)
        mi = mi + h6 * (k1mi + 2.0 * (k2mi + k3mi) + k4mi)
        na = ar * ar + ai * ai
        nm = mr * mr + mi * mi
        if not (na < DIVERGENCE_CAP and nm < DIVERGENCE_CAP):
            raise DivergenceError(
                f"amplitude overflow at step {k} (t = "
                f"{state.t + k * dt:.6g} us): scaled photon number "
                f"{na:.3e}, magnon number {nm:.3e}", step=k)
        out_ar[k] = ar
        out_ai[k] = ai
        out_mr[k] = mr
        out_mi[k] = mi

    a, m = am = np.empty((2, n + 1), dtype=complex)
    a.real, a.imag, m.real, m.imag = out_ar, out_ai, out_mr, out_mi
    am *= s
    return TrajectorySegment(a=a, m=m, t0=state.t, dt=dt)


@dataclass(frozen=True)
class SweepProtocol:
    """Stepped detuning sweep with optional state and detuning memory.

    ``detunings`` are the programmed magnon detunings (rad/us) in
    sweep order. Each step runs for ``t_total`` us at step ``dt``;
    analysis keeps its ``window_samples()`` after ``t_drop`` and fits
    the trailing ``fit_fraction`` of them. With ``memory_state`` each step
    continues from the previous final state; with ``memory_detuning``
    the detuning applied at step k is detunings[k] minus the emission
    offset measured at step k - 1 (the previously developed
    oscillation drags the effective resonance); ``omega_initial`` is
    the offset assumed before the first step (no prior oscillation).
    """

    detunings: tuple[float, ...]
    dt: float = 1.0e-3
    t_total: float = 8.0
    t_drop: float = 3.0
    fit_fraction: float = 0.5
    memory_detuning: bool = True
    memory_state: bool = True
    omega_initial: float = 0.0

    def __post_init__(self):
        if len(self.detunings) == 0:
            raise ValueError("sweep needs at least one detuning")
        if not all(math.isfinite(d) for d in self.detunings):
            raise ValueError("detunings must be finite")
        if not math.isfinite(self.omega_initial):
            raise ValueError("omega_initial must be finite")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.t_drop < self.t_total:
            raise ValueError(f"need 0 <= t_drop < t_total, got t_drop = "
                             f"{self.t_drop}, t_total = {self.t_total}")
        if not 0.0 < self.fit_fraction <= 1.0:
            raise ValueError(f"fit_fraction must be in (0, 1], got "
                             f"{self.fit_fraction}")
        # the integrator holds four doubles (32 bytes) per sample, and
        # numpy cannot make an array of more bytes than an index counts
        if not self.t_total / self.dt < np.iinfo(np.intp).max // 32:
            raise ValueError(f"t_total / dt = {self.t_total / self.dt:.3g} "
                             "samples per step: more than an array can index")
        window = self.window_samples()
        if window < 16:
            raise ValueError("fewer than 16 samples would survive t_drop")
        if int(round(self.fit_fraction * window)) < 8:
            raise ValueError(f"fit_fraction {self.fit_fraction} fits fewer "
                             f"than 8 of {window} samples after t_drop")

    def window_samples(self) -> int:
        """Trailing samples every step keeps for analysis: those with
        k * dt >= t_drop, k = 0 .. round(t_total / dt), as if the step
        started at t = 0, so the count does not depend on its start."""
        first = math.ceil(self.t_drop / self.dt)
        first -= (first - 1) * self.dt >= self.t_drop
        first += first * self.dt < self.t_drop
        return int(round(self.t_total / self.dt)) + 1 - first


@dataclass
class SweepResult:
    """Outcome of ``run_sweep``: the ``protocol`` run and, per step,
    its ``segments`` (one per completed step, up to the first
    divergence; each holds a copy of the step's last sample of ``a``
    and ``m`` only, ``k0`` being its step index, so that
    ``final_state()`` is where the step ended) and fits. No window is
    kept: a caller that wants them passes ``run_sweep`` a consumer.

    ``omegas`` holds the fitted emission offsets (rad/us) per step,
    NaN where the window had no power to fit and from the first
    diverged step onward; ``confidences`` the phase-fit confidences
    (0 where never run); ``low_confidence`` flags steps whose fit fell
    below LOW_CONFIDENCE. ``detunings_effective`` are the detunings
    actually applied, against the nominal ``protocol.detunings``, the
    diverged step's included (NaN after it).
    ``diverged_at`` is the index of the step whose integration
    overflowed, or None; ``error`` carries its message.
    """

    protocol: SweepProtocol
    segments: list[TrajectorySegment]
    detunings_effective: np.ndarray
    omegas: np.ndarray
    confidences: np.ndarray
    low_confidence: np.ndarray
    diverged_at: int | None = None
    error: str | None = None


def default_seed_state(params: SystemParams,
                       drive: DriveSpec | None = None) -> ModeState:
    """Small reproducible kick used when no initial state is given.

    The active equations have the origin as an exact fixed point, so
    an exactly zero seed would never leave it; seed the photon mode at
    1e-3 of the saturated amplitude instead.
    """
    amp = 1e-3 * math.sqrt(max(_natural_scale(params, drive), 1.0))
    return ModeState(a=amp + 0.0j, m=0.0j, t=0.0)


def run_sweep(protocol: SweepProtocol, params: SystemParams,
              drive: DriveSpec | None = None,
              initial_state: ModeState | None = None,
              on_window: Callable[[TrajectorySegment], None] | None = None
              ) -> SweepResult:
    """Run a stepped detuning sweep and fit each step's emission offset.

    Each step fits the phase on its analysis window, with times
    relative to the step start, and keeps a copy of its last sample
    only, as a one-sample segment that ends at its final state, so a
    sweep holds no windows. ``on_window(window)``, if given, receives
    each completed step's window as soon as the step ends, as views
    into the step's trajectory (a consumer that keeps them keeps the
    whole step; reduce or copy instead).
    The first step is offset by ``protocol.omega_initial`` (zero by
    default: no prior oscillation). A DivergenceError inside a step is
    recorded on the result (``diverged_at``, ``error``) rather than
    raised; completed steps keep their fits and the remaining ones
    stay NaN. A step whose analysis window has no power (an all-zero
    seed of the active model never leaves the origin) keeps NaN omega
    and confidence 0, is flagged low-confidence, and leaves the
    detuning offset of the next step unchanged.
    """
    n_seg = len(protocol.detunings)
    result = SweepResult(
        protocol=protocol,
        segments=[],
        detunings_effective=np.full(n_seg, np.nan),
        omegas=np.full(n_seg, np.nan),
        confidences=np.zeros(n_seg),
        low_confidence=np.zeros(n_seg, dtype=bool),
    )
    seed = initial_state if initial_state is not None \
        else default_seed_state(params, drive)
    state = seed
    omega_prev = protocol.omega_initial
    window = protocol.window_samples()
    for k, d_nom in enumerate(protocol.detunings):
        d_eff = d_nom - omega_prev if protocol.memory_detuning else d_nom
        result.detunings_effective[k] = d_eff
        params_k = params.replace(delta_m=d_eff)
        seg_state = state if (k == 0 or protocol.memory_state) else seed
        try:
            seg = integrate_segment(seg_state, params_k, protocol.t_total,
                                    protocol.dt, drive)
        except DivergenceError as exc:
            result.diverged_at = k
            result.error = (f"step {k} (detuning {d_nom:.6g} rad/us, "
                            f"effective {d_eff:.6g}): {exc}")
            break
        k0 = seg.a.size - window
        win = TrajectorySegment(a=seg.a[k0:], m=seg.m[k0:], t0=seg.t0,
                                dt=seg.dt, k0=k0)
        if on_window is not None:
            on_window(win)
        result.segments.append(TrajectorySegment(
            a=seg.a[-1:].copy(), m=seg.m[-1:].copy(), t0=seg.t0, dt=seg.dt,
            k0=seg.a.size - 1))
        state = result.segments[-1].final_state()
        try:
            omega, conf = phase_slope_offset(win.times - seg_state.t, win.a,
                                             protocol.fit_fraction)
        except FitError:  # no power in the window, nothing to fit
            result.low_confidence[k] = True
            continue
        result.omegas[k] = omega
        result.confidences[k] = conf
        result.low_confidence[k] = conf < LOW_CONFIDENCE
        omega_prev = omega
    return result
