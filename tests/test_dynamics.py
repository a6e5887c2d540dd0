"""Integrator correctness and the memory-sweep protocol."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _cases import active_fixed_points, broadline_params, \
    narrowline_params, sweep_windows
from _oracles import integrate_reference
from magpol.dynamics import (DIVERGENCE_CAP, LOW_CONFIDENCE, SweepProtocol,
                             TrajectorySegment, default_seed_state,
                             integrate_segment, run_sweep)
from magpol.errors import ConditioningError, DivergenceError
from magpol.model import (TWO_PI, DriveSpec, ModeState, SystemParams,
                          bare_cavity_photons, batch_rates,
                          saturated_photons, vector_field)
from magpol.spectral import phase_slope_offset


def test_linear_decay_matches_analytic_solution():
    # Accumulated phase error of the order-4 stepper grows like
    # |lam|^5 dt^4 t / 120, so the 1e-6 budget over 1 us at the default
    # step caps |lam| near 36 rad/us.  These rates sit well inside that.
    p = broadline_params(gamma=TWO_PI * 4.0, g=0.0, kerr=0.0,
                         delta_c=TWO_PI * 5.0, delta_m=TWO_PI * (-4.0))
    a0, m0 = 2.0 - 1.0j, -0.5 + 0.25j
    seg = integrate_segment(ModeState(a=a0, m=m0), p, duration=1.0, dt=1e-3,
                            eta=0.0)
    ra = seg.a / (a0 * np.exp(-(0.5 * p.kappa + 1j * p.delta_c) * seg.times))
    rm = seg.m / (m0 * np.exp(-(0.5 * p.gamma + 1j * p.delta_m) * seg.times))
    assert np.max(np.abs(ra - 1.0)) < 1e-6
    assert np.max(np.abs(rm - 1.0)) < 1e-6


def test_matches_reference_integrator():
    rng = np.random.default_rng(51)
    for _ in range(6):
        if rng.random() < 0.5:
            p = narrowline_params(delta_m=TWO_PI * rng.uniform(-60, 0))
            eta = None
        else:
            p = broadline_params(delta_c=TWO_PI * rng.uniform(-40, 40),
                                 delta_m=TWO_PI * rng.uniform(-60, 60))
            eta = 10.0 ** rng.uniform(4, 6)
        amp = 10.0 ** rng.uniform(2, 5)
        st = ModeState(a=amp * complex(rng.normal(), rng.normal()),
                       m=amp * complex(rng.normal(), rng.normal()))
        seg = integrate_segment(st, p, duration=0.05, dt=1e-3, eta=eta)
        a_ref, m_ref = integrate_reference(
            p, st.a, st.m, 0.05, 1e-3, None if eta is None else DriveSpec(eta))
        scale = max(abs(a_ref), abs(m_ref))
        assert abs(seg.a[-1] - a_ref) < 1e-10 * scale
        assert abs(seg.m[-1] - m_ref) < 1e-10 * scale


def test_oscillator_reaches_saturated_amplitude():
    # G/gamma_sat = 1e12 means the steady magnitude is exactly 1e6
    p = SystemParams(gamma=TWO_PI * 10.0, g=0.0, gain=TWO_PI * 2.0,
                     gamma_sat=TWO_PI * 2.0e-12)
    seg = integrate_segment(default_seed_state(p), p, duration=8.0, dt=1e-3)
    assert abs(seg.a[-1]) == pytest.approx(1e6, rel=1e-6)

    p = narrowline_params(g=0.0)
    seg = integrate_segment(default_seed_state(p), p, duration=8.0, dt=1e-3)
    assert abs(seg.a[-1]) == pytest.approx(
        math.sqrt(p.gain_eff / p.gamma_sat), rel=1e-4)


def test_halving_dt_barely_moves_the_answer():
    """Order-4 self-check at the default step.

    On the non-rotating relaxation oscillator the final state itself is
    step-insensitive.  On a rotating coupled orbit the raw state keeps an
    accumulated-phase mismatch, so there the step-robust quantity is the
    fitted emission frequency.
    """
    p = narrowline_params(g=0.0)
    st = default_seed_state(p)
    coarse = integrate_segment(st, p, duration=8.0, dt=1e-3)
    fine = integrate_segment(st, p, duration=8.0, dt=5e-4)
    assert abs(coarse.a[-1] - fine.a[-1]) < 1e-5 * abs(fine.a[-1])

    p = narrowline_params(delta_m=TWO_PI * (-60.0))
    st = default_seed_state(p)
    coarse = integrate_segment(st, p, duration=8.0, dt=1e-3)
    fine = integrate_segment(st, p, duration=8.0, dt=5e-4)
    # both fits read the samples from t = 3 us on
    kc, kf = coarse.times >= 3.0, fine.times >= 3.0
    w_coarse, conf = phase_slope_offset(coarse.times[kc], coarse.a[kc])
    w_fine, _ = phase_slope_offset(fine.times[kf], fine.a[kf])
    assert conf > 0.99
    assert abs(w_coarse - w_fine) < 1e-5 * abs(w_fine)


def test_undriven_total_occupation_decays():
    """With no drive and no gain the occupation envelope only decays.

    Sampled at full exchange periods so the coherent photon-magnon
    oscillation does not alias into apparent growth.
    """
    p = broadline_params(kerr=0.0, delta_c=0.0, delta_m=0.0, g=TWO_PI * 10.0)
    st = ModeState(a=1e3 + 0j, m=0j)
    period = math.pi / p.g
    dt = period / 50.0
    seg = integrate_segment(st, p, duration=20.0 * period, dt=dt,
                            eta=0.0)
    n_tot = np.abs(seg.a) ** 2 + np.abs(seg.m) ** 2
    at_periods = n_tot[::50]
    assert at_periods.size == 21
    assert np.all(np.diff(at_periods) < 0)


def test_segment_layout_and_final_state():
    p = narrowline_params()
    st = ModeState(a=1.0 + 0j, m=0j, t=2.5)
    seg = integrate_segment(st, p, duration=0.1, dt=1e-3)
    assert seg.times.size == seg.a.size == seg.m.size == 101
    assert seg.times[0] == 2.5
    assert np.allclose(np.diff(seg.times), 1e-3, rtol=1e-12)
    fin = seg.final_state()
    assert fin.t == pytest.approx(2.6)
    assert fin.a == seg.a[-1] and fin.m == seg.m[-1]


def test_integration_input_validation():
    p = narrowline_params()
    st = default_seed_state(p)
    with pytest.raises(ValueError):
        integrate_segment(st, p, duration=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate_segment(st, p, duration=1e-6, dt=1e-3)
    with pytest.raises(ValueError):
        integrate_segment(ModeState(a=complex(np.nan, 0), m=0j), p,
                          duration=1.0, dt=1e-3)
    with pytest.raises(ValueError):
        integrate_segment(st, p.replace(delta_c=1.0), 1.0, 1e-3)


def test_initial_state_must_be_finite_and_sizeable():
    """A non-finite state is rejected; a finite one whose occupation
    overflows a float cannot set the amplitude scale."""
    p = narrowline_params()
    for st in (ModeState(a=0j, m=complex(0.0, np.inf)),
               ModeState(a=1.0 + 0j, m=0j, t=np.nan)):
        with pytest.raises(ValueError, match="initial state is not finite"):
            integrate_segment(st, p, duration=1.0, dt=1e-3)
    for st in (ModeState(a=1e200 + 0j, m=0j), ModeState(a=0j, m=-1e160j)):
        with pytest.raises(ConditioningError, match="overflows"):
            integrate_segment(st, p, duration=1.0, dt=1e-3)


def test_runaway_gain_raises_divergence_error():
    p = SystemParams(gamma=TWO_PI * 10.0, g=0.0, gain=TWO_PI * 100.0,
                     gamma_sat=0.0)
    with pytest.raises(DivergenceError) as err:
        integrate_segment(ModeState(a=1.0 + 0j, m=0j), p, duration=1.0,
                          dt=1e-3)
    assert err.value.step > 0
    assert "step" in str(err.value)


def _complex_rk4(state, params, duration, dt, eta=None):
    """``integrate_segment`` as it was written on complex amplitudes:
    the complex rhs and stage order, at the same scale s."""
    natural = saturated_photons(params) if eta is None \
        else bare_cavity_photons(params, eta)[0]
    s = math.sqrt(max(natural, state.n_a, state.n_m, 1.0))
    r = batch_rates(params).rescale(s)
    hk, hg, g, kerr = 0.5 * r.kappa, 0.5 * r.gamma, r.g, r.kerr
    dc, dmg, g_eff, gsat = r.delta_c, r.delta_m, r.gain_eff, r.gamma_sat
    eta = None if eta is None else eta / s

    def rhs(a, m):
        if eta is None:
            na = a.real * a.real + a.imag * a.imag
            da = (g_eff - gsat * na) * a - 1j * g * m
        else:
            da = -(hk + 1j * dc) * a - 1j * g * m + eta
        nm = m.real * m.real + m.imag * m.imag
        dm = -(hg + 1j * (dmg + kerr * nm)) * m - 1j * g * a
        return da, dm

    n = int(round(duration / dt))
    a_out = np.empty(n + 1, dtype=complex)
    m_out = np.empty(n + 1, dtype=complex)
    a, m = state.a / s, state.m / s
    a_out[0], m_out[0] = a, m
    h, h2, h6 = dt, 0.5 * dt, dt / 6.0
    for k in range(1, n + 1):
        k1a, k1m = rhs(a, m)
        k2a, k2m = rhs(a + h2 * k1a, m + h2 * k1m)
        k3a, k3m = rhs(a + h2 * k2a, m + h2 * k2m)
        k4a, k4m = rhs(a + h * k3a, m + h * k3m)
        a = a + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
        m = m + h6 * (k1m + 2.0 * (k2m + k3m) + k4m)
        na = a.real * a.real + a.imag * a.imag
        nm = m.real * m.real + m.imag * m.imag
        if not (na < DIVERGENCE_CAP and nm < DIVERGENCE_CAP):
            raise DivergenceError(
                f"amplitude overflow at step {k} (t = "
                f"{state.t + k * dt:.6g} us): scaled photon number "
                f"{na:.3e}, magnon number {nm:.3e}", step=k)
        a_out[k], m_out[k] = a, m
    return a_out * s, m_out * s


def test_integrate_segment_matches_complex_rk4_bits():
    """The real-component RK4 loop rounds exactly like the complex one
    it replaced, signed zeros included, and diverges at the same step
    with the same message."""
    active = narrowline_params(gain=TWO_PI * 16.94,  # sweep_sidebands
                               delta_m=TWO_PI * (-30.0))
    passive = broadline_params(delta_c=TWO_PI * 7.5,
                               delta_m=TWO_PI * (-12.0))
    cases = [
        (default_seed_state(active), active, 8.0, None),
        (ModeState(a=3e4 - 2e4j, m=-1e4 + 5e3j, t=1.25), passive, 2.0,
         2.0e6),
        # the zero state; the first sample keeps the signs of its zeros
        (ModeState(a=complex(-0.0, -0.0), m=complex(-0.0, -0.0)), passive,
         1.0, 0.0),
    ]
    for state, p, duration, eta in cases:
        seg = integrate_segment(state, p, duration, 1e-3, eta)
        for got, ref in zip((seg.a, seg.m),
                            _complex_rk4(state, p, duration, 1e-3, eta)):
            assert np.array_equal(got, ref)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)),
                                      np.signbit(part(ref)))

    runaway = SystemParams(gamma=TWO_PI * 10.0, g=0.0, gain=TWO_PI * 100.0,
                           gamma_sat=0.0)
    state = ModeState(a=1.0 + 0j, m=0j)
    with pytest.raises(DivergenceError) as err:
        integrate_segment(state, runaway, 1.0, 1e-3)
    with pytest.raises(DivergenceError) as ref:
        _complex_rk4(state, runaway, 1.0, 1e-3)
    assert err.value.step == ref.value.step > 0
    assert str(err.value) == str(ref.value)


def _vector_field_rk4(state, params, duration, dt, eta=None):
    """RK4 stated on ``model.vector_field``, one call per stage, at the
    scale, overflow guard and sample layout of ``integrate_segment``."""
    natural = saturated_photons(params) if eta is None \
        else bare_cavity_photons(params, eta)[0]
    s = math.sqrt(max(natural, state.n_a, state.n_m, 1.0))
    rhs = vector_field(batch_rates(params).rescale(s),
                       None if eta is None else eta / s)
    n = int(round(duration / dt))
    out = np.empty((n + 1, 4))
    a, m = state.a / s, state.m / s
    x = (a.real, a.imag, m.real, m.imag)
    out[0] = x
    h, h2, h6 = dt, 0.5 * dt, dt / 6.0
    for k in range(1, n + 1):
        k1 = rhs(*x)
        k2 = rhs(*[xi + h2 * ki for xi, ki in zip(x, k1)])
        k3 = rhs(*[xi + h2 * ki for xi, ki in zip(x, k2)])
        k4 = rhs(*[xi + h * ki for xi, ki in zip(x, k3)])
        x = tuple(xi + h6 * (c1 + 2.0 * (c2 + c3) + c4)
                  for xi, c1, c2, c3, c4 in zip(x, k1, k2, k3, k4))
        na = x[0] * x[0] + x[1] * x[1]
        nm = x[2] * x[2] + x[3] * x[3]
        if not (na < DIVERGENCE_CAP and nm < DIVERGENCE_CAP):
            raise DivergenceError(
                f"amplitude overflow at step {k} (t = "
                f"{state.t + k * dt:.6g} us): scaled photon number "
                f"{na:.3e}, magnon number {nm:.3e}", step=k)
        out[k] = x
    am = out.view(complex) * s
    return am[:, 0], am[:, 1]


def _signed_zero(rng) -> complex:
    return complex(*rng.choice([-0.0, 0.0], size=2))


def test_fused_loop_matches_vector_field_bits():
    """The step loop's inline equations round exactly like
    ``vector_field``: every sample, signed zeros included, on seeded
    draws of both models (kerr of either sign, passive delta_c != 0,
    an eta = 0 drive on signed-zero states), on every signed-zero
    passive state at eta = 0 with each sign of delta_c and delta_m, and
    a runaway diverges at the same step with the same message."""
    rng = np.random.default_rng(1807)

    def kerr(n_ref):
        """Either sign, shifting the magnon by 1-60 MHz at n_ref."""
        return rng.choice([-1.0, 1.0]) * TWO_PI * rng.uniform(1, 60) / n_ref

    def draw_state(n_ref):
        a, m = math.sqrt(n_ref) * 10.0 ** rng.uniform(-3, 0, size=2) \
            * np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        return ModeState(a=complex(a), m=complex(m), t=rng.uniform(0, 5))

    cases = []
    for i in range(24):
        p = narrowline_params(gain=TWO_PI * rng.uniform(1.0, 30.0),
                              gamma_sat=TWO_PI * 10.0 ** rng.uniform(-13, -11),
                              delta_m=TWO_PI * rng.uniform(-60, 60))
        p = p.replace(kerr=kerr(saturated_photons(p)))
        st = draw_state(saturated_photons(p))
        if i % 6 == 0:
            st = ModeState(a=_signed_zero(rng), m=_signed_zero(rng))
        cases.append((st, p, None))
    for i in range(24):
        p = broadline_params(delta_c=TWO_PI * rng.uniform(-40, 40),
                             delta_m=TWO_PI * rng.uniform(-60, 60))
        eta = 10.0 ** rng.uniform(4, 6)
        n0 = bare_cavity_photons(p, eta)[0]
        p = p.replace(kerr=kerr(n0))
        st = draw_state(n0)
        if i % 4 == 0:
            st = ModeState(a=_signed_zero(rng), m=_signed_zero(rng))
            eta = 0.0
        cases.append((st, p, eta))
    for ar, ai, mr, mi, dc, dm in itertools.product([-1.0, 1.0], repeat=6):
        st = ModeState(a=complex(math.copysign(0.0, ar),
                                 math.copysign(0.0, ai)),
                       m=complex(math.copysign(0.0, mr),
                                 math.copysign(0.0, mi)))
        p = broadline_params(delta_c=dc * TWO_PI * 10.0,
                             delta_m=dm * TWO_PI * 20.0)
        cases.append((st, p, 0.0))
    assert all(p.delta_c != 0.0 for _, p, eta in cases if eta is not None)
    assert {np.sign(p.kerr) for _, p, _ in cases} == {-1.0, 1.0}

    for st, p, eta in cases:
        dt = float(rng.choice([5e-4, 1e-3, 2e-3]))
        seg = integrate_segment(st, p, 300 * dt, dt, eta)
        for got, ref in zip((seg.a, seg.m),
                            _vector_field_rk4(st, p, 300 * dt, dt, eta)):
            assert np.array_equal(got, ref)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)),
                                      np.signbit(part(ref)))

    runaway = narrowline_params(gain=TWO_PI * 100.0, gamma_sat=0.0)
    state = ModeState(a=1.0 - 2.0j, m=0.5j, t=0.75)
    with pytest.raises(DivergenceError) as err:
        integrate_segment(state, runaway, 1.0, 1e-3)
    with pytest.raises(DivergenceError) as ref:
        _vector_field_rk4(state, runaway, 1.0, 1e-3)
    assert err.value.step == ref.value.step > 0
    assert str(err.value) == str(ref.value)


def test_numpy_scalar_dt_steps_as_a_float():
    """A numpy-scalar dt (one drawn by numpy, say) gives the samples and
    times of the float, and a runaway stops at the same step with no
    numpy overflow warning."""
    p = narrowline_params(gain=TWO_PI * 16.94, delta_m=TWO_PI * (-30.0))
    st = default_seed_state(p)
    ref = integrate_segment(st, p, 0.5, 1e-3)
    seg = integrate_segment(st, p, 0.5, np.float64(1e-3))
    for got, want in ((seg.a, ref.a), (seg.m, ref.m),
                      (seg.times, ref.times)):
        assert np.array_equal(got, want)

    # a Kerr shift this large overflows a step's stages before its guard
    runaway = narrowline_params(kerr=TWO_PI * 1e3)
    state = ModeState(a=1.0 - 2.0j, m=0.5j)
    stops = []
    for dt in (1e-3, np.float64(1e-3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                integrate_segment(state, runaway, 1.0, dt)
        stops.append((err.value.step, str(err.value)))
    assert stops[0] == stops[1] and stops[0][0] > 1


def test_default_seed_is_small_and_reproducible():
    p = narrowline_params()
    st = default_seed_state(p)
    assert st.m == 0
    assert st.a.real == pytest.approx(
        1e-3 * math.sqrt(p.gain_eff / p.gamma_sat))
    assert default_seed_state(p) == st


def test_protocol_validation():
    with pytest.raises(ValueError):
        SweepProtocol(detunings=())
    with pytest.raises(ValueError):
        SweepProtocol(detunings=(1.0,), t_drop=9.0, t_total=8.0)
    with pytest.raises(ValueError):
        SweepProtocol(detunings=(1.0,), dt=-1e-3)
    with pytest.raises(ValueError):
        SweepProtocol(detunings=(np.inf,))
    with pytest.raises(ValueError, match="omega_initial must be finite"):
        SweepProtocol(detunings=(1.0,), omega_initial=np.nan)
    with pytest.raises(ValueError):
        SweepProtocol(detunings=(1.0,), fit_fraction=0.0)
    with pytest.raises(ValueError):
        # only 10 samples survive the transient cut
        SweepProtocol(detunings=(1.0,), dt=0.1, t_total=8.0, t_drop=7.0)


def test_every_step_keeps_one_window_and_fits_it():
    """Steps start at rounded times, so cutting each at its own start +
    t_drop kept 700 samples on some steps of this sweep and 701 on
    others. Every step now hands the protocol's window to the consumer
    and fits it, and keeps a copy of its last sample only."""
    det = tuple(TWO_PI * d for d in np.linspace(-60.0, -50.0, 4))
    proto = SweepProtocol(detunings=det, t_total=1.0, t_drop=0.3, dt=1e-3)
    res, windows = sweep_windows(proto, narrowline_params())
    assert proto.window_samples() == 701
    starts = [0.0] + [win.times[-1] for win in windows[:-1]]
    assert len(windows) == len(res.segments) == 4
    for k, (win, seg, start) in enumerate(zip(windows, res.segments,
                                              starts)):
        for arr in (win.times, win.a, win.m):
            assert arr.size == proto.window_samples()
        for arr in (seg.a, seg.m):
            assert arr.size == 1 and arr.flags.owndata
        assert win.times[0] == pytest.approx(start + proto.t_drop,
                                             abs=0.5 * proto.dt)
        omega, conf = phase_slope_offset(win.times - start, win.a)
        assert res.omegas[k] == omega and res.confidences[k] == conf


def test_segments_derive_their_times_and_hold_only_amplitudes():
    """A segment stores its time grid, not its times: ``times`` gives
    the integrator's ``t0 + dt * k`` bit for bit, for a segment that
    starts at t != 0 and for the windows of a sweep whose steps start
    at rounded times. A sweep window holds no array besides its
    amplitudes, and a kept step segment holds one sample of each."""
    st = ModeState(a=1.0 + 0j, m=0j, t=0.7)
    seg = integrate_segment(st, narrowline_params(), duration=0.1, dt=1e-3)
    assert np.array_equal(seg.times, st.t + 1e-3 * np.arange(101))

    det = tuple(TWO_PI * d for d in np.linspace(-60.0, -50.0, 4))
    proto = SweepProtocol(detunings=det, t_total=1.0, t_drop=0.3, dt=1e-3)
    res, windows = sweep_windows(proto, narrowline_params())
    window = proto.window_samples()
    start = 0.0
    assert len(windows) == len(res.segments) == 4
    for win, seg in zip(windows, res.segments):
        full = start + proto.dt * np.arange(1001)
        assert np.array_equal(win.times, full[-window:])
        assert np.array_equal(seg.times, full[-1:])
        for held, nbytes in ((win, win.a.nbytes + win.m.nbytes),
                             (seg, 2 * 16)):
            arrays = {id(v): v.nbytes for v in vars(held).values()
                      if isinstance(v, np.ndarray)}
            assert sum(arrays.values()) == nbytes
        start = seg.final_state().t
        assert start == full[-1]


def test_window_consumer_sees_every_window_and_the_sweep_holds_none():
    """Each completed step's window goes to the consumer, in order,
    bit-equal to the trailing window of an independent rerun of the
    step: ``integrate_segment`` from the previous step's kept final
    state at the step's effective detuning. The fits are those of the
    reruns, and the result keeps one one-sample segment per step that
    ends at the window's final state."""
    det = tuple(TWO_PI * d for d in np.linspace(-60.0, -50.0, 4))
    proto = SweepProtocol(detunings=det, t_total=1.0, t_drop=0.3, dt=1e-3)
    p = narrowline_params()
    res, windows = sweep_windows(proto, p)
    window = proto.window_samples()
    assert len(windows) == len(res.segments) == 4
    state = default_seed_state(p)
    for k, (win, tail) in enumerate(zip(windows, res.segments)):
        rerun = integrate_segment(
            state, p.replace(delta_m=res.detunings_effective[k]),
            proto.t_total, proto.dt)
        k0 = rerun.a.size - window
        for name in ("a", "m", "times"):
            assert np.array_equal(getattr(win, name),
                                  getattr(rerun, name)[k0:])
        assert win.k0 == k0 and win.t0 == rerun.t0 and win.dt == rerun.dt
        omega, conf = phase_slope_offset(rerun.times[k0:] - state.t,
                                         rerun.a[k0:], proto.fit_fraction)
        assert res.omegas[k] == omega and res.confidences[k] == conf
        assert tail.a.size == tail.m.size == 1
        assert tail.k0 == win.k0 + win.a.size - 1
        assert tail.final_state() == win.final_state()
        state = tail.final_state()


def test_sweep_peak_memory_grows_less_than_a_window_per_step():
    """A library sweep holds no step's window either: each added step
    raises the peak traced memory of ``run_sweep`` without a consumer
    by less than one photon window."""
    p = narrowline_params()

    def peak(steps: int) -> int:
        det = tuple(TWO_PI * d for d in np.linspace(-60.0, -50.0, steps))
        proto = SweepProtocol(detunings=det, t_total=1.0, t_drop=0.5)
        tracemalloc.start()
        try:
            assert len(run_sweep(proto, p).segments) == steps
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    window_bytes = 16 * SweepProtocol(detunings=(0.0,), t_total=1.0,
                                      t_drop=0.5).window_samples()
    peak(8)  # warm-up: lazy imports and caches
    growth = (peak(24) - peak(8)) / 16
    assert growth < window_bytes, (
        f"peak grew {growth:.0f} bytes per step; a window is {window_bytes}")


def test_window_consumer_is_not_called_for_a_diverged_step():
    p = SystemParams(gamma=TWO_PI * 10.0, g=0.0, gain=TWO_PI * 100.0,
                     gamma_sat=0.0)
    proto = SweepProtocol(detunings=(0.0, TWO_PI), t_total=2.0, t_drop=0.5)
    windows = []
    res = run_sweep(proto, p, initial_state=ModeState(a=1.0 + 0j, m=0j),
                    on_window=windows.append)
    assert res.diverged_at == 0
    assert windows == [] and res.segments == []


def test_single_step_uncoupled_oscillator_has_zero_offset():
    p = narrowline_params(g=0.0)
    proto = SweepProtocol(detunings=(0.0,), t_total=2.0, t_drop=0.5)
    res = run_sweep(proto, p)
    assert res.omegas.shape == (1,)
    assert abs(res.omegas[0]) < 1e-9
    assert res.confidences[0] > 0.99
    assert not res.low_confidence[0]


def test_memoryless_sweep_is_permutation_invariant():
    p = narrowline_params()
    base = tuple(TWO_PI * d for d in (-60.0, -45.0, -30.0, -15.0, 0.0))
    rng = np.random.default_rng(52)
    perm = rng.permutation(len(base))
    shuffled = tuple(base[i] for i in perm)
    kw = dict(t_total=2.0, t_drop=0.5, memory_detuning=False,
              memory_state=False)
    res_a = run_sweep(SweepProtocol(detunings=base, **kw), p)
    res_b = run_sweep(SweepProtocol(detunings=shuffled, **kw), p)
    unshuffled = np.empty_like(res_b.omegas)
    unshuffled[perm] = res_b.omegas
    assert np.array_equal(res_a.omegas, unshuffled)


def test_memory_detuning_law():
    p = narrowline_params()
    det = tuple(TWO_PI * d for d in np.linspace(-60.0, -40.0, 6))
    proto = SweepProtocol(detunings=det, t_total=2.0, t_drop=0.5,
                          omega_initial=TWO_PI * 3.0)
    res = run_sweep(proto, p)
    assert res.detunings_effective[0] == det[0] - TWO_PI * 3.0
    for k in range(1, len(det)):
        assert res.detunings_effective[k] == pytest.approx(
            det[k] - res.omegas[k - 1], abs=0.0)


def test_sweep_memory_produces_hysteresis():
    p = narrowline_params()
    det = tuple(TWO_PI * d for d in np.linspace(-60.0, -20.0, 41))
    up = run_sweep(SweepProtocol(detunings=det, t_total=4.0, t_drop=1.5), p)
    down = run_sweep(SweepProtocol(detunings=det[::-1], t_total=4.0,
                                   t_drop=1.5), p)
    diff = np.abs(up.omegas - down.omegas[::-1]) / TWO_PI
    assert np.max(diff) > 10.0
    assert int((diff > 1.0).sum()) >= 20
    # each direction is deterministic
    again = run_sweep(SweepProtocol(detunings=det, t_total=4.0, t_drop=1.5), p)
    assert np.array_equal(up.omegas, again.omegas)


def test_adiabatic_sweep_lands_on_steady_branch():
    """Without Kerr, in the monostable regime, the developed offset is
    the fixed-point emission offset."""
    p = SystemParams(gamma=TWO_PI * 10.0, g=TWO_PI * 2.0, kerr=0.0,
                     gain=TWO_PI * 8.0, gamma_sat=TWO_PI * 0.8e-12,
                     delta_m=TWO_PI * (-5.0))
    fps = active_fixed_points(p)
    assert len(fps) == 1
    res = run_sweep(SweepProtocol(detunings=(p.delta_m,),
                                  memory_detuning=False), p)
    assert res.omegas[0] == pytest.approx(fps[0].omega, rel=1e-3)
    assert res.confidences[0] > 0.99


def test_sweep_records_divergence_instead_of_raising():
    p = SystemParams(gamma=TWO_PI * 10.0, g=0.0, gain=TWO_PI * 100.0,
                     gamma_sat=0.0)
    proto = SweepProtocol(detunings=(0.0, TWO_PI), t_total=2.0, t_drop=0.5)
    res = run_sweep(proto, p, initial_state=ModeState(a=1.0 + 0j, m=0j))
    assert res.diverged_at == 0
    assert "step 0" in res.error
    assert np.all(np.isnan(res.omegas))
    assert res.segments == []
    assert not res.low_confidence.any()


def test_low_confidence_flag_on_multitone_steps():
    """Near the switching point the emission is not single-tone and
    the fit must say so."""
    p = narrowline_params(gain=TWO_PI * 16.94)
    det = tuple(TWO_PI * d for d in np.linspace(-40.0, -20.0, 41))
    res = run_sweep(SweepProtocol(detunings=det), p)
    assert res.low_confidence.any()
    assert np.all(res.confidences[res.low_confidence] < LOW_CONFIDENCE)
