"""Headline acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. The scans and sweeps are shared module fixtures; the full gate
takes a couple of minutes, dominated by the four 201-point grids, the
three sweeps, and the 400-draw root-solver cross-check.
"""

import time

import numpy as np
import pytest
from scipy import ndimage

from _cases import ACCEPTANCE_GRIDS, active_fixed_points, \
    broadline_params, narrowline_params, passive_fixed_points, \
    spectrogram, sweep_windows, verdict_of
from _digests import of_fixture, pinned
from _oracles import active_fixed_points_newton, passive_fixed_points_newton
from magpol.calib import ReflectionFit, fit_kittel, fit_s11, s11_model
from magpol.dynamics import (SweepProtocol, default_seed_state,
                             integrate_segment)
from magpol.model import TWO_PI, DriveSpec, ModeState, SystemParams
from magpol.phasemap import scan
from magpol.spectral import fft_peak_offset, phase_slope_offset
from magpol.stability import spectrum


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


UP_SWEEP = tuple(TWO_PI * d for d in np.linspace(-75.0, 20.0, 191))

# What each module fixture computes, by fixture name; its digest is
# pinned in digests.json (see _digests). A sweep fixture is its result
# and its steps' windows.
FIXTURES = {
    **{name: (lambda grid=grid: scan(grid))
       for name, grid in ACCEPTANCE_GRIDS.items()},
    "low_gain_sweep": lambda: sweep_windows(
        SweepProtocol(detunings=UP_SWEEP),
        narrowline_params(gain=TWO_PI * 15.45)),
    "sideband_sweep": lambda: sweep_windows(
        SweepProtocol(detunings=UP_SWEEP),
        narrowline_params(gain=TWO_PI * 16.94)),
}


def _timed(name):
    t0 = time.perf_counter()
    value = FIXTURES[name]()
    return value, time.perf_counter() - t0


@pytest.fixture(scope="module")
def zero_detuning_map():
    return _timed("zero_detuning_map")


@pytest.fixture(scope="module")
def detuned_map():
    return FIXTURES["detuned_map"]()


@pytest.fixture(scope="module")
def active_photon_map():
    return FIXTURES["active_photon_map"]()


@pytest.fixture(scope="module")
def gain_map():
    return FIXTURES["gain_map"]()


@pytest.fixture(scope="module")
def low_gain_sweep():
    return _timed("low_gain_sweep")


@pytest.fixture(scope="module")
def sideband_sweep():
    return FIXTURES["sideband_sweep"]()


def test_fixture_digests(zero_detuning_map, detuned_map, active_photon_map,
                         gain_map, low_gain_sweep, sideband_sweep):
    """Every count, mask bit, fitted frequency and window sample of the
    fixtures is as pinned in digests.json."""
    got = {"zero_detuning_map": zero_detuning_map[0],
           "detuned_map": detuned_map,
           "active_photon_map": active_photon_map, "gain_map": gain_map,
           "low_gain_sweep": low_gain_sweep[0],
           "sideband_sweep": sideband_sweep}
    assert {k: of_fixture(v) for k, v in got.items()} == pinned("fixtures")


def _labels(diagram):
    ny, nx = diagram.stable.shape
    out = np.empty((ny, nx), dtype=object)
    for iy in range(ny):
        for ix in range(nx):
            out[iy, ix] = diagram.phase_label(iy, ix)
    return out


def test_criterion_01_single_phase_at_zero_cavity_detuning(
        zero_detuning_map):
    diagram, seconds = zero_detuning_map
    summary = diagram.region_summary()
    non_blank = {k: v for k, v in summary.items()
                 if k not in ("blank", "error")}
    ok = set(non_blank) == {"1S+0U"} and seconds < 120.0
    _verdict(1, ok, f"zero-detuning passive map phases {summary} "
                    f"in {seconds:.1f}s (limit 120s)")


def test_criterion_02_detuned_map_grows_a_bistable_region(detuned_map):
    diagram = detuned_map
    mask = ((diagram.stable == 2) & (diagram.unstable == 1)
            & ~diagram.blank & ~diagram.errors)
    n_cells = int(mask.sum())
    if n_cells == 0:
        _verdict(2, False, "no 2S+1U cells at all")
        return
    comp, n_comp = ndimage.label(mask, structure=np.ones((3, 3), int))
    sizes = np.bincount(comp.ravel())[1:]
    main = int(np.argmax(sizes)) + 1
    dominant = sizes.max() / n_cells
    x = diagram.grid.x_values()
    onset = float(x[np.argwhere(comp == main)[:, 1].min()])
    ok = dominant >= 0.95 and 1e13 <= onset <= 1e15
    _verdict(2, ok, f"{n_cells} bistable cells, largest component "
                    f"{100 * dominant:.1f}%, onset n0 = {onset:.2e} "
                    f"(need within [1e13, 1e15])")


def test_criterion_03_active_map_structure_and_onset(active_photon_map,
                                                     detuned_map):
    diagram = active_photon_map
    summary = diagram.region_summary()
    have_phases = {"1S+0U", "2S+1U", "1S+2U"} <= set(summary)
    have_zero_stable = summary.get("blank", 0) > 0

    total = diagram.stable + diagram.unstable + diagram.marginal
    multi = (total >= 2) & ~diagram.blank & ~diagram.errors
    x = diagram.grid.x_values()
    cols = np.flatnonzero(multi.any(axis=0))
    active_onset = float(x[cols.min()]) if cols.size else np.inf

    pmask = ((detuned_map.stable == 2) & (detuned_map.unstable == 1)
             & ~detuned_map.blank & ~detuned_map.errors)
    pcols = np.flatnonzero(pmask.any(axis=0))
    passive_onset = float(x[pcols.min()]) if pcols.size else 0.0

    ok = (have_phases and have_zero_stable
          and active_onset * 10.0 <= passive_onset)
    _verdict(3, ok, f"phases {sorted(summary)}; multi-solution onset "
                    f"n0 = {active_onset:.2e} vs passive bistable onset "
                    f"{passive_onset:.2e} "
                    f"({passive_onset / active_onset:.1f}x, need >= 10x)")


def test_criterion_04_gain_map_phases_and_triple_point(gain_map):
    diagram = gain_map
    labels = _labels(diagram)
    summary = diagram.region_summary()
    want = {"2S+1U", "1S+2U", "2S+3U"}
    have_phases = want <= set(summary)

    # triple point: the three regions meet inside one 3x3 neighborhood
    ny, nx = labels.shape
    meet = None
    for iy in range(ny - 2):
        for ix in range(nx - 2):
            block = {labels[iy + dy, ix + dx]
                     for dy in range(3) for dx in range(3)}
            if want <= block:
                meet = (iy, ix)
                break
        if meet:
            break

    gx = diagram.grid.x_values()
    gy = diagram.grid.delta_m_values()
    ix = int(np.argmin(np.abs(gx - TWO_PI * 15.45)))
    iy = int(np.argmin(np.abs(gy + TWO_PI * 46.4)))
    near = {labels[iy + dy, ix + dx]
            for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
    spot_ok = "2S+1U" in near

    ok = have_phases and meet is not None and spot_ok
    where = ("none" if meet is None else
             f"(delta_m {gy[meet[0]] / TWO_PI:.1f}, "
             f"gain {gx[meet[1]] / TWO_PI:.2f}) MHz")
    _verdict(4, ok, f"phases {sorted(summary)}; triple point {where}; "
                    f"cell at (15.45, -46.4) MHz reads "
                    f"{labels[iy, ix]} (2S+1U required within one cell)")


def test_criterion_05_low_gain_sweep_shift_and_switch(low_gain_sweep):
    (result, _), seconds = low_gain_sweep
    omegas = result.omegas / TWO_PI
    i_max = int(np.nanargmax(omegas))
    max_shift = float(omegas[i_max])
    jumps = np.diff(omegas)
    k = int(np.nanargmin(jumps))
    jump = float(jumps[k])
    jump_at = float(result.protocol.detunings[k] / TWO_PI)
    ok = (abs(max_shift - 26.0) <= 5.0 and jump < -20.0 and jump_at < 0.0
          and seconds < 600.0)
    _verdict(5, ok, f"max shift {max_shift:.2f} MHz (need 26 +/- 5); "
                    f"sharpest step {jump:.2f} MHz at nominal detuning "
                    f"{jump_at:.1f} MHz (need abrupt drop at negative "
                    f"detuning); {seconds:.0f}s (limit 600s)")


def test_criterion_06_sidebands_near_the_switching_point(sideband_sweep):
    result, windows = sideband_sweep
    freqs, mags = spectrogram([win.a for win in windows],
                              result.protocol.dt, -80.0, 80.0)
    best = None
    for j in range(mags.shape[1]):
        col = mags[:, j]
        peaks = [i for i in range(1, col.size - 1)
                 if col[i] > col[i - 1] and col[i] > col[i + 1]
                 and col[i] > 0.1]
        if len(peaks) < 3:
            continue
        gaps = np.diff(freqs[peaks])
        good = [g for g in gaps if 10.0 <= g <= 16.0]
        if len(good) >= 2:
            best = (float(result.protocol.detunings[j] / TWO_PI),
                    [round(float(g), 2) for g in good])
            break
    ok = best is not None
    _verdict(6, ok, "no sideband comb found" if not ok else
             f"comb at nominal detuning {best[0]:.1f} MHz with spacings "
             f"{best[1]} MHz (need >= 2 sidebands at 13 +/- 3 MHz)")


def _phase_min_dev(a, m, a0, m0):
    """Distance to the fixed-point orbit, minimized over global phase."""
    n1 = abs(a) ** 2 + abs(m) ** 2
    n2 = abs(a0) ** 2 + abs(m0) ** 2
    ip = abs(np.conj(a0) * a + np.conj(m0) * m)
    return float(np.sqrt(max(n1 + n2 - 2.0 * ip, 0.0)))


def _draw_passive(rng):
    kappa = TWO_PI * 10 ** rng.uniform(-0.5, 1.2)
    gamma = TWO_PI * 10 ** rng.uniform(0.3, 1.5)
    g = TWO_PI * 10 ** rng.uniform(0.5, 1.6)
    dc = TWO_PI * rng.uniform(-100, 100)
    n0 = 10 ** rng.uniform(10, 15)
    shift = np.sign(rng.normal()) * TWO_PI * 10 ** rng.uniform(-2, 2.5)
    p = SystemParams(kappa=kappa, gamma=gamma, g=g, kerr=shift / n0,
                     delta_c=dc, delta_m=TWO_PI * rng.uniform(-100, 100))
    eta = float(np.sqrt(n0 * ((0.5 * kappa) ** 2 + dc ** 2)))
    return p, DriveSpec(eta=eta)


def _draw_active(rng):
    gamma_sat = TWO_PI * 10 ** rng.uniform(-13, -11)
    return SystemParams(
        gamma=TWO_PI * 10 ** rng.uniform(0.3, 1.3),
        g=TWO_PI * 10 ** rng.uniform(0.8, 1.6),
        gain=TWO_PI * 10 ** rng.uniform(0.5, 1.4),
        gamma_sat=gamma_sat,
        kerr=float(np.sign(rng.normal())) * gamma_sat
        * 10 ** rng.uniform(-1.5, 1.5),
        delta_m=TWO_PI * rng.uniform(-80, 80)), None


def test_criterion_07_classification_agrees_with_dynamics():
    rng = np.random.default_rng(81)
    checked = agree = 0
    kick = 1e-3
    while checked < 200:
        p, drive = (_draw_passive(rng) if checked % 2 == 0
                    else _draw_active(rng))
        try:
            fps = (passive_fixed_points(p, drive) if drive is not None
                   else active_fixed_points(p))
        except Exception:
            continue
        for fp in fps:
            if checked >= 200:
                break
            verdict = verdict_of(fp, p)
            report = spectrum(fp, p)
            # away from boundaries: clearly signed margin, clean spectrum
            if (report.neutral_suspect or verdict == "marginal"
                    or abs(report.margin) < 2.0):
                continue
            scale = np.sqrt(fp.n_a + fp.n_m)
            if scale <= 0:
                continue
            st = ModeState(
                a=fp.a0 + kick * scale
                * complex(rng.normal(), rng.normal()) / np.sqrt(2),
                m=fp.m0 + kick * scale
                * complex(rng.normal(), rng.normal()) / np.sqrt(2))
            if drive is None:
                dev = lambda a, m: _phase_min_dev(a, m, fp.a0, fp.m0)
            else:
                dev = lambda a, m: float(np.hypot(abs(a - fp.a0),
                                                  abs(m - fp.m0)))
            d0 = dev(st.a, st.m)
            try:
                seg = integrate_segment(
                    st, p, 2.0, 1e-3, None if drive is None else drive.eta)
            except Exception:
                continue
            d1 = dev(seg.a[-1], seg.m[-1])
            outcome_ok = (d1 < 3.0 * d0 if verdict == "stable"
                          else d1 > 10.0 * d0)
            checked += 1
            agree += int(outcome_ok)
    rate = 100.0 * agree / checked
    _verdict(7, rate >= 95.0,
             f"{agree}/{checked} perturbed integrations agree with the "
             f"classifier ({rate:.1f}%, need >= 95%)")


def _newton_with_escalation(solver, target_count, *args):
    ref = None
    for n_starts in (128, 512, 2048):
        ref = solver(*args, n_starts=n_starts)
        if len(ref) == target_count:
            break
    return ref


def test_criterion_08_root_solver_matches_multistart_newton():
    rng = np.random.default_rng(82)
    mismatches = 0
    worst = 0.0
    for k in range(400):
        if k < 200:
            p, drive = _draw_passive(rng)
            fps = sorted(passive_fixed_points(p, drive),
                         key=lambda f: f.n_m)
            ref = _newton_with_escalation(passive_fixed_points_newton,
                                          len(fps), p, drive)
            pairs = [(fp, r[0], r[1]) for fp, r in zip(fps, ref)]
        else:
            p, _ = _draw_active(rng)
            fps = sorted((f for f in active_fixed_points(p) if f.n_m > 0),
                         key=lambda f: f.omega)
            ref = _newton_with_escalation(active_fixed_points_newton,
                                          len(fps), p)
            pairs = [(fp, r[0], r[1]) for fp, r in zip(fps, ref)]
        if len(ref) != len(fps):
            mismatches += 1
            continue
        for fp, a_r, m_r in pairs:
            sc = max(abs(a_r), abs(m_r))
            worst = max(worst, abs(abs(fp.a0) - abs(a_r)) / sc,
                        abs(abs(fp.m0) - abs(m_r)) / sc)
    ok = mismatches == 0 and worst < 1e-6
    _verdict(8, ok, f"400 draws: {mismatches} count mismatches, worst "
                    f"amplitude deviation {worst:.1e} (need 0 and < 1e-6)")


def test_criterion_09_spectral_routes_and_step_halving(low_gain_sweep,
                                                       sideband_sweep):
    off_grid = 0
    n_checked = 0
    worst_bins = 0.0
    for result, windows in (low_gain_sweep[0], sideband_sweep):
        for k, win in enumerate(windows):
            if result.low_confidence[k]:
                continue
            w_fft, bin_w = fft_peak_offset(win.a, win.dt)
            frac = abs(w_fft - result.omegas[k]) / bin_w
            worst_bins = max(worst_bins, frac)
            n_checked += 1
            off_grid += int(frac >= 1.0)

    # step-halving self-check, both on a non-rotating attractor and on
    # the fitted frequency of a rotating coupled segment
    p = narrowline_params(g=0.0)
    st = default_seed_state(p)
    coarse = integrate_segment(st, p, 8.0, 1e-3)
    fine = integrate_segment(st, p, 8.0, 5e-4)
    state_dev = abs(coarse.a[-1] - fine.a[-1]) / abs(fine.a[-1])

    p = narrowline_params(delta_m=-TWO_PI * 60.0)
    st = default_seed_state(p)

    def late_fit(dt):  # phase fit on the samples from t = 3 us on
        seg = integrate_segment(st, p, 8.0, dt)
        keep = seg.times >= 3.0
        return phase_slope_offset(seg.times[keep], seg.a[keep])[0]

    w_c, w_f = late_fit(1e-3), late_fit(5e-4)
    omega_dev = abs(w_c - w_f) / abs(w_f)

    ok = off_grid == 0 and state_dev < 1e-5 and omega_dev < 1e-5
    _verdict(9, ok, f"{n_checked} high-confidence segments, FFT vs phase "
                    f"slope worst {worst_bins:.2f} bins (need < 1); "
                    f"halved-dt deviations {state_dev:.1e} (state) / "
                    f"{omega_dev:.1e} (frequency), need < 1e-5")


def test_criterion_10_calibration_round_trips():
    fields = np.linspace(105e-3, 125e-3, 11)
    kit = fit_kittel(np.column_stack(
        [fields, TWO_PI * 28.2e9 * (fields - 3.35e-3)]))
    kittel_ok = (abs(kit.gamma_e_hz_per_t - 28.2e9) / 28.2e9 < 1e-9
                 and abs(kit.anisotropy_t + 3.35e-3) / 3.35e-3 < 1e-9)

    truth = ReflectionFit(omega_m=TWO_PI * 3.05e9, kappa_a=TWO_PI * 4.0e6,
                          gamma=TWO_PI * 10.3e6, goodness=0.0)
    rng = np.random.default_rng(101)
    span = 8.0 * truth.kappa_load
    w = np.linspace(truth.omega_m - span, truth.omega_m + span, 281)
    mags = np.abs(s11_model(w, truth)) + 1e-3 * rng.normal(size=w.size)
    fit = fit_s11(np.column_stack([w, mags]))
    errs = (abs(fit.omega_m - truth.omega_m) / truth.omega_m,
            abs(fit.kappa_a - truth.kappa_a) / truth.kappa_a,
            abs(fit.gamma - truth.gamma) / truth.gamma)
    s11_ok = max(errs) < 1e-2
    _verdict(10, kittel_ok and s11_ok,
             f"noiseless field-line slope/intercept recovered to "
             f"{abs(kit.gamma_e_hz_per_t - 28.2e9) / 28.2e9:.1e} rel; "
             f"reflection fit at 0.1% noise off by "
             f"{100 * max(errs):.2f}% worst (need < 1%)")


def test_qualitative_broadband_support():
    """Past the comb regime the emission goes broadband: at high gain
    some sweep column has support wider than 50 MHz at -30 dB."""
    p = narrowline_params(gain=TWO_PI * 20.0)
    det = tuple(TWO_PI * d for d in np.linspace(-80.0, 40.0, 121))
    result, windows = sweep_windows(SweepProtocol(detunings=det), p)
    freqs, mags = spectrogram([win.a for win in windows],
                              result.protocol.dt, -150.0, 150.0)
    thresh = 10 ** (-30.0 / 20.0)
    widths = np.zeros(mags.shape[1])
    for j in range(widths.size):
        above = np.flatnonzero(mags[:, j] >= thresh)
        if above.size:
            widths[j] = freqs[above[-1]] - freqs[above[0]]
    j = int(np.argmax(widths))
    ok = widths[j] > 50.0
    print(f"[broadband check] {'PASS' if ok else 'FAIL'} - widest column "
          f"{widths[j]:.1f} MHz at nominal detuning "
          f"{result.protocol.detunings[j] / TWO_PI:.1f} MHz (need > 50)")
    assert ok
