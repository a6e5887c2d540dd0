"""Reflection-dip and Kittel-line fits on synthetic lab data."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from magpol.calib import (ReflectionFit, detuning_from_field, fit_kittel,
                          fit_s11, load_field_points_csv, load_spectrum_csv,
                          s11_model)
from magpol.errors import ConfigError, FitError

TWO_PI = 2.0 * math.pi


def _truth(omega_m=TWO_PI * 3.05e9, kappa_a=TWO_PI * 4.0e6,
           gamma=TWO_PI * 10.3e6):
    return ReflectionFit(omega_m=omega_m, kappa_a=kappa_a, gamma=gamma,
                         goodness=0.0)


def _spectrum(fit, n=281, halfspan_linewidths=8.0, noise=0.0, rng=None):
    span = halfspan_linewidths * fit.kappa_load
    w = np.linspace(fit.omega_m - span, fit.omega_m + span, n)
    y = np.abs(s11_model(w, fit))
    if noise:
        y = y + noise * rng.normal(size=n)
    return np.column_stack([w, y])


def test_s11_model_limits():
    fit = _truth()
    # far off resonance the port reflects everything
    assert abs(s11_model(fit.omega_m + 1e4 * fit.kappa_load, fit)) == \
        pytest.approx(1.0, abs=1e-4)
    # on resonance the dip magnitude is 1 - kappa_a / (kappa_load / 2)
    expect = 1.0 - fit.kappa_a / (0.5 * fit.kappa_load)
    assert abs(s11_model(fit.omega_m, fit)) == pytest.approx(abs(expect),
                                                             rel=1e-12)
    # critical coupling swallows the carrier completely
    crit = _truth(kappa_a=TWO_PI * 5e6, gamma=TWO_PI * 5e6)
    assert abs(s11_model(crit.omega_m, crit)) < 1e-12


def test_reflection_fit_dataclass():
    fit = _truth()
    assert fit.kappa_load == fit.kappa_a + fit.gamma
    with pytest.raises(ValueError, match=">= 0"):
        ReflectionFit(omega_m=1.0, kappa_a=-1.0, gamma=1.0, goodness=0.0)


def test_noiseless_round_trip_many_draws():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(100):
        truth = _truth(omega_m=TWO_PI * rng.uniform(2.5e9, 3.5e9),
                       kappa_a=TWO_PI * 10 ** rng.uniform(5.7, 6.9))
        truth = _truth(omega_m=truth.omega_m, kappa_a=truth.kappa_a,
                       gamma=truth.kappa_a * rng.uniform(1.1, 10.0))
        fit = fit_s11(_spectrum(truth))
        worst = max(worst,
                    abs(fit.omega_m - truth.omega_m) / truth.omega_m,
                    abs(fit.kappa_a - truth.kappa_a) / truth.kappa_a,
                    abs(fit.gamma - truth.gamma) / truth.gamma)
    assert worst < 1e-6


def test_undercoupled_convention_on_swapped_truth(monkeypatch):
    # magnitude data cannot distinguish kappa_a from gamma, so an
    # overcoupled truth comes back in the undercoupled convention
    truth = _truth(kappa_a=TWO_PI * 10.3e6, gamma=TWO_PI * 4.0e6)
    fit = fit_s11(_spectrum(truth))
    assert fit.kappa_a <= fit.gamma
    assert fit.kappa_a == pytest.approx(TWO_PI * 4.0e6, rel=1e-6)
    assert fit.gamma == pytest.approx(TWO_PI * 10.3e6, rel=1e-6)

    # also when the solve lands on the overcoupled minimum, which fits
    # the magnitudes exactly as well: a stand-in solve exchanges the
    # two linewidths of the real one's result
    solve = scipy.optimize.least_squares

    def mirrored(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.x[[1, 2]] = sol.x[[2, 1]]
        return sol

    monkeypatch.setattr(scipy.optimize, "least_squares", mirrored)
    fit = fit_s11(_spectrum(_truth(kappa_a=TWO_PI * 3.0e6,
                                   gamma=TWO_PI * 1.0e6)))
    assert fit.kappa_a == pytest.approx(TWO_PI * 1.0e6, rel=1e-6)
    assert fit.gamma == pytest.approx(TWO_PI * 3.0e6, rel=1e-6)


def test_noisy_recovery_within_a_percent():
    rng = np.random.default_rng(62)
    truth = _truth()
    fit = fit_s11(_spectrum(truth, noise=1e-3, rng=rng))
    assert fit.omega_m == pytest.approx(truth.omega_m, rel=1e-5)
    assert fit.kappa_a == pytest.approx(truth.kappa_a, rel=1e-2)
    assert fit.gamma == pytest.approx(truth.gamma, rel=1e-2)
    assert fit.goodness == pytest.approx(1e-3, rel=0.3)


def test_amplitude_factor_is_recovered_not_fitted_away():
    truth = _truth()
    spec = _spectrum(truth)
    spec[:, 1] *= 0.37
    fit = fit_s11(spec)
    assert fit.baseline == pytest.approx(0.37, rel=1e-6)
    assert fit.gamma == pytest.approx(truth.gamma, rel=1e-6)


def test_linewidth_scaling():
    base = fit_s11(_spectrum(_truth()))
    wide = fit_s11(_spectrum(_truth(kappa_a=TWO_PI * 8.0e6,
                                    gamma=TWO_PI * 20.6e6)))
    assert wide.kappa_load == pytest.approx(2.0 * base.kappa_load, rel=0.02)


def test_fit_error_cases():
    truth = _truth()
    flat = _spectrum(truth)
    flat[:, 1] = 1.0 + 1e-3 * np.sin(np.linspace(0, 9, flat.shape[0]))
    with pytest.raises(FitError, match="no dip"):
        fit_s11(flat)

    # keep only the red half so the minimum lands on the window edge
    half = _spectrum(truth, halfspan_linewidths=4.0)
    keep = half[:, 0] <= truth.omega_m
    with pytest.raises(FitError, match="edge of the frequency window"):
        fit_s11(half[keep])

    with pytest.raises(FitError, match=">= 8 spectrum points"):
        fit_s11(_spectrum(truth, n=5))
    with pytest.raises(FitError, match="must be \\(N, 2\\)"):
        fit_s11(np.zeros((10, 3)))
    bad = _spectrum(truth)
    bad[3, 1] = np.nan
    with pytest.raises(FitError, match="non-finite"):
        fit_s11(bad)
    degen = _spectrum(truth)
    degen[:, 0] = truth.omega_m
    with pytest.raises(FitError, match="zero frequency span"):
        fit_s11(degen)
    zero = _spectrum(truth)
    zero[:, 1] = 0.0
    with pytest.raises(FitError, match="baseline"):
        fit_s11(zero)


GAMMA_E = 28.2e9  # Hz per tesla
ANIS_T = -3.35e-3


def _kittel_points(fields_t, noise_rad_s=0.0, rng=None):
    w = TWO_PI * GAMMA_E * (np.asarray(fields_t) + ANIS_T)
    if noise_rad_s:
        w = w + noise_rad_s * rng.normal(size=w.size)
    return np.column_stack([fields_t, w])


def test_kittel_exact_line():
    fields = np.linspace(105e-3, 125e-3, 11)
    fit = fit_kittel(_kittel_points(fields))
    assert fit.gamma_e_hz_per_t == pytest.approx(GAMMA_E, rel=1e-12)
    assert fit.anisotropy_t == pytest.approx(ANIS_T, rel=1e-9)
    assert fit.residual_rms < 1e-3  # rad/s, i.e. zero at float precision
    assert fit.slope_rad_s_per_t == pytest.approx(TWO_PI * GAMMA_E,
                                                  rel=1e-12)
    assert fit.magnon_freq(-ANIS_T) == pytest.approx(0.0, abs=1e-3)


def test_kittel_two_points_and_errors():
    fit = fit_kittel(_kittel_points(np.array([0.10, 0.12])))
    assert fit.residual_rms < 1e-3
    assert fit.gamma_e_hz_per_t == pytest.approx(GAMMA_E, rel=1e-12)

    with pytest.raises(FitError, match=">= 2 field points"):
        fit_kittel(_kittel_points(np.array([0.10])))
    with pytest.raises(FitError, match="fields identical"):
        fit_kittel(_kittel_points(np.array([0.11, 0.11, 0.11])))
    down = _kittel_points(np.array([0.10, 0.12]))
    down[:, 1] = down[::-1, 1]
    with pytest.raises(FitError, match="non-physical Kittel slope"):
        fit_kittel(down)
    bad = _kittel_points(np.array([0.10, 0.12]))
    bad[0, 1] = np.inf
    with pytest.raises(FitError, match="non-finite"):
        fit_kittel(bad)


def test_kittel_error_shrinks_with_more_points():
    rng = np.random.default_rng(63)
    sigma = TWO_PI * 5e6

    def mean_slope_err(n_fields, draws=30):
        fields = np.linspace(100e-3, 130e-3, n_fields)
        errs = []
        for _ in range(draws):
            fit = fit_kittel(_kittel_points(fields, sigma, rng))
            errs.append(abs(fit.gamma_e_hz_per_t - GAMMA_E))
        return float(np.mean(errs))

    # 10x the points should cut the error by roughly sqrt(10)
    assert mean_slope_err(50) < 0.6 * mean_slope_err(5)


def test_detuning_from_field():
    fit = fit_kittel(_kittel_points(np.linspace(0.10, 0.13, 7)))
    w_ref = fit.magnon_freq(0.115)
    assert detuning_from_field(0.115, fit, w_ref) == pytest.approx(0.0,
                                                                   abs=1e-3)
    step = detuning_from_field(0.116, fit, w_ref)
    assert step == pytest.approx(TWO_PI * GAMMA_E * 1e-3, rel=1e-9)
    # affine: equal field steps give equal detuning steps
    d1 = detuning_from_field(0.120, fit, w_ref)
    d2 = detuning_from_field(0.125, fit, w_ref)
    assert d2 - d1 == pytest.approx(step * 5, rel=1e-9)


def test_spectrum_csv_loader(tmp_path):
    p = tmp_path / "spec.csv"
    p.write_text("freq_unit,GHz\n3.00,0.98\n3.05,0.40\n3.10,0.97\n")
    arr = load_spectrum_csv(str(p))
    assert arr.shape == (3, 2)
    assert arr[1, 0] == pytest.approx(TWO_PI * 3.05e9, rel=1e-12)
    assert arr[1, 1] == 0.40

    p.write_text("freq_unit,Hz\n3.05e9,0.40\n3.06e9,0.95\n")
    arr = load_spectrum_csv(str(p))
    assert arr[0, 0] == pytest.approx(TWO_PI * 3.05e9, rel=1e-12)


def test_field_csv_units_agree(tmp_path):
    p_mt = tmp_path / "mt.csv"
    p_mt.write_text("field_unit,mT\n110,3.01\n120,3.29\n")
    p_g = tmp_path / "g.csv"
    p_g.write_text("field_unit,G\n1100,3.01\n1200,3.29\n")
    a = load_field_points_csv(str(p_mt))
    b = load_field_points_csv(str(p_g))
    np.testing.assert_allclose(a, b, rtol=1e-12)
    assert a[0, 0] == pytest.approx(0.110, rel=1e-12)
    assert a[0, 1] == pytest.approx(TWO_PI * 3.01e9, rel=1e-12)


def test_csv_loader_rejections(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("frequency,GHz\n3.0,0.9\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:1: expected header"):
        load_spectrum_csv(str(p))

    p.write_text("freq_unit,THz\n3.0,0.9\n")
    with pytest.raises(ConfigError, match="unknown unit 'THz'"):
        load_spectrum_csv(str(p))

    p.write_text("freq_unit,GHz\n3.0,0.9,7\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:2: expected 2 columns"):
        load_spectrum_csv(str(p))

    p.write_text("freq_unit,GHz\n3.0,abc\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:2: non-numeric"):
        load_spectrum_csv(str(p))

    p.write_text("")
    with pytest.raises(ConfigError, match="empty file"):
        load_spectrum_csv(str(p))

    p.write_text("freq_unit,GHz\n")
    with pytest.raises(ConfigError, match="no data rows"):
        load_spectrum_csv(str(p))

    p.write_text("field_unit,T\n0.1,3.0\n")
    with pytest.raises(ConfigError, match="unknown unit 'T'"):
        load_field_points_csv(str(p))


def test_shipped_example_data_round_trips():
    data = Path(__file__).resolve().parents[1] / "configs" / "data"
    spec = load_spectrum_csv(str(data / "s11_example.csv"))
    fit = fit_s11(spec)
    assert fit.omega_m == pytest.approx(TWO_PI * 3.05e9, rel=1e-5)
    assert fit.kappa_a == pytest.approx(TWO_PI * 4.0e6, rel=1e-2)
    assert fit.gamma == pytest.approx(TWO_PI * 10.3e6, rel=1e-2)

    pts = load_field_points_csv(str(data / "kittel_example.csv"))
    kit = fit_kittel(pts)
    assert kit.gamma_e_hz_per_t == pytest.approx(28.2e9, rel=1e-6)
    assert kit.anisotropy_t == pytest.approx(-3.35e-3, rel=1e-4)
