"""Phase-slope and FFT frequency extraction on synthetic traces."""

import numpy as np
import pytest

from _cases import spectrogram
from magpol.errors import FitError
from magpol.model import TWO_PI
from magpol.spectral import (build_spectrogram, fft_peak_offset, hann_fft,
                             phase_slope_offset, spectrum_freqs)


def _tone(times, f_mhz, amp=1.0, phase=0.0):
    # blue-positive convention: an emission offset W > 0 is exp(-i W t)
    return amp * np.exp(-1j * (TWO_PI * f_mhz * times + phase))


DT = 1e-3
TIMES = np.arange(0.0, 2.0, DT)


def test_pure_tone_slope_is_exact():
    w0 = TWO_PI * 10.0
    omega, conf = phase_slope_offset(TIMES, _tone(TIMES, 10.0))
    assert omega == pytest.approx(w0, rel=1e-9)
    assert conf > 0.999


def test_negative_tone_and_constant_trace():
    omega, conf = phase_slope_offset(TIMES, _tone(TIMES, -7.5))
    assert omega == pytest.approx(-TWO_PI * 7.5, rel=1e-9)
    assert conf > 0.999

    omega, conf = phase_slope_offset(TIMES, np.full(TIMES.size, 3.0 + 0j))
    assert omega == pytest.approx(0.0, abs=1e-12)
    assert conf > 0.999


def test_zero_power_window_raises_fit_error():
    with pytest.raises(FitError, match="zero power"):
        phase_slope_offset(TIMES, np.zeros(TIMES.size, complex))


def test_window_validation():
    with pytest.raises(ValueError, match=">= 8 samples"):
        phase_slope_offset(TIMES[:6], _tone(TIMES[:6], 5.0))
    with pytest.raises(ValueError, match=">= 8 samples"):
        # the trailing fraction leaves too little
        phase_slope_offset(TIMES[:20], _tone(TIMES[:20], 5.0),
                           fit_fraction=0.3)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="fit_fraction"):
            phase_slope_offset(TIMES, _tone(TIMES, 5.0), fit_fraction=bad)
    # all the power on one sample leaves no spread of times to fit
    spike = np.zeros(TIMES.size, complex)
    spike[-1] = 1.0
    with pytest.raises(ValueError, match="degenerate time axis"):
        phase_slope_offset(TIMES, spike)


def test_two_tone_confidence_collapses():
    """Equal-amplitude beating has no single phase slope; the
    confidence must make that unmissable."""
    _, conf_one = phase_slope_offset(TIMES, _tone(TIMES, 10.0))
    z = _tone(TIMES, 10.0, amp=0.5) + _tone(TIMES, 23.0, amp=0.5)
    _, conf_two = phase_slope_offset(TIMES, z)
    assert conf_two < conf_one / 10.0
    assert conf_two < 0.5


def test_trailing_fraction_fits_the_late_tone():
    z = np.where(TIMES < 1.0, _tone(TIMES, 5.0), _tone(TIMES, 30.0))
    omega, _ = phase_slope_offset(TIMES, z, fit_fraction=0.4)
    assert omega == pytest.approx(TWO_PI * 30.0, rel=1e-9)


def test_hann_fft_bin_centered_tone():
    n, dt = 2000, 1e-3
    times = np.arange(n) * dt
    f0 = 50 / (n * dt)  # exactly on a bin: 25 MHz
    freqs, mags = hann_fft(_tone(times, f0), dt)
    i = int(np.argmax(mags))
    assert freqs[i] == pytest.approx(f0, abs=1e-12)
    mags = mags / mags[i]
    far = np.abs(np.arange(mags.size) - i) > 2
    # Hann sidelobes sit below -31 dB; a bin-centered tone leaks far less
    assert np.max(mags[far]) < 10 ** (-31.0 / 20.0)


def test_hann_fft_sign_convention_is_blue_positive():
    freqs, mags = hann_fft(_tone(TIMES, 25.0), DT)
    assert freqs[int(np.argmax(mags))] > 24.0
    freqs, mags = hann_fft(_tone(TIMES, -25.0), DT)
    assert freqs[int(np.argmax(mags))] < -24.0
    # constant trace peaks at zero offset
    freqs, mags = hann_fft(np.ones(TIMES.size, complex), DT)
    assert abs(freqs[int(np.argmax(mags))]) < 0.5 / (TIMES[-1] - TIMES[0])


def test_hann_fft_axis_and_parseval():
    z = _tone(TIMES, 3.0)
    before = z.copy()
    freqs, mags = hann_fft(z, DT)
    np.testing.assert_array_equal(z, before)
    assert freqs.size == mags.size == TIMES.size
    # the axis is the one spectrum_freqs gives for the sample count and step
    np.testing.assert_array_equal(freqs, spectrum_freqs(TIMES.size, DT))
    assert np.all(np.diff(freqs) > 0)
    win = np.hanning(TIMES.size)
    # the magnitudes have the bits of the FFT of the np.hanning-weighted
    # samples, flipped onto the ascending axis
    np.testing.assert_array_equal(
        mags, np.abs(np.fft.fftshift(np.fft.fft(win * z)))[::-1])
    lhs = np.sum(np.abs(win * z) ** 2)
    rhs = np.sum(mags ** 2) / TIMES.size
    assert lhs == pytest.approx(rhs, rel=1e-9)
    with pytest.raises(ValueError, match=">= 8 samples"):
        hann_fft(z[:5], DT)


def test_fft_peak_quantization_and_slope_agreement():
    z = _tone(TIMES, 25.37)  # deliberately off-bin
    omega_fft, bin_w = fft_peak_offset(z, DT)
    assert bin_w == pytest.approx(TWO_PI / (TIMES.size * 1e-3), rel=1e-9)
    assert abs(omega_fft - TWO_PI * 25.37) < bin_w
    omega_slope, _ = phase_slope_offset(TIMES, z)
    assert abs(omega_slope - omega_fft) < bin_w


def test_sideband_comb_peak_spacing():
    spacing = 13.0
    z = (_tone(TIMES, 20.0) + _tone(TIMES, 20.0 + spacing, amp=0.5)
         + _tone(TIMES, 20.0 - spacing, amp=0.5))
    freqs, mags = hann_fft(z, DT)
    mags = mags / mags.max()
    bin_w = freqs[1] - freqs[0]
    # local maxima above the leakage floor
    peaks = [i for i in range(1, mags.size - 1)
             if mags[i] > mags[i - 1] and mags[i] > mags[i + 1]
             and mags[i] > 0.05]
    assert len(peaks) == 3
    gaps = np.diff(freqs[peaks])
    assert np.all(np.abs(gaps - spacing) <= bin_w)


def _windows(tones_mhz, n=1000):
    times = np.arange(n) * DT
    return [_tone(times, f) for f in tones_mhz]


def test_spectrogram_ridge_tracks_the_tone():
    tones = np.linspace(-20.0, 20.0, 9)
    freqs, mags = spectrogram(_windows(tones), DT, -500.0, 500.0)
    assert mags.shape == (freqs.size, 9)
    np.testing.assert_array_equal(freqs, spectrum_freqs(1000, DT))
    bin_w = freqs[1] - freqs[0]
    ridge = freqs[np.argmax(mags, axis=0)]
    assert np.all(np.abs(ridge - tones) <= bin_w)
    # per-column unit max
    assert np.allclose(mags.max(axis=0), 1.0)


def test_spectrogram_columns_are_cropped_normalized_spectra():
    """Each column is its window's cropped ``hann_fft`` magnitudes over
    their maximum; a window with no power keeps its zeros."""
    windows = _windows([5.0, 10.0, 15.0]) + [np.zeros(1000, complex)]
    freqs, mags = spectrogram(windows, DT, -30.0, 30.0)
    axis = spectrum_freqs(1000, DT)
    keep = (axis >= -30.0) & (axis <= 30.0)
    np.testing.assert_array_equal(freqs, axis[keep])
    for j, z in enumerate(windows[:3]):
        col = hann_fft(z, DT)[1][keep]
        np.testing.assert_array_equal(mags[:, j], col / col.max())
    np.testing.assert_array_equal(mags[:, 3], np.zeros(keep.sum()))


def test_spectrogram_input_validation():
    with pytest.raises(ValueError, match="crop leaves no bins"):
        build_spectrogram(_windows([5.0])[0], DT, f_min=1e4, f_max=2e4)
