"""Emission-frequency extraction and spectra from time traces.

All functions take amplitude arrays in sqrt quanta and analyse all
the samples they are given; the caller cuts any transient. The
spectra take the sample step dt (us) and put every spectrum of n
samples on the one axis ``spectrum_freqs(n, dt)``; the phase fit
takes the sample times, which its regression reads. Frequencies are
reported as ordinary frequencies in MHz (cycles/us) on an axis where
positive means blue-shifted emission: a rotating amplitude
a(t) = a0 exp(-i W t) with W > 0 radiates above the reference
frequency and lands at +W/2pi on this axis.

Two independent estimators are provided for the dominant emission
offset: a weighted linear fit to the unwrapped phase (precise for
single-tone segments, with a residual-based confidence) and the peak
of a Hann-windowed FFT (robust for multi-tone segments, one-bin
resolution). Their agreement on clean segments is a consistency check
used by the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import FitError
from .model import TWO_PI

# Weighted phase-fit mean square residual (rad^2) at which confidence
# drops to 1/2; segments above it are flagged low-confidence.
PHASE_RESIDUAL_SCALE = 1e-2


def phase_slope_offset(times: np.ndarray, a: np.ndarray,
                       fit_fraction: float = 0.5) -> tuple[float, float]:
    """Emission offset (rad/us) from the slope of the unwrapped phase.

    Fits the trailing ``fit_fraction`` of the samples with a linear
    model of the unwrapped phase, weighted by instantaneous power so
    dim intervals do not pollute the slope. Returns (omega,
    confidence); the offset follows the blue-positive convention, and
    confidence is 1 / (1 + mse/PHASE_RESIDUAL_SCALE), which drops well
    below 1/2 for multi-tone or drifting segments. A window with zero
    total power has no phase to fit and raises FitError.
    """
    if not 0.0 < fit_fraction <= 1.0:
        raise ValueError(f"fit_fraction must be in (0, 1], got {fit_fraction}")
    t, z = np.asarray(times), np.asarray(a)
    start = t.size - int(round(fit_fraction * t.size))
    t, z = t[start:], z[start:]
    if t.size < 8:
        raise ValueError(f"phase fit needs >= 8 samples, got {t.size}")
    w = np.abs(z) ** 2
    w_sum = float(np.sum(w))
    if not (w_sum > 0 and np.isfinite(w_sum)):
        raise FitError("undefined phase: analysis window has zero power")
    phi = np.unwrap(np.angle(z))
    t_bar = float(np.sum(w * t)) / w_sum
    p_bar = float(np.sum(w * phi)) / w_sum
    dt_ = t - t_bar
    var_t = float(np.sum(w * dt_ * dt_))
    if var_t <= 0:
        raise ValueError("degenerate time axis in phase fit")
    slope = float(np.sum(w * dt_ * (phi - p_bar))) / var_t
    resid = phi - p_bar - slope * dt_
    mse = float(np.sum(w * resid * resid)) / w_sum
    confidence = 1.0 / (1.0 + mse / PHASE_RESIDUAL_SCALE)
    return -slope, confidence


def spectrum_freqs(n: int, dt: float) -> np.ndarray:
    """Frequency axis (MHz, ascending) of ``hann_fft`` on n samples
    spaced dt (us): the FFT axis flipped, since exp(-i W t) peaks at
    -W/(2 pi) in FFT convention and blue shifts (W > 0) belong at
    positive frequencies."""
    return -np.fft.fftshift(np.fft.fftfreq(n, d=dt))[::-1]


def hann_fft(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed magnitude spectrum of all the given samples.

    ``a`` holds the samples, spaced ``dt`` (us). Returns (freqs, mags)
    with freqs = ``spectrum_freqs(a.size, dt)`` in MHz, ascending, on
    the blue-positive emission axis (see module docstring). The
    magnitudes are raw windowed-FFT magnitudes, which satisfy the
    usual Parseval identity against the windowed samples.
    """
    z = np.asarray(a)
    if z.size < 8:
        raise ValueError(f"FFT needs >= 8 samples, got {z.size}")
    spec = np.fft.fftshift(np.fft.fft(np.hanning(z.size) * z))
    return spectrum_freqs(z.size, dt), np.abs(spec)[::-1]


def fft_peak_offset(a: np.ndarray, dt: float) -> tuple[float, float]:
    """Dominant emission offset (rad/us) from the Hann FFT peak bin.

    Returns (omega, bin_width_rad_per_us); the estimate is quantized
    to the bin grid, so agreement with the phase-slope route is only
    expected to one bin.
    """
    freqs, mags = hann_fft(a, dt)
    i = int(np.argmax(mags))
    bin_w = float(freqs[1] - freqs[0])
    return TWO_PI * float(freqs[i]), TWO_PI * bin_w


def build_spectrogram(window: np.ndarray, dt: float, f_min: float,
                      f_max: float) -> tuple[np.ndarray, np.ndarray]:
    """One spectrogram column: the Hann spectrum of one window.

    ``window`` holds amplitude samples spaced ``dt`` us, cut to the
    samples to analyse, as ``run_sweep`` hands them to its
    ``on_window``. Returns (freqs, column): the ``hann_fft`` axis
    cropped to [f_min, f_max] MHz, and the magnitudes on it divided by
    their maximum (by 1 when that is 0), as swept emission spectra are
    usually displayed. A sweep's spectrogram stacks one column per
    step.
    """
    freqs, mags = hann_fft(window, dt)
    sel = (freqs >= f_min) & (freqs <= f_max)
    if not np.any(sel):
        raise ValueError("frequency crop leaves no bins")
    column = mags[sel]
    peak = column.max()
    return freqs[sel], column / (peak if peak > 0 else 1.0)
