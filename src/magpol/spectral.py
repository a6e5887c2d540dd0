"""Emission-frequency extraction and spectra from time traces.

All functions take plain (times, amplitude) arrays in us and sqrt
quanta and analyse all the samples they are given; the caller cuts
any transient. Frequencies are reported as ordinary frequencies in MHz
(cycles/us) on an axis where positive means blue-shifted emission: a
rotating amplitude a(t) = a0 exp(-i W t) with W > 0 radiates above the
reference frequency and lands at +W/2pi on this axis.

Two independent estimators are provided for the dominant emission
offset: a weighted linear fit to the unwrapped phase (precise for
single-tone segments, with a residual-based confidence) and the peak
of a Hann-windowed FFT (robust for multi-tone segments, one-bin
resolution). Their agreement on clean segments is a consistency check
used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def hann_fft(times: np.ndarray,
             a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed magnitude spectrum of all the given samples.

    Returns (freqs, mags) with freqs in MHz, ascending, on the
    blue-positive emission axis (see module docstring). The
    magnitudes are raw windowed-FFT magnitudes, which satisfy the
    usual Parseval identity against the windowed samples.
    """
    t, z = np.asarray(times), np.asarray(a)
    if t.size < 8:
        raise ValueError(f"FFT needs >= 8 samples, got {t.size}")
    freqs = spectrum_freqs(t.size, float(t[1] - t[0]))
    spec = np.fft.fftshift(np.fft.fft(np.hanning(t.size) * z))
    return freqs, np.abs(spec)[::-1]


def fft_peak_offset(times: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """Dominant emission offset (rad/us) from the Hann FFT peak bin.

    Returns (omega, bin_width_rad_per_us); the estimate is quantized
    to the bin grid, so agreement with the phase-slope route is only
    expected to one bin.
    """
    freqs, mags = hann_fft(times, a)
    i = int(np.argmax(mags))
    bin_w = float(freqs[1] - freqs[0])
    return TWO_PI * float(freqs[i]), TWO_PI * bin_w


@dataclass
class Spectrogram:
    """Stacked per-segment spectra over a swept control parameter.

    ``magnitudes[i, j]`` is the spectral magnitude at ``freqs[i]``
    (MHz) for sweep column j (nominal detuning ``detunings[j]``,
    rad/us), normalized to unit maximum within each column. ``floor``
    is the clip applied by ``log10`` so empty bins render at a finite
    dB level.
    """

    freqs: np.ndarray
    detunings: np.ndarray
    magnitudes: np.ndarray
    floor: float = 1e-6

    def log10(self) -> np.ndarray:
        """Log-magnitude view, clipped at ``floor``."""
        return np.log10(np.maximum(self.magnitudes, self.floor))


def build_spectrogram(segments, detunings,
                      f_min: float | None = None,
                      f_max: float | None = None,
                      floor: float = Spectrogram.floor) -> Spectrogram:
    """Hann spectra of many segments stacked into one matrix.

    ``segments`` is an iterable of objects with ``times`` and ``a``
    arrays (one per sweep step, equal length and spacing), each cut
    to the samples to analyse, as ``run_sweep`` keeps them. The
    frequency axis can be cropped to [f_min, f_max] MHz. Columns are
    normalized to unit maximum independently, matching how swept
    emission spectra are usually displayed.
    """
    segs = list(segments)
    detunings = np.asarray(detunings, dtype=float)
    if len(segs) == 0:
        raise ValueError("no segments to stack")
    if detunings.size != len(segs):
        raise ValueError(f"{len(segs)} segments but {detunings.size} "
                         "detunings")
    if any(len(seg.times) != len(segs[0].times) for seg in segs):
        raise ValueError("segments have mismatched sample counts")
    spectra = (hann_fft(seg.times, seg.a) for seg in segs)
    freqs, first = next(spectra)
    sel = ((freqs >= (-np.inf if f_min is None else f_min))
           & (freqs <= (np.inf if f_max is None else f_max)))
    if not np.any(sel):
        raise ValueError("frequency crop leaves no bins")
    mags = np.column_stack([first[sel], *(m[sel] for _, m in spectra)])
    peak = mags.max(axis=0)
    return Spectrogram(freqs=freqs[sel], detunings=detunings,
                       magnitudes=mags / np.where(peak > 0, peak, 1.0),
                       floor=floor)
