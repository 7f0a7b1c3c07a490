"""Measurement utilities: Welch PSDs and the residual-slope diagnostic that
evidences a derivative-shaped residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BasebandSignal

# Fewest PSD bins slope_diagnostic fits a line through.
MIN_BAND_BINS = 8


@dataclass(frozen=True)
class Psd:
    freqs_hz: np.ndarray
    power_db: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        p = np.asarray(self.power_db, dtype=float)
        if len(f) != len(p):
            raise ValueError("frequency and power lengths differ")
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "power_db", p)


def welch_segment(n: int) -> int:
    """Welch segment of an n-sample PSD: the largest power of two up to 4096."""
    return min(4096, 1 << (n.bit_length() - 1))


def psd(signal: BasebandSignal) -> Psd:
    """Two-sided Hann-windowed averaged periodogram (density scaling) over
    half-overlapping segments of welch_segment(n) samples, normalized so the
    integral over frequency equals the mean power."""
    n = len(signal)
    if n < 2:
        raise ValueError(f"psd needs at least 2 samples, got {n}")
    segment_len = welch_segment(n)
    # scipy.signal.welch's arithmetic: periodic Hann window scaled to density
    # (summed left to right), one FFT over every hop-th window of a strided view,
    # and each bin's segments laid out contiguously so the mean sums them pairwise
    fs, hop = signal.sample_rate_hz, segment_len // 2
    w = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment_len + 1)))[:-1]
    w = w * (1 / np.sqrt(np.cumsum(w ** 2)[-1] / (1 / fs)))
    segs = np.lib.stride_tricks.sliding_window_view(signal.samples, segment_len)[::hop]
    spec = np.fft.fft(segs * w, axis=-1)
    pxx = np.square(spec.real)
    pxx += np.square(spec.imag)
    pxx = np.ascontiguousarray(pxx.T).mean(axis=-1)
    freqs = np.fft.fftfreq(segment_len, 1 / fs)
    order = np.argsort(freqs)
    return Psd(freqs_hz=freqs[order],
               power_db=10.0 * np.log10(pxx[order] + 1e-300))


def band_mask(freqs_hz: np.ndarray, band: tuple) -> np.ndarray:
    """Bins whose |f| lies in band = (f_lo, f_hi), both edges included."""
    absf = np.abs(freqs_hz)
    return (absf >= band[0]) & (absf <= band[1])


def slope_diagnostic(p: Psd, band: tuple) -> dict:
    """Fit linear-PSD amplitude against |f| over the band.

    A residual dominated by a derivative component has amplitude
    proportional to |f|; the fit quality (R^2) is the diagnostic. The
    returned slope is the fitted amplitude change expressed in power
    dB per decade between the band edges (20 for amplitude ~ |f|,
    0 for a flat spectrum).
    """
    f_lo, f_hi = band
    if f_lo <= 0 or f_hi <= f_lo:
        raise ValueError("band must satisfy 0 < f_lo < f_hi (DC excluded)")
    mask = band_mask(p.freqs_hz, band)
    if mask.sum() < MIN_BAND_BINS:
        raise ValueError("too few PSD bins in the requested band")
    fv = np.abs(p.freqs_hz[mask]) / f_hi  # in units of f_hi: polyfit's SVD fails at |f| ~ 1e-200
    amp = np.sqrt(10.0 ** (p.power_db[mask] / 10.0))
    m, b = np.polyfit(fv, amp, 1)
    fit = m * fv + b
    ss_res = float(np.sum((amp - fit) ** 2))
    ss_tot = float(np.sum((amp - amp.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    a_lo = max(m * (f_lo / f_hi) + b, 1e-300)
    a_hi = max(m + b, 1e-300)
    slope = 20.0 * np.log10(a_hi / a_lo) / np.log10(f_hi / f_lo)
    return {"r2": float(r2), "slope_db_per_decade": float(slope)}
