"""Ground-truth self-interference channel in the complex-baseband domain.

The passband channel (sum of attenuated, delayed copies of the RF transmit
signal) reduces, for ideal up/down conversion, to per-tap complex gains
a_k * exp(-j 2 pi f_c tau_k) acting on fractionally delayed baseband copies.
Delays use the periodic (circular) convention, exact for the bandlimited
periodic extension of a frame; the harness trims guard samples before
measuring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BasebandSignal

SPEED_OF_LIGHT = 299792458.0

# Fraction of the frame duration a single tap delay may reach.
MAX_DELAY_FRACTION = 0.10

# ADC full scale = this many times the signal RMS; accommodates ~13 dB PAPR
# with negligible clipping.
ADC_FULLSCALE_RMS = 4.0


@dataclass(frozen=True)
class PathLossModel:
    """Capped power-law path loss: loss(x) = min(cap_delta, k_const * x^-alpha)."""

    cap_delta: float
    k_const: float
    alpha: float

    def __post_init__(self):
        if self.cap_delta <= 0 or self.k_const <= 0:
            raise ValueError("path loss constants must be positive")
        if self.alpha <= 2:
            raise ValueError("alpha must exceed 2")


def path_loss(model: PathLossModel, distance_m: float) -> float:
    """Linear power gain at the given (round-trip) distance; d = 0 hits the cap."""
    if distance_m < 0:
        raise ValueError("distance must be >= 0")
    if distance_m == 0:
        return model.cap_delta
    try:
        return float(min(model.cap_delta, model.k_const * distance_m ** -model.alpha))
    except OverflowError:  # k d^-alpha beyond the float range: far above the cap
        return model.cap_delta


@dataclass(frozen=True)
class ChannelTap:
    gain: float           # linear amplitude a_k
    delay_s: float        # tau_k >= 0

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("tap gain must be positive")
        if self.delay_s < 0:
            raise ValueError("tap delay must be >= 0")


@dataclass(frozen=True)
class MultipathChannel:
    """Taps sorted non-increasing by gain, plus carrier and transmit gain."""

    taps: tuple
    carrier_hz: float
    tx_gain: float = 1.0  # linear power gain G_t

    def __post_init__(self):
        taps = tuple(self.taps)
        if len(taps) < 1:
            raise ValueError("channel needs at least one tap")
        order = np.argsort([-t.gain for t in taps], kind="stable")
        object.__setattr__(self, "taps", tuple(taps[i] for i in order))
        if self.carrier_hz <= 0:
            raise ValueError("carrier_hz must be positive")
        if self.tx_gain <= 0:
            raise ValueError("tx_gain must be positive")


@dataclass(frozen=True)
class ReceiverImpairments:
    noise_power: float = 0.0      # linear, 0 = off
    adc_bits: int = 0             # 0 = ideal
    sample_offset: float = 0.0    # sub-sample delay in seconds, [0, T_s)

    def __post_init__(self):
        if self.noise_power < 0:
            raise ValueError("noise_power must be >= 0")
        if self.adc_bits != 0 and not 4 <= self.adc_bits <= 16:
            raise ValueError("adc_bits must be 0 or in [4, 16]")
        if self.sample_offset < 0:
            raise ValueError("sample_offset must be >= 0")


def taps_from_geometry(distances_m, model: PathLossModel, carrier_hz: float,
                       extra_taps=(), tx_gain: float = 1.0) -> MultipathChannel:
    """Channel from one-way reflector distances plus explicit extra taps.

    Per reflector: round trip 2d, tau = 2d/c, amplitude sqrt(loss(2d)).
    Extra taps (e.g. circulator leakage) are merged as given.
    """
    taps = list(extra_taps)
    for d in distances_m:
        if d <= 0:
            raise ValueError("reflector distances must be positive")
        rt = 2.0 * d
        gain = float(np.sqrt(path_loss(model, rt)))
        if gain == 0.0:  # k (2d)^-alpha underflowed
            raise ValueError(f"reflector_distances_m = {d} is out of range")
        taps.append(ChannelTap(gain=gain, delay_s=rt / SPEED_OF_LIGHT))
    return MultipathChannel(taps=tuple(taps), carrier_hz=carrier_hz, tx_gain=tx_gain)


def fractional_delay(signal: BasebandSignal, delay_s: float) -> BasebandSignal:
    """Circular sub-sample delay via a frequency-domain phase ramp.

    Exact for the bandlimited periodic extension of the frame; an integer
    sample delay reduces to a circular shift.
    """
    if abs(delay_s) > MAX_DELAY_FRACTION * signal.duration_s:
        raise ValueError("delay exceeds 10% of the signal duration")
    if delay_s == 0.0:
        return signal
    x, fs = signal.samples, signal.sample_rate_hz
    freqs = np.fft.fftfreq(len(x), d=1.0 / fs)
    return BasebandSignal(_delayed(np.fft.fft(x), freqs, delay_s), fs)


def _delayed(X: np.ndarray, freqs: np.ndarray, delay_s: float) -> np.ndarray:
    """ifft(X * e^{-j2 pi f delay}): the delay of the frame whose FFT is X,
    multiplied into the ramp's buffer. The ramp, cos + j sin of theta, is bit
    for bit np.exp(-2j * np.pi * freqs * delay_s), whose argument is +0 + j theta.
    It is computed on bins 0..n//2 only: fftfreq's grid is antisymmetric bit for
    bit, so theta[n-k] = -theta[k] (or +0 where theta[k] is +0), and cos is even
    and sin odd, so bin n-k is cos theta[k] + j (0 - sin theta[k])."""
    n, h = len(freqs), len(freqs) // 2 + 1
    theta = 0.0 - (2 * np.pi * freqs[:h]) * delay_s  # +0, not -0, at DC, as in that argument
    ramp = np.empty(n, dtype=np.complex128)
    np.cos(theta, out=ramp.real[:h])
    np.sin(theta, out=ramp.imag[:h])
    ramp.real[h:] = ramp.real[n - h:0:-1]
    np.subtract(0.0, ramp.imag[n - h:0:-1], out=ramp.imag[h:])
    return np.fft.ifft(np.multiply(X, ramp, out=ramp))


def check_carrier(carrier_hz: float, sample_rate_hz: float) -> None:
    """Reject a carrier below 2.5 x the sample rate, naming carrier_hz."""
    if carrier_hz < 2.5 * sample_rate_hz:
        raise ValueError(f"carrier_hz = {carrier_hz:g} must be at least "
                         f"2.5 x the sample rate, {2.5 * sample_rate_hz:g} Hz")


def apply_channel(channel: MultipathChannel, x: BasebandSignal) -> BasebandSignal:
    """Baseband-equivalent SI: sqrt(G_t) * sum_k a_k e^{-j2 pi f_c tau_k} x(t - tau_k).

    Each tap is fractional_delay's delay routine on one shared forward FFT,
    so the result equals the per-tap fractional_delay sum bit for bit.
    """
    check_carrier(channel.carrier_hz, x.sample_rate_hz)
    if any(tap.delay_s > MAX_DELAY_FRACTION * x.duration_s for tap in channel.taps):
        raise ValueError("delay exceeds 10% of the signal duration")
    freqs = np.fft.fftfreq(len(x), d=1.0 / x.sample_rate_hz)
    X = np.fft.fft(x.samples)
    acc = np.zeros(len(x), dtype=np.complex128)
    for tap in channel.taps:
        phase = np.exp(-2j * np.pi * channel.carrier_hz * tap.delay_s)
        delayed = x.samples if tap.delay_s == 0.0 else _delayed(X, freqs, tap.delay_s)
        acc += tap.gain * phase * delayed
    acc *= np.sqrt(channel.tx_gain)
    return BasebandSignal(acc, x.sample_rate_hz)


def impair(rx: BasebandSignal, imp: ReceiverImpairments, seed: int = 0) -> BasebandSignal:
    """Receiver chain: sub-sample offset, complex AWGN, then I/Q quantization.

    The ADC full scale is ADC_FULLSCALE_RMS times the pre-quantizer RMS.
    """
    y = rx
    if imp.sample_offset != 0.0:
        y = fractional_delay(y, imp.sample_offset)
    samples = y.samples.copy()
    if imp.noise_power > 0.0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(imp.noise_power / 2.0)
        samples = samples + scale * (rng.standard_normal(len(samples))
                                     + 1j * rng.standard_normal(len(samples)))
    if imp.adc_bits != 0:
        rms = np.sqrt(np.mean(np.abs(samples) ** 2))
        if rms > 0:
            full_scale = ADC_FULLSCALE_RMS * rms
            step = 2.0 * full_scale / (1 << imp.adc_bits)
            def q(v):
                return np.clip(np.round(v / step) * step,
                               -full_scale, full_scale - step)
            samples = q(samples.real) + 1j * q(samples.imag)
    return BasebandSignal(samples, rx.sample_rate_hz)
