"""Baseband waveform generation: single-carrier (sinc/RRC pulse shaped) and OFDM.

The generated frames serve both as the known transmit reference and as the
source of self-interference in the simulator. gen_frame seeds every frame
with spec.seed and normalizes it to unit mean power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pulse shaping filters are truncated to +-PULSE_SPAN symbol durations with no
# windowing; the resulting sidelobe floor (< -50 dB) sits below every
# tolerance asserted downstream.
PULSE_SPAN = 16

# Raised-cosine taper length (output samples) applied across OFDM symbol
# junctions via cyclic extension and overlap-add. Sized so the per-symbol
# window skirts fall fast enough to expose the DC notch (>40 dB down) and to
# keep the frame's out-of-band content far below every cancellation floor
# asserted downstream.
OFDM_JUNCTION_TAPER_FRACTION = 0.5  # of the FFT body length

# Carriers nulled on each side of DC (plus DC itself) so the notch is wider
# than the per-symbol spectral kernel.
OFDM_DC_GUARD = 2


@dataclass(frozen=True)
class SignalSpec:
    """Parameters of a generated baseband frame.

    kind: "single-carrier" or "ofdm".
    bandwidth_hz: nominal two-sided bandwidth W; the symbol duration is 1/W.
    oversampling: sample rate / W, integer >= 1; >= 2 for a single-carrier sinc pulse.
    pulse: "sinc" or "rrc" (single-carrier only).
    rolloff: RRC roll-off in [0, 1].
    """

    kind: str = "ofdm"
    bandwidth_hz: float = 20e6
    oversampling: int = 4
    num_symbols: int = 12
    constellation: str = "qpsk4"
    pulse: str = "rrc"
    rolloff: float = 0.3
    ofdm_fft_size: int = 1024
    ofdm_used_carriers: int = 620
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("single-carrier", "ofdm"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz = {self.bandwidth_hz} must be positive")
        if self.oversampling < 1:
            raise ValueError(f"oversampling = {self.oversampling} must be >= 1")
        if self.kind == "single-carrier" and self.pulse == "sinc" and self.oversampling < 2:
            # derivative content would alias
            raise ValueError(f"oversampling = {self.oversampling} must be >= 2 for the sinc pulse")
        if self.num_symbols < 1:
            raise ValueError(f"num_symbols = {self.num_symbols} must be >= 1")
        if self.constellation not in ("qpsk4", "qam16"):
            raise ValueError(f"unknown constellation {self.constellation!r}")
        if self.pulse not in ("sinc", "rrc"):
            raise ValueError(f"unknown pulse {self.pulse!r}")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff = {self.rolloff} must be in [0, 1]")
        if self.seed < 0:  # numpy's default_rng refuses it
            raise ValueError(f"seed = {self.seed} must not be negative")
        if self.kind == "ofdm":
            _ofdm_used_bins(self.ofdm_fft_size, self.ofdm_used_carriers)

    @property
    def sample_rate_hz(self) -> float:
        return self.oversampling * self.bandwidth_hz

    @property
    def frame_len(self) -> int:
        """Samples in gen_frame(self); see _gen_single_carrier and _gen_ofdm."""
        if self.kind == "ofdm":
            nfft = self.ofdm_fft_size
            return self.num_symbols * (nfft + nfft // 8) * self.oversampling
        return (self.num_symbols - 1 + 2 * PULSE_SPAN) * self.oversampling + 1


@dataclass(frozen=True)
class BasebandSignal:
    """Uniformly sampled complex baseband sequence, stored as complex128."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", arr)
        if arr.size == 0:
            raise ValueError("empty sample sequence")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def draw_symbols(rng: np.random.Generator, size, constellation: str) -> np.ndarray:
    """Uniform i.i.d. unit-power symbols of shape `size` from "qpsk4" or "qam16"."""
    if constellation == "qpsk4":
        pts = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0))
    elif constellation == "qam16":
        levels = np.array([-3.0, -1.0, 1.0, 3.0])
        grid = (levels[:, None] + 1j * levels[None, :]).ravel()
        pts = grid / np.sqrt(np.mean(np.abs(grid) ** 2))
    else:
        raise ValueError(f"unknown constellation {constellation!r}")
    return pts[rng.integers(0, len(pts), size=size)]


def rrc_pulse(t: np.ndarray, rolloff: float) -> np.ndarray:
    """Root-raised-cosine pulse, unit symbol duration, peak at t = 0."""
    t = np.asarray(t, dtype=float)
    b = rolloff
    out = np.empty_like(t)
    if b == 0.0:
        return np.sinc(t)
    # removable singularities at t = 0 and t = +-1/(4b)
    sing = np.isclose(np.abs(t), 1.0 / (4.0 * b), atol=1e-10)
    zero = np.isclose(t, 0.0, atol=1e-12)
    reg = ~(sing | zero)
    tr = t[reg]
    num = (np.sin(np.pi * tr * (1 - b))
           + 4 * b * tr * np.cos(np.pi * tr * (1 + b)))
    den = np.pi * tr * (1 - (4 * b * tr) ** 2)
    out[reg] = num / den
    out[zero] = 1 - b + 4 * b / np.pi
    if sing.any():  # pi/(4b) overflows for a subnormal rolloff, where no t is singular
        out[sing] = (b / np.sqrt(2.0)) * ((1 + 2 / np.pi) * np.sin(np.pi / (4 * b))
                                          + (1 - 2 / np.pi) * np.cos(np.pi / (4 * b)))
    return out


def _normalize(x: np.ndarray) -> np.ndarray:
    p = np.mean(np.abs(x) ** 2)
    if p == 0:
        raise ValueError("cannot normalize an all-zero frame")
    return x / np.sqrt(p)


def _gen_single_carrier(spec: SignalSpec, rng: np.random.Generator) -> np.ndarray:
    """Raw samples of a pulse-shaped symbol stream at rate oversampling * W.

    The frame carries the full truncated pulse tails: symbol m is centred at
    sample (PULSE_SPAN + m) * oversampling, and the frame length is
    (num_symbols - 1 + 2 * PULSE_SPAN) * oversampling + 1 samples.
    """
    os_ = spec.oversampling
    syms = draw_symbols(rng, spec.num_symbols, spec.constellation)

    n_taps = 2 * PULSE_SPAN * os_ + 1
    t = (np.arange(n_taps) - PULSE_SPAN * os_) / os_
    h = np.sinc(t) if spec.pulse == "sinc" else rrc_pulse(t, spec.rolloff)

    train = np.zeros((spec.num_symbols - 1) * os_ + 1, dtype=np.complex128)
    train[::os_] = syms
    return np.convolve(train, h.astype(np.complex128), mode="full")


def _ofdm_used_bins(fft_size: int, used: int) -> np.ndarray:
    """Symmetric active-carrier indices; DC +- OFDM_DC_GUARD and the band
    edges stay nulled."""
    half = used // 2
    extra = used - 2 * half  # one extra positive carrier when used is odd
    lo = 1 + OFDM_DC_GUARD
    if used < 1 or lo + half + extra > fft_size // 2:
        raise ValueError(f"ofdm_used_carriers = {used} does not fit inside the "
                         f"{fft_size}-bin FFT grid beside the DC guard")
    return np.concatenate([np.arange(lo, lo + half + extra), -np.arange(lo, lo + half)])


def _gen_ofdm(spec: SignalSpec, rng: np.random.Generator) -> np.ndarray:
    """Raw samples of a windowed CP-OFDM frame at rate oversampling * W.

    Carriers occupy symmetric bins of the FFT grid (spacing W/fft_size) with
    DC +- OFDM_DC_GUARD and the outer band-edge bins nulled. Each symbol
    carries a cyclic prefix of fft_size/8 core samples and is cyclically
    extended with raised-cosine ramps that overlap-add into its neighbours
    (the last symbol wraps onto the first), so multi-symbol frames are
    exactly one period of a circularly continuous signal. Per-carrier
    content is untouched by the windowing; the symbol spacing stays
    body + cp. A lone symbol has no junctions and is emitted plain so a
    single active carrier stays a pure exponential.
    """
    nfft = spec.ofdm_fft_size
    used = spec.ofdm_used_carriers
    os_ = spec.oversampling

    body = nfft * os_
    cp = (nfft // 8) * os_
    sym_len = body + cp
    taper = int(body * OFDM_JUNCTION_TAPER_FRACTION) if spec.num_symbols > 1 else 0
    bins = _ofdm_used_bins(nfft, used)
    ramp = 0.5 * (1 - np.cos(np.pi * (np.arange(taper) + 0.5) / taper)) if taper else np.zeros(0)
    sym = np.zeros((spec.num_symbols, body), dtype=np.complex128)
    sym[:, bins % body] = draw_symbols(rng, (spec.num_symbols, used), spec.constellation)
    sym = np.fft.ifft(sym)
    sym *= np.sqrt(body)
    # the windowed extensions (cyclic head, body, cyclic tail) add into buf, the frame shifted
    # by taper; each is shorter than the frame, so no sample sums more than two, in any order
    win = np.concatenate([ramp, np.ones(body + cp), ramp[::-1]])
    buf = np.zeros(spec.frame_len + 2 * taper, dtype=np.complex128)
    for s, td in enumerate(sym):
        ext = np.concatenate([td[body - cp - taper:], td, td[:taper]])
        buf[s * sym_len:s * sym_len + len(ext)] += ext * win
    frame = buf[taper:len(buf) - taper]
    frame[len(frame) - taper:] += buf[:taper]
    frame[:taper] += buf[len(buf) - taper:]
    return frame


def gen_frame(spec: SignalSpec) -> BasebandSignal:
    """The frame spec describes, at unit mean power: one rng seeded with spec.seed
    feeds the generator of spec.kind, which SignalSpec has checked."""
    gen = _gen_ofdm if spec.kind == "ofdm" else _gen_single_carrier
    return BasebandSignal(_normalize(gen(spec, np.random.default_rng(spec.seed))),
                          spec.sample_rate_hz)
