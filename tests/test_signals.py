from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdsic.config import load_config
from fdsic.signals import (OFDM_JUNCTION_TAPER_FRACTION, PULSE_SPAN, BasebandSignal, SignalSpec,
                           _normalize, _ofdm_used_bins, draw_symbols, gen_frame, rrc_pulse)
from reference import papr_db, welch_db

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Fraction of the nominal half-bandwidth by which a truncated sinc pulse may
# spill past the brick-wall edge while still containing 99% of frame energy.
SINC_CONFINEMENT_EPS = 0.1


def sc_spec(**kw):
    base = dict(kind="single-carrier", bandwidth_hz=10e6, oversampling=4,
                num_symbols=512, constellation="qpsk4", pulse="rrc",
                rolloff=0.3, seed=7)
    base.update(kw)
    return SignalSpec(**base)


class TestSingleCarrier:
    def test_deterministic(self):
        a = gen_frame(sc_spec(pulse="sinc"))
        b = gen_frame(sc_spec(pulse="sinc"))
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_samples(self):
        a = gen_frame(sc_spec())
        b = gen_frame(sc_spec(seed=8))
        assert not np.array_equal(a.samples, b.samples)

    def test_unit_power(self):
        x = gen_frame(sc_spec())
        assert abs(x.mean_power - 1.0) <= 1e-6

    def test_rrc_papr_in_range(self):
        x = gen_frame(sc_spec(num_symbols=8192))
        assert 3.0 <= papr_db(x) <= 6.0

    def test_single_symbol_is_pulse(self):
        x = gen_frame(sc_spec(pulse="sinc", num_symbols=1, seed=0))
        n0 = np.argmax(np.abs(x.samples))
        n = np.arange(len(x.samples))
        expected = np.sinc((n - n0) / 4)
        scale = x.samples[n0]
        assert np.max(np.abs(x.samples - scale * expected)) <= 1e-9 * abs(scale)

    def test_sinc_requires_oversampling(self):
        # refused when the spec is built, before any frame is generated
        with pytest.raises(ValueError, match="^oversampling = 1 must be >= 2 for the sinc pulse$"):
            sc_spec(pulse="sinc", oversampling=1)
        assert sc_spec(pulse="sinc", oversampling=2).oversampling == 2
        assert sc_spec(pulse="rrc", oversampling=1).oversampling == 1
        assert SignalSpec(kind="ofdm", pulse="sinc", oversampling=1).oversampling == 1

    def test_sample_rate(self):
        x = gen_frame(sc_spec())
        assert x.sample_rate_hz == 40e6

    def test_rrc_spectral_confinement(self):
        spec = sc_spec(num_symbols=4096)
        x = gen_frame(spec)
        spectrum = np.abs(np.fft.fft(x.samples)) ** 2
        freqs = np.fft.fftfreq(len(x.samples), 1 / x.sample_rate_hz)
        edge = spec.bandwidth_hz / 2 * (1 + spec.rolloff)
        frac = spectrum[np.abs(freqs) <= edge].sum() / spectrum.sum()
        assert frac >= 0.99

    def test_sinc_spectral_confinement(self):
        spec = sc_spec(pulse="sinc", num_symbols=4096)
        x = gen_frame(spec)
        spectrum = np.abs(np.fft.fft(x.samples)) ** 2
        freqs = np.fft.fftfreq(len(x.samples), 1 / x.sample_rate_hz)
        edge = spec.bandwidth_hz / 2 * (1 + SINC_CONFINEMENT_EPS)
        frac = spectrum[np.abs(freqs) <= edge].sum() / spectrum.sum()
        assert frac >= 0.99


class TestRrcPulse:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("rolloff", [0.25, 0.5, 1.0])
    def test_singular_point_is_the_limit(self, rolloff, sign):
        # the closed form is 0/0 at |t| = 1/(4 rolloff); its value there is the limit
        t = sign / (4.0 * rolloff)
        sides = rrc_pulse(np.array([t * (1 - 1e-4), t * (1 + 1e-4)]), rolloff)
        assert rrc_pulse(np.array([t]), rolloff)[0] == pytest.approx(np.mean(sides), abs=1e-7)

    def test_zero_rolloff_is_sinc(self):
        t = np.linspace(-8.0, 8.0, 1001)
        assert np.array_equal(rrc_pulse(t, 0.0), np.sinc(t))


class TestOfdm:
    def test_deterministic(self):
        spec = SignalSpec(kind="ofdm", num_symbols=4, seed=11)
        assert np.array_equal(gen_frame(spec).samples, gen_frame(spec).samples)

    def test_unit_power(self):
        x = gen_frame(SignalSpec(kind="ofdm", num_symbols=8, seed=1))
        assert abs(x.mean_power - 1.0) <= 1e-6

    def test_rejects_too_many_carriers(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="ofdm", ofdm_fft_size=64, ofdm_used_carriers=64)

    @pytest.mark.parametrize("fft_size", [64, 256, 1024])
    def test_carrier_fit_checked_when_built(self, fft_size):
        # the top positive carrier, bin 2 + ceil(used / 2), must stay below fft_size / 2
        assert len(gen_frame(SignalSpec(kind="ofdm", num_symbols=1, ofdm_fft_size=fft_size,
                                       ofdm_used_carriers=fft_size - 6))) > 0
        for used in (0, fft_size - 5, fft_size - 1):
            with pytest.raises(ValueError, match=f"ofdm_used_carriers = {used} "):
                SignalSpec(kind="ofdm", ofdm_fft_size=fft_size, ofdm_used_carriers=used)

    def test_papr_in_range(self):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6,
                                num_symbols=64, seed=3))
        assert 10.0 <= papr_db(x) <= 14.0

    def test_flat_occupied_band_and_dc_null(self):
        spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=64, seed=3)
        x = gen_frame(spec)
        # occupied-band flatness at coarse resolution, 1024-point segments
        freqs, power_db = welch_db(x, 1024)
        band = ((np.abs(freqs) > 0.012 * spec.bandwidth_hz)
                & (np.abs(freqs) < 0.28 * spec.bandwidth_hz))
        assert power_db[band].max() - power_db[band].min() <= 1.0
        # DC notch at fine resolution, 32768-point segments: beyond psd's 4096 cap
        freqs, power_db = welch_db(x, 32768)
        dc = power_db[np.argmin(np.abs(freqs))]
        inband = ((np.abs(freqs) > 0.02 * spec.bandwidth_hz)
                  & (np.abs(freqs) < 0.28 * spec.bandwidth_hz))
        assert dc <= np.median(power_db[inband]) - 40.0

    def test_single_carrier_is_complex_exponential(self):
        spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=1,
                          ofdm_fft_size=64, ofdm_used_carriers=1, seed=5)
        x = gen_frame(spec)
        mags = np.abs(x.samples)
        assert np.max(mags) - np.min(mags) <= 1e-9
        # constant phase increment within the symbol
        ph = np.angle(x.samples[1:] * np.conj(x.samples[:-1]))
        assert np.max(np.abs(ph - ph[0])) <= 1e-9


@pytest.mark.parametrize("spec", [
    load_config(CONFIGS / "ofdm_20mhz.cfg").signal,
    load_config(CONFIGS / "single_carrier_10mhz.cfg").signal,
    SignalSpec(kind="single-carrier", oversampling=1, num_symbols=1),
    SignalSpec(kind="single-carrier", oversampling=2, num_symbols=5, pulse="sinc"),
    SignalSpec(kind="single-carrier", oversampling=3, num_symbols=64),
    SignalSpec(kind="ofdm", oversampling=1, num_symbols=1, ofdm_fft_size=64,
               ofdm_used_carriers=32),
    SignalSpec(kind="ofdm", oversampling=2, num_symbols=3, ofdm_fft_size=256,
               ofdm_used_carriers=128),
], ids=lambda spec: f"{spec.kind}-os{spec.oversampling}-n{spec.num_symbols}")
def test_frame_length_closed_form(spec):
    os_ = spec.oversampling
    if spec.kind == "single-carrier":
        expected = (spec.num_symbols - 1 + 2 * PULSE_SPAN) * os_ + 1
    else:
        nfft = spec.ofdm_fft_size
        expected = spec.num_symbols * (nfft + nfft // 8) * os_
    assert len(gen_frame(spec)) == expected
    # the property ExperimentConfig checks train_len and detector_window against
    assert spec.frame_len == expected


class TestPapr:
    def test_constant_modulus_tone(self):
        n = np.arange(4096)
        tone = BasebandSignal(np.exp(2j * np.pi * 0.05 * n), 1.0)
        assert abs(papr_db(tone)) <= 1e-9

    def test_single_spike(self):
        n = 1000
        samples = np.zeros(n, dtype=complex)
        samples[-1] = 2.0
        sig = BasebandSignal(samples, 1.0)
        assert abs(papr_db(sig) - 10 * np.log10(n)) <= 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BasebandSignal(samples=np.array([]), sample_rate_hz=1.0)


@given(seed=st.integers(0, 2**32 - 1),
       nsym=st.integers(2, 16),
       constellation=st.sampled_from(["qpsk4", "qam16"]))
@settings(max_examples=20, deadline=None)
def test_ofdm_determinism_and_power_property(seed, nsym, constellation):
    spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=nsym,
                      ofdm_fft_size=128, ofdm_used_carriers=64,
                      constellation=constellation, seed=seed)
    a, b = gen_frame(spec), gen_frame(spec)
    assert np.array_equal(a.samples, b.samples)
    assert abs(a.mean_power - 1.0) <= 1e-6
    assert papr_db(a) >= 0.0


@given(seed=st.integers(0, 2**32 - 1), pulse=st.sampled_from(["sinc", "rrc"]))
@settings(max_examples=15, deadline=None)
def test_single_carrier_power_property(seed, pulse):
    spec = sc_spec(pulse=pulse, num_symbols=64, seed=seed)
    x = gen_frame(spec)
    assert abs(x.mean_power - 1.0) <= 1e-6


def reference_gen_ofdm(spec: SignalSpec) -> BasebandSignal:
    """The per-symbol loop _gen_ofdm replaced, kept as its oracle: one draw,
    one IFFT and one np.add.at overlap-add per symbol."""
    nfft = spec.ofdm_fft_size
    used = spec.ofdm_used_carriers
    os_ = spec.oversampling
    rng = np.random.default_rng(spec.seed)

    body = nfft * os_
    cp = (nfft // 8) * os_
    sym_len = body + cp
    taper = int(body * OFDM_JUNCTION_TAPER_FRACTION) if spec.num_symbols > 1 else 0
    bins = _ofdm_used_bins(nfft, used)
    ramp = 0.5 * (1 - np.cos(np.pi * (np.arange(taper) + 0.5) / taper)) if taper else np.zeros(0)
    frame = np.zeros(spec.frame_len, dtype=np.complex128)
    for s in range(spec.num_symbols):
        fd = np.zeros(body, dtype=np.complex128)
        fd[bins % body] = draw_symbols(rng, used, spec.constellation)
        td = np.fft.ifft(fd) * np.sqrt(body)
        ext = np.concatenate([td[body - cp - taper:], td, td[:taper]])
        win = np.ones(len(ext))
        if taper:
            win[:taper] = ramp
            win[-taper:] = ramp[::-1]
        start = s * sym_len - taper
        idx = (start + np.arange(len(ext))) % len(frame)
        np.add.at(frame, idx, ext * win)
    return BasebandSignal(_normalize(frame), spec.sample_rate_hz)


class TestOfdmOracle:
    """_gen_ofdm draws all symbols at once, runs one batched IFFT and adds
    each symbol with a fancy-index +=; the frame must equal the per-symbol
    loop bit for bit (compared as integers, so a zero's sign counts)."""

    @settings(max_examples=150, deadline=None)
    @given(fft_size=st.sampled_from([16, 32, 64, 128]), oversampling=st.integers(1, 8),
           num_symbols=st.sampled_from([1, 2, 3]), used_frac=st.floats(0.0, 1.0),
           constellation=st.sampled_from(["qpsk4", "qam16"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_symbol_loop(self, fft_size, oversampling, num_symbols, used_frac,
                                     constellation, seed):
        # 1 symbol has no taper, 2 wrap onto each other, 3 wrap with an odd count
        used = 1 + int(used_frac * (fft_size - 7))  # 1 .. the grid's last fitting count
        spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, oversampling=oversampling,
                          num_symbols=num_symbols, constellation=constellation,
                          ofdm_fft_size=fft_size, ofdm_used_carriers=used, seed=seed)
        a, b = gen_frame(spec).samples, reference_gen_ofdm(spec).samples
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_matches_per_symbol_loop_on_shipped_config(self):
        spec = load_config(CONFIGS / "ofdm_20mhz.cfg").signal
        a, b = gen_frame(spec).samples, reference_gen_ofdm(spec).samples
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
