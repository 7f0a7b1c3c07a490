from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdsic.channel import (MAX_DELAY_FRACTION, MAX_POWER_DB, SPEED_OF_LIGHT, ChannelTap,
                           MultipathChannel,
                           ReceiverImpairments, _delayed, apply_channel, fractional_delay,
                           impair)
from fdsic.config import ChannelConfig, load_config
from fdsic.oracle import resample_delay_reference
from fdsic.signals import BasebandSignal, SignalSpec, gen_frame
from fdsic.taylor import taylor_coeffs, total_error_budget
from reference import PathLossModel, path_loss
from test_harness import CHANNEL_COMMON, CHANNEL_GEOMETRY

FS = 80e6
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bandlimited_noise(n, fs, frac=0.1, seed=0):
    """Periodic noise occupying |f| <= frac * fs, unit power."""
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(n, dtype=complex)
    freqs = np.fft.fftfreq(n, 1 / fs)
    mask = np.abs(freqs) <= frac * fs
    spectrum[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    x = np.fft.ifft(spectrum)
    x /= np.sqrt(np.mean(np.abs(x) ** 2))
    return BasebandSignal(x, fs)


def _reflector_gains(distances_m) -> list:
    """Tap amplitude of each reflector, in the order given, of the default
    channel without its circulator tap (taps are sorted by gain, so they are
    matched by delay)."""
    taps = ChannelConfig(reflector_distances_m=tuple(distances_m),
                         circulator_gain_db=None).build().taps
    by_delay = {t.delay_s: t.gain for t in taps}
    return [by_delay[2.0 * d / SPEED_OF_LIGHT] for d in distances_m]


CAP_AMPLITUDE = float(np.sqrt(10.0 ** (ChannelConfig.pathloss_cap_db / 10.0)))


class TestPathLoss:
    def test_calibration_point(self):
        # a reflector at 0.125 m has the 0.25 m round trip of the calibration
        [gain] = _reflector_gains([0.125])
        assert 20 * np.log10(gain) == pytest.approx(-30.0, abs=1e-9)

    def test_quartic_law_below_cap(self):
        near, far = _reflector_gains([0.5, 1.0])
        assert (far / near) ** 2 == pytest.approx(1 / 16, rel=1e-12)

    def test_non_increasing(self):
        gains = _reflector_gains(np.linspace(0.005, 2.5, 200))
        assert all(a >= b for a, b in zip(gains, gains[1:]))
        assert max(gains) <= CAP_AMPLITUDE

    @pytest.mark.parametrize("d", [1e-100, 1e-300])
    def test_distance_whose_law_overflows_returns_cap(self, d):
        # (2d)^-4 is beyond the float range, and min(cap, k (2d)^-alpha) is the cap
        assert _reflector_gains([d]) == [CAP_AMPLITUDE]

    def test_rejects_shallow_exponent(self):
        with pytest.raises(ValueError, match="^pathloss_alpha = 2.0 must exceed 2$"):
            ChannelConfig(pathloss_alpha=2.0)


def _taps_from_geometry(distances_m, model: PathLossModel, carrier_hz: float,
                        extra_taps=()) -> MultipathChannel:
    """The geometry channel as made before ChannelConfig.build made it itself:
    per reflector, round trip 2d, tau = 2d/c, amplitude sqrt(loss(2d)), after
    the extra taps (the circulator leakage) as given."""
    taps = list(extra_taps)
    for d in distances_m:
        if d <= 0:
            raise ValueError(f"reflector_distances_m = {d} must be positive")
        rt = 2.0 * d
        gain = float(np.sqrt(path_loss(model, rt)))
        if gain == 0.0:  # k (2d)^-alpha underflowed
            raise ValueError(f"reflector_distances_m = {d} is out of range")
        taps.append(ChannelTap(gain=gain, delay_s=rt / SPEED_OF_LIGHT))
    return MultipathChannel(taps=tuple(taps), carrier_hz=carrier_hz)


# the channel of every drawn config that describes reflector geometry
GEOMETRY_CHANNELS = st.builds(lambda common, geometry: ChannelConfig(**common, **geometry),
                              CHANNEL_COMMON, CHANNEL_GEOMETRY)


class TestTapsFromGeometry:
    def test_reflector_delay_830ps(self):
        ch = ChannelConfig(reflector_distances_m=(0.125,), circulator_gain_db=None).build()
        assert ch.taps[0].delay_s == pytest.approx(0.25 / SPEED_OF_LIGHT)
        assert ch.taps[0].delay_s == pytest.approx(830e-12, rel=0.01)

    def test_circulator_only(self):
        ch = ChannelConfig(reflector_distances_m=()).build()  # -18 dB at 0.5 ns
        assert len(ch.taps) == 1
        assert ch.taps[0].gain == pytest.approx(10 ** (-18 / 20))

    def test_equal_distances_stable_order(self):
        ch = ChannelConfig(reflector_distances_m=(0.2, 0.2), circulator_gain_db=None).build()
        assert ch.taps[0].gain == ch.taps[1].gain
        assert ch.taps[0].delay_s == ch.taps[1].delay_s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(reflector_distances_m=(), circulator_gain_db=None).build()

    @settings(max_examples=200, deadline=None)
    @given(ch=GEOMETRY_CHANNELS)
    def test_build_equals_the_former_geometry_channel(self, ch):
        # tap for tap: gain, delay, order after the sort; and the transmit amplitude
        extra = () if ch.circulator_gain_db is None else (ChannelTap(
            gain=10.0 ** (ch.circulator_gain_db / 20.0), delay_s=ch.circulator_delay_ns * 1e-9),)
        model = PathLossModel(  # the constants as build computes them
            cap_delta=10.0 ** (ch.pathloss_cap_db / 10.0),
            k_const=10.0 ** (ch.pathloss_calib_db / 10.0)
            * ch.pathloss_calib_distance_m ** ch.pathloss_alpha, alpha=ch.pathloss_alpha)
        want = _taps_from_geometry(ch.reflector_distances_m, model, ch.carrier_hz, extra_taps=extra)
        got = ch.build()
        assert [(t.gain, t.delay_s) for t in got.taps] == [(t.gain, t.delay_s) for t in want.taps]
        assert (ch.tx_amplitude, got.carrier_hz) == (
            np.sqrt(10.0 ** (ch.tx_gain_db / 10.0)), want.carrier_hz)

    def test_taps_sorted_by_gain(self, default_channel):
        gains = [t.gain for t in default_channel.taps]
        assert gains == sorted(gains, reverse=True)


class TestChannelHoldsNoPower:
    """The channel is H(f) at unit transmit power; tx_gain_db only scales what is sent."""

    @pytest.mark.parametrize("g", [-MAX_POWER_DB, 0.0, 7.5, MAX_POWER_DB])
    def test_channel_and_its_model_do_not_depend_on_tx_gain(self, g):
        x = bandlimited_noise(4096, FS, seed=4)
        unit, ch = ChannelConfig().build(), ChannelConfig(tx_gain_db=g).build()
        assert apply_channel(ch, x).samples.tobytes() == apply_channel(unit, x).samples.tobytes()
        # repr tells -0.0 from 0.0
        assert repr(taylor_coeffs(ch, 2)) == repr(taylor_coeffs(unit, 2))
        assert repr(total_error_budget(ch, 1 / (np.pi * 20e6), 1)) == repr(
            total_error_budget(unit, 1 / (np.pi * 20e6), 1))

    @settings(max_examples=200, deadline=None)
    @given(g=st.floats(-MAX_POWER_DB, MAX_POWER_DB))
    def test_tx_amplitude_is_sqrt_of_the_power_gain(self, g):
        amp = ChannelConfig(tx_gain_db=g).tx_amplitude
        assert type(amp) is float
        assert repr(amp) == repr(float(np.sqrt(10.0 ** (g / 10.0))))


class TestFractionalDelay:
    def test_zero_delay_identity(self):
        x = bandlimited_noise(4096, FS)
        y = fractional_delay(x, 0.0)
        assert np.max(np.abs(y.samples - x.samples)) <= 1e-12

    def test_zero_delay_returns_its_input(self):
        # impair passes every offset here, so a zero offset must skip the
        # FFT round trip and leave the received samples bit for bit
        x = bandlimited_noise(4096, FS, seed=2)
        assert fractional_delay(x, 0.0) is x

    def test_integer_delay_is_circular_shift(self):
        x = bandlimited_noise(4096, FS, seed=3)
        y = fractional_delay(x, 5 / FS)
        assert np.max(np.abs(y.samples - np.roll(x.samples, 5))) <= 1e-9

    def test_tone_phase(self):
        f0 = 1.25e6
        n = np.arange(8192)
        tone = BasebandSignal(np.exp(2j * np.pi * f0 * n / FS), FS)
        tau = 3.7e-9
        y = fractional_delay(tone, tau)
        expected = tone.samples * np.exp(-2j * np.pi * f0 * tau)
        assert np.max(np.abs(y.samples - expected)) <= 1e-10

    def test_composition(self):
        x = bandlimited_noise(4096, FS, seed=5)
        t1, t2 = 0.8e-9, 2.3e-9
        a = fractional_delay(fractional_delay(x, t1), t2)
        b = fractional_delay(x, t1 + t2)
        rel = np.max(np.abs(a.samples - b.samples)) / np.max(np.abs(b.samples))
        assert rel <= 1e-10

    def test_excessive_delay_rejected(self):
        x = bandlimited_noise(1024, FS)
        with pytest.raises(ValueError, match="10%"):
            fractional_delay(x, 0.2 * x.duration_s)

    def test_matches_reference_resampler_on_fine_grid(self):
        spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=2,
                          ofdm_fft_size=512, ofdm_used_carriers=300, seed=21)
        x = gen_frame(spec)
        tau = 23 / (64 * x.sample_rate_hz)
        a = fractional_delay(x, tau)
        b = resample_delay_reference(x, tau)
        resid = np.mean(np.abs(a.samples - b.samples) ** 2) / x.mean_power
        assert 10 * np.log10(resid + 1e-300) <= -100.0


def exp_ramp_delayed(X, freqs, delay_s):
    """The np.exp phase ramp _delayed replaced, kept as its oracle. Written
    as it was: X * np.exp(...) could multiply with the operands swapped
    (numpy reuses the temporary's buffer), which rounds differently."""
    ramp = np.exp(-2j * np.pi * freqs * delay_s)
    return np.fft.ifft(np.multiply(X, ramp, out=ramp))


def full_grid_delayed(X, freqs, delay_s):
    """The full-grid cos/sin ramp that _delayed's half-spectrum mirror
    replaced, kept as its oracle."""
    theta = 0.0 - (2 * np.pi * freqs) * delay_s
    ramp = np.empty(len(freqs), dtype=np.complex128)
    np.cos(theta, out=ramp.real)
    np.sin(theta, out=ramp.imag)
    return np.fft.ifft(np.multiply(X, ramp, out=ramp))


def assert_bitwise_equal(a, b):
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestDelayRamp:
    """_delayed builds its ramp from np.cos and np.sin of the real phase;
    the delayed frame must equal the np.exp ramp's bit for bit (compared as
    integers, so a zero's sign counts)."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5000), fs=st.floats(1e3, 1e10), delay_frac=st.floats(-1.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_exp_ramp(self, n, fs, delay_frac, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        delay_s = delay_frac * MAX_DELAY_FRACTION * n / fs  # within 10 % of the frame, either sign
        a, b = _delayed(X, freqs, delay_s), exp_ramp_delayed(X, freqs, delay_s)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("delay_s", [1.3e-9, -1.3e-9])
    def test_matches_exp_ramp_on_negative_zero_spectrum(self, delay_s):
        # -0 - 0j bins keep the sign of the DC phase's zero in the product
        X = np.full(64, complex(-0.0, -0.0))
        freqs = np.fft.fftfreq(64, d=1.0 / FS)
        a, b = _delayed(X, freqs, delay_s), exp_ramp_delayed(X, freqs, delay_s)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("name", ["ofdm_20mhz.cfg", "single_carrier_10mhz.cfg"])
    def test_matches_exp_ramp_on_shipped_taps(self, name):
        cfg = load_config(CONFIGS / name)
        x = gen_frame(cfg.signal)
        freqs = np.fft.fftfreq(len(x), d=1.0 / x.sample_rate_hz)
        X = np.fft.fft(x.samples)
        for tap in cfg.channel.build().taps:
            a, b = _delayed(X, freqs, tap.delay_s), exp_ramp_delayed(X, freqs, tap.delay_s)
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    # _delayed computes cos/sin on bins 0..n//2 and mirrors the rest; the
    # full-grid ramp it replaced must give the same bits
    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=150, deadline=None)
    @given(half=st.integers(0, 3000), fs=st.floats(1e3, 1e10), delay_frac=st.floats(-1.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_grid_ramp(self, parity, half, fs, delay_frac, seed):
        n = max(2 * half + parity, 1)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        delay_s = delay_frac * MAX_DELAY_FRACTION * n / fs
        assert_bitwise_equal(_delayed(X, freqs, delay_s), full_grid_delayed(X, freqs, delay_s))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("delay_s", [0.0, 5e-324, 1.3e-9, -1.3e-9])
    def test_matches_full_grid_ramp_on_tiny_frames(self, n, delay_s):
        # a zero or underflowing delay gives theta = +0 on every bin; the
        # mirror must keep +0 there, so a -0 spectrum shows a wrong sign
        freqs = np.fft.fftfreq(n, d=1.0 / FS)
        for X in (np.arange(1, n + 1) * (1 - 2j), np.full(n, complex(-0.0, -0.0))):
            assert_bitwise_equal(_delayed(X, freqs, delay_s), full_grid_delayed(X, freqs, delay_s))

    @pytest.mark.parametrize("n", [2, 64, 55_296])
    def test_matches_full_grid_ramp_at_nyquist(self, n):
        # a unit spectrum at bin n/2 isolates the Nyquist bin of the ramp,
        # the one even-n bin computed directly but not mirrored
        X = np.zeros(n, dtype=np.complex128)
        X[n // 2] = 1.0
        freqs = np.fft.fftfreq(n, d=1.0 / FS)
        for delay_s in (1.3e-9, -0.7e-9, 0.2 * n / FS * MAX_DELAY_FRACTION):
            assert_bitwise_equal(_delayed(X, freqs, delay_s), full_grid_delayed(X, freqs, delay_s))

    @pytest.mark.parametrize("name", ["ofdm_20mhz.cfg", "single_carrier_10mhz.cfg"])
    def test_matches_full_grid_ramp_on_shipped_taps(self, name):
        cfg = load_config(CONFIGS / name)
        x = gen_frame(cfg.signal)
        freqs = np.fft.fftfreq(len(x), d=1.0 / x.sample_rate_hz)
        X = np.fft.fft(x.samples)
        for tap in cfg.channel.build().taps:
            assert_bitwise_equal(_delayed(X, freqs, tap.delay_s),
                                 full_grid_delayed(X, freqs, tap.delay_s))

    @pytest.mark.parametrize("n, fs", [(9_216, 80e6), (55_296, 80e6), (48_000, 40e6),
                                       (4_097, 1e3)])
    def test_mirror_identities_on_fftfreq_grids(self, n, fs):
        """The mirror's premises, bit for bit: fftfreq is antisymmetric, so
        theta[n-k] = -theta[k]; numpy's float64 cos is even and sin odd. A
        numpy or libm build that breaks one fails here by name."""
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        k = np.arange(1, (n + 1) // 2)  # the mirrored bins; an even n's Nyquist bin is its own
        assert_bitwise_equal(freqs[n - k], -freqs[k])
        for delay_s in (1.3e-9, -2.9e-9, 1e-3 / fs, 0.09 * n / fs):
            theta = 0.0 - (2 * np.pi * freqs) * delay_s
            assert_bitwise_equal(theta[n - k], -theta[k])
            assert_bitwise_equal(np.cos(-theta), np.cos(theta))
            assert_bitwise_equal(np.sin(-theta), -np.sin(theta))


class TestApplyChannel:
    def test_identity_tap(self):
        x = bandlimited_noise(4096, FS)
        ch = MultipathChannel(taps=(ChannelTap(1.0, 0.0),), carrier_hz=2.4e9)
        y = apply_channel(ch, x)
        assert np.max(np.abs(y.samples - x.samples)) <= 1e-12

    def test_single_tap_power_scaling(self):
        x = bandlimited_noise(8192, FS, seed=2)
        a = 0.2
        ch = MultipathChannel(taps=(ChannelTap(a, 1.3e-9),), carrier_hz=2.4e9)
        y = apply_channel(ch, BasebandSignal(np.sqrt(2.0) * x.samples, FS))  # at power gain 2
        assert y.mean_power == pytest.approx(a**2 * 2.0 * x.mean_power, rel=1e-9)

    def test_canceling_tap_pair(self):
        # gains are positive, so opposite per-tap phasors need delays half a
        # carrier cycle apart; a zero-bandwidth signal isolates the phasor
        # sum (any delay of a constant is the same constant)
        fc = 2.4e9
        tau = 0.9e-9
        tau2 = tau + 0.5 / fc
        x = BasebandSignal(np.ones(4096, dtype=complex), FS)
        ch = MultipathChannel(taps=(ChannelTap(1.0, tau), ChannelTap(1.0, tau2)),
                              carrier_hz=fc)
        y = apply_channel(ch, x)
        assert 10 * np.log10(y.mean_power / x.mean_power + 1e-300) <= -120.0

    @staticmethod
    def per_tap_sum(channel, x):
        """The per-tap fractional_delay sum apply_channel replaced, kept as
        its oracle. It checks the tap sum only: fractional_delay and
        apply_channel share _delayed, so it does not guard the ramp
        (TestDelayRamp does)."""
        acc = np.zeros(len(x), dtype=np.complex128)
        for tap in channel.taps:
            phase = np.exp(-2j * np.pi * channel.carrier_hz * tap.delay_s)
            acc += tap.gain * phase * fractional_delay(x, tap.delay_s).samples
        return acc

    @pytest.mark.parametrize("name", ["ofdm_20mhz.cfg", "single_carrier_10mhz.cfg"])
    def test_equals_per_tap_delay_sum_on_shipped_configs(self, name):
        cfg = load_config(CONFIGS / name)
        x = gen_frame(cfg.signal)
        ch = cfg.channel.build()
        assert np.array_equal(apply_channel(ch, x).samples, self.per_tap_sum(ch, x))

    def test_equals_per_tap_delay_sum_with_zero_delay_tap(self):
        x = bandlimited_noise(4096, FS, seed=3)
        x = BasebandSignal(np.sqrt(2.0) * x.samples, FS)  # at transmit power gain 2
        ch = MultipathChannel(taps=(ChannelTap(0.5, 0.0), ChannelTap(0.3, 1.1e-9),
                                    ChannelTap(0.1, 2.7e-9)), carrier_hz=2.4e9)
        assert np.array_equal(apply_channel(ch, x).samples, self.per_tap_sum(ch, x))

    def test_tap_delay_beyond_tenth_of_frame_rejected(self):
        x = bandlimited_noise(1024, FS)
        ch = MultipathChannel(taps=(ChannelTap(1.0, 0.0),
                                    ChannelTap(0.1, 0.11 * x.duration_s)), carrier_hz=2.4e9)
        for run in (apply_channel, self.per_tap_sum):
            with pytest.raises(ValueError, match="delay exceeds 10% of the signal duration"):
                run(ch, x)

    def test_carrier_bandwidth_guard(self):
        x = bandlimited_noise(1024, FS)
        ch = MultipathChannel(taps=(ChannelTap(1.0, 0.0),), carrier_hz=100e6)
        with pytest.raises(ValueError, match="carrier"):
            apply_channel(ch, x)

    def test_carrier_guard_names_the_sample_rate_bound(self):
        # 20 MHz x 8 = 160 MHz: 300 MHz clears ten bandwidths but not 2.5 x fs
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, oversampling=8,
                                num_symbols=1, seed=1))
        ch = MultipathChannel(taps=(ChannelTap(1.0, 0.0),), carrier_hz=300e6)
        with pytest.raises(ValueError, match=r"^carrier_hz = 3e\+08 must be at least "
                                             r"2\.5 x the sample rate, 4e\+08 Hz$"):
            apply_channel(ch, x)


@given(alpha=st.complex_numbers(min_magnitude=1e-3, max_magnitude=3.0,
                                allow_nan=False, allow_infinity=False),
       beta=st.complex_numbers(min_magnitude=1e-3, max_magnitude=3.0,
                               allow_nan=False, allow_infinity=False))
@settings(max_examples=10, deadline=None)
def test_apply_channel_linearity(alpha, beta, default_channel):
    x = bandlimited_noise(2048, FS, seed=7)
    y = bandlimited_noise(2048, FS, seed=8)
    mix = BasebandSignal(alpha * x.samples + beta * y.samples, FS)
    lhs = apply_channel(default_channel, mix).samples
    rhs = (alpha * apply_channel(default_channel, x).samples
           + beta * apply_channel(default_channel, y).samples)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-10


class TestImpair:
    def test_all_off_identity(self):
        x = bandlimited_noise(2048, FS)
        y = impair(x, ReceiverImpairments(), seed=0)
        assert np.array_equal(y.samples, x.samples)

    def test_noise_power(self):
        zero = BasebandSignal(np.full(200_000, 1e-30, dtype=complex), FS)
        p = 0.37
        y = impair(zero, ReceiverImpairments(noise_power=p), seed=1)
        assert y.mean_power == pytest.approx(p, rel=0.05)

    def test_adc_sqnr_tone(self):
        n = np.arange(200_000)
        tone = BasebandSignal(np.exp(2j * np.pi * 0.011 * n), 1.0)
        bits = 12
        y = impair(tone, ReceiverImpairments(adc_bits=bits), seed=0)
        noise = y.samples - tone.samples
        sqnr = 10 * np.log10(tone.mean_power / np.mean(np.abs(noise) ** 2))
        # loading at 4x RMS costs 20 log10(4) relative to a full-scale rail
        expected = 6.02 * bits + 1.76 - 20 * np.log10(4.0)
        assert abs(sqnr - expected) <= 3.0

    def test_sample_offset_applied(self):
        x = bandlimited_noise(4096, FS, seed=9)
        dt = 2.0e-9
        y = impair(x, ReceiverImpairments(sample_offset=dt), seed=0)
        ref = fractional_delay(x, dt)
        assert np.max(np.abs(y.samples - ref.samples)) <= 1e-12

    def test_adc_bits_validation(self):
        with pytest.raises(ValueError):
            ReceiverImpairments(adc_bits=2)
