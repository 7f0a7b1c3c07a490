import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdsic import digital
from fdsic.channel import ChannelTap, MultipathChannel, apply_channel
from fdsic.signals import BasebandSignal
from fdsic.taylor import MAX_ORDER, taylor_coeffs, total_error_budget

FC = 2.395e9


def single_tap_channel(gain=1.0, delay=0.0, fc=FC):
    return MultipathChannel(taps=(ChannelTap(gain, delay),), carrier_hz=fc)


def brute_force_coeff(taps, fc, n):
    """Independent re-summation with python scalars and math module."""
    import cmath
    import math
    total = 0j
    for gain, delay in taps:
        total += (gain * delay**n / math.factorial(n)
                  * cmath.exp(-2j * math.pi * fc * delay))
    return total


class TestTaylorCoeffs:
    def test_single_tap_identity(self):
        coeffs = taylor_coeffs(single_tap_channel(1.0, 0.0), 3)
        assert coeffs[0] == pytest.approx(1.0)
        for c in coeffs[1:]:
            assert abs(c) == 0.0

    def test_single_tap_magnitudes(self):
        a, tau = 0.3, 1.7e-9
        coeffs = taylor_coeffs(single_tap_channel(a, tau), 4)
        import math
        for n, c in enumerate(coeffs):
            assert abs(c) == pytest.approx(a * tau**n / math.factorial(n), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        taps = [(rng.uniform(0.01, 1.0), rng.uniform(0.1e-9, 3e-9)) for _ in range(2)]
        ch = MultipathChannel(taps=tuple(ChannelTap(g, d) for g, d in taps),
                              carrier_hz=FC)
        coeffs = taylor_coeffs(ch, 2)
        for n in range(3):
            ref = brute_force_coeff(taps, FC, n)
            assert abs(coeffs[n] - ref) <= 1e-15 * max(abs(ref), 1e-15)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            taylor_coeffs(single_tap_channel(), 5)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match=f"order must be in \\[0, {MAX_ORDER}\\]"):
            taylor_coeffs(single_tap_channel(), -1)

    def test_plain_tuple_of_complex(self):
        coeffs = taylor_coeffs(single_tap_channel(0.3, 1.7e-9), MAX_ORDER)
        assert type(coeffs) is tuple and len(coeffs) == MAX_ORDER + 1
        assert all(type(c) is complex for c in coeffs)


@given(delays=st.lists(st.floats(0.1e-9, 3e-9), min_size=1, max_size=4),
       gains=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
@settings(max_examples=25, deadline=None)
def test_conjugate_symmetry(delays, gains):
    taps = tuple(ChannelTap(g, d) for g, d in zip(gains, delays))
    plus = taylor_coeffs(MultipathChannel(taps=taps, carrier_hz=FC), 3)
    # conjugated phase factors: evaluate with f_c -> -f_c via direct sum
    import cmath
    import math
    for n in range(4):
        conj_ref = sum(t.gain * t.delay_s**n / math.factorial(n)
                       * cmath.exp(+2j * math.pi * FC * t.delay_s) for t in taps)
        assert abs(plus[n].conjugate() - conj_ref) <= 1e-14 * max(abs(conj_ref), 1e-20)


def periodic_flat_noise(n, fs, half_band_hz, seed=0):
    """Unit-power periodic noise flat over |f| <= half_band_hz, plus its
    exact spectral derivatives."""
    rng = np.random.default_rng(seed)
    freqs = np.fft.fftfreq(n, 1 / fs)
    spectrum = np.zeros(n, dtype=complex)
    mask = np.abs(freqs) <= half_band_hz
    spectrum[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    x = np.fft.ifft(spectrum)
    scale = np.sqrt(np.mean(np.abs(x) ** 2))
    spectrum /= scale
    x = x / scale
    d1 = np.fft.ifft(spectrum * (2j * np.pi * freqs))
    d2 = np.fft.ifft(spectrum * (2j * np.pi * freqs) ** 2)
    return x, d1, d2


class TestReconstruct:
    """The model SI reconstructed from taylor_coeffs' C0, C1 by digital.model over
    the columns (x, -x'): the paper's first-order model, against the true channel."""

    def test_single_tap_first_order_error_within_bound(self):
        # periodic noise whose angular band 1/T matches the spectral
        # occupancy assumed by the sinc-pulse bound
        fs = 80e6
        W = 20e6
        T = 1 / W
        half_band = 1 / (2 * np.pi * T)
        xs, d1, _ = periodic_flat_noise(65536, fs, half_band, seed=12)
        x = BasebandSignal(xs, fs)
        tau = 0.01 * T
        ch = single_tap_channel(1.0, tau, fc=2.395e9)
        truth = apply_channel(ch, x)
        model = digital.model([xs, -d1], taylor_coeffs(ch, 1))
        err = np.mean(np.abs(truth.samples - model) ** 2)
        assert err <= total_error_budget(ch, T, 1).total_bound


def one_tap_bound(tap, symbol_T):
    """First-order budget of a channel holding only `tap`: the per-tap
    bound 0.075 a^2 (tau/T)^4."""
    ch = MultipathChannel(taps=(tap,), carrier_hz=FC)
    return total_error_budget(ch, symbol_T, 1).total_bound


class TestLemmaBound:
    def test_reference_value(self):
        assert one_tap_bound(ChannelTap(1.0, 0.01), 1.0) == pytest.approx(7.5e-10)

    def test_zero_delay(self):
        assert one_tap_bound(ChannelTap(1.0, 0.0), 1.0) == 0.0

    def test_quartic_scaling(self):
        b1 = one_tap_bound(ChannelTap(1.0, 1e-9), 1e-7)
        b2 = one_tap_bound(ChannelTap(1.0, 2e-9), 1e-7)
        assert b2 / b1 == pytest.approx(16.0)

    def test_rejects_bad_T(self):
        with pytest.raises(ValueError):
            one_tap_bound(ChannelTap(1.0, 1e-9), 0.0)


class TestTotalErrorBudget:
    def test_additivity_order1(self, default_channel):
        T = 1 / 20e6
        budget = total_error_budget(default_channel, T, 1)
        direct = sum(one_tap_bound(t, T) for t in default_channel.taps)
        assert budget.total_bound == pytest.approx(direct, rel=1e-12)

    def test_ct_minus4_reference(self):
        # (cT)^-4 for T = 50 ns is about -47 dB
        c = 299792458.0
        T = 50e-9
        assert 10 * np.log10((c * T) ** -4) == pytest.approx(-47.0, abs=0.1)

    def test_unsupported_order(self, default_channel):
        # only the first-order model has a budget
        for order in (2, 3):
            with pytest.raises(ValueError, match="^order must be 1$"):
                total_error_budget(default_channel, 1e-7, order)
