from pathlib import Path

import numpy as np
import pytest

from fdsic import harness
from fdsic.config import load_config
from fdsic.metrics import Psd, psd, slope_diagnostic, welch_segment
from fdsic.signals import BasebandSignal
from reference import welch_db

FS = 80e6
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def white_noise(n, power=1.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sqrt(power / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return BasebandSignal(x, FS)


class TestPsd:
    def test_tone_peak(self):
        f0 = 2.5e6
        n = np.arange(262144)
        x = BasebandSignal(np.exp(2j * np.pi * f0 * n / FS), FS)
        p = psd(x)
        peak_bin = np.argmax(p.power_db)
        assert abs(p.freqs_hz[peak_bin] - f0) <= FS / len(p.freqs_hz)
        floor = np.median(p.power_db)
        assert p.power_db[peak_bin] - floor >= 40.0

    def test_parseval(self):
        x = white_noise(524288, power=0.73, seed=1)
        p = psd(x)
        total = np.sum(10 ** (p.power_db / 10)) * FS / len(p.freqs_hz)
        assert total == pytest.approx(x.mean_power, rel=0.01)

    def test_white_noise_flat(self):
        # 511 half-overlapping Hann segments put the per-bin spread (~0.19 dB)
        # far inside the 1.5 dB envelope for every bin
        x = white_noise(4096 * 256, power=2.0, seed=3)
        p = psd(x)
        dev = p.power_db - 10 * np.log10(2.0 / FS)
        assert np.max(np.abs(dev)) <= 1.5

    def test_phase_rotation_invariance(self):
        x = white_noise(65536, seed=4)
        y = BasebandSignal(x.samples * np.exp(1j * 1.1), FS)
        pa, pb = psd(x), psd(y)
        assert np.allclose(pa.power_db, pb.power_db, atol=1e-9)

    def test_refuses_one_sample(self):
        with pytest.raises(ValueError, match="^psd needs at least 2 samples, got 1$"):
            psd(white_noise(1))

    def test_freqs_strictly_increasing(self):
        p = psd(white_noise(65536))
        assert np.all(np.diff(p.freqs_hz) > 0)

    @pytest.mark.parametrize("n, segment_len", [(3000, 2048), (51000, 4096)])
    def test_default_segment_is_welch_segment(self, n, segment_len):
        # below 4096 samples the largest power of two that fits, above it 4096
        assert welch_segment(n) == segment_len
        assert len(psd(white_noise(n, seed=n)).freqs_hz) == segment_len


def assert_equals_welch(x):
    p = psd(x)
    freqs, power_db = welch_db(x, welch_segment(len(x)))
    assert np.array_equal(p.freqs_hz, freqs)
    assert np.array_equal(p.power_db, power_db)


@pytest.fixture(scope="module")
def shipped_stage_signals():
    signals = {}
    for name in ("ofdm_20mhz.cfg", "single_carrier_10mhz.cfg"):
        res = harness.run_pipeline(load_config(CONFIGS / name))
        fs = res.x.sample_rate_hz
        signals[name, "pre"] = BasebandSignal(res.si.samples[res.eval_slice], fs)
        signals[name, "rf"] = BasebandSignal(res.rx.samples[res.eval_slice], fs)
        signals[name, "digital"] = res.canceled
    return signals


class TestWelchOracle:
    @pytest.mark.parametrize("stage", ["pre", "rf", "digital"])
    @pytest.mark.parametrize("name", ["ofdm_20mhz.cfg", "single_carrier_10mhz.cfg"])
    def test_shipped_stage_signals(self, shipped_stage_signals, name, stage):
        x = shipped_stage_signals[name, stage]
        assert welch_segment(len(x)) == 4096
        assert_equals_welch(x)

    # psd's segment is welch_segment(n): L for n = L (one segment) and for the
    # odd lengths L + 1 and 2L - 1 (a partial segment left unused); 3L + 5 and
    # 8L take 2L to 8L, at most 4096, so at L = 4096 they average 5 and 15 segments
    LENGTHS = {"L": lambda L: L, "L+1": lambda L: L + 1, "2L-1": lambda L: 2 * L - 1,
               "3L+5": lambda L: 3 * L + 5, "8L": lambda L: 8 * L}

    @pytest.mark.parametrize("L", [1 << k for k in range(1, 13)])
    @pytest.mark.parametrize("length", sorted(LENGTHS))
    def test_random_complex_signals(self, L, length):
        n = self.LENGTHS[length](L)
        rng = np.random.default_rng(L + n)
        for fs in (FS, 1.0, 30.72e6):
            x = BasebandSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), fs)
            assert_equals_welch(x)


def spectra_signal(shape, n=1 << 18, seed=5):
    """Periodic noise with amplitude spectrum |f|^shape over the band."""
    rng = np.random.default_rng(seed)
    freqs = np.fft.fftfreq(n, 1 / FS)
    spectrum = np.zeros(n, dtype=complex)
    mask = (np.abs(freqs) > 0) & (np.abs(freqs) <= 8e6)
    w = (rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum()))
    spectrum[mask] = w * np.abs(freqs[mask]) ** shape
    x = np.fft.ifft(spectrum)
    return BasebandSignal(x / np.sqrt(np.mean(np.abs(x) ** 2)), FS)


class TestSlopeDiagnostic:
    BAND = (4e5, 7e6)

    def test_derivative_shape(self):
        x = spectra_signal(1.0)
        d = slope_diagnostic(psd(x), self.BAND)
        assert d["r2"] >= 0.95
        assert d["slope_db_per_decade"] == pytest.approx(20.0, abs=3.0)

    def test_flat_shape(self):
        x = spectra_signal(0.0)
        d = slope_diagnostic(psd(x), self.BAND)
        assert abs(d["slope_db_per_decade"]) <= 2.0

    def test_amplitude_scale_invariance(self):
        x = spectra_signal(1.0, seed=6)
        y = BasebandSignal(x.samples * 123.0, FS)
        da = slope_diagnostic(psd(x), self.BAND)
        db = slope_diagnostic(psd(y), self.BAND)
        assert da["r2"] == pytest.approx(db["r2"], abs=1e-9)
        assert da["slope_db_per_decade"] == pytest.approx(db["slope_db_per_decade"], abs=1e-9)

    def test_frequency_scale_invariance(self):
        # at |f| ~ 1e-243 Hz np.polyfit on |f| itself fails; in units of f_hi it cannot
        p = psd(spectra_signal(1.0, seed=7))
        want = slope_diagnostic(p, self.BAND)
        got = slope_diagnostic(Psd(p.freqs_hz * 1e-250, p.power_db),
                               (self.BAND[0] * 1e-250, self.BAND[1] * 1e-250))
        assert got["r2"] == pytest.approx(want["r2"], abs=1e-12)
        assert got["slope_db_per_decade"] == pytest.approx(want["slope_db_per_decade"],
                                                           abs=1e-12)

    def test_band_validation(self):
        p = psd(white_noise(65536))
        with pytest.raises(ValueError):
            slope_diagnostic(p, (0.0, 1e6))
        with pytest.raises(ValueError):
            slope_diagnostic(p, (45e6, 50e6))


def test_psd_invariants_dataclass():
    with pytest.raises(ValueError):
        Psd(freqs_hz=np.array([0.0, 1.0]), power_db=np.array([0.0]))
    with pytest.raises(ValueError):
        Psd(freqs_hz=np.array([1.0, 0.0]), power_db=np.array([0.0, 0.0]))
