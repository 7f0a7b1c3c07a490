import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdsic import rfstage
from fdsic.channel import ChannelTap, MultipathChannel, apply_channel
from fdsic.config import ExperimentConfig, load_config
from fdsic.metrics import psd, slope_diagnostic
from fdsic.rfstage import (DetectorConfig, VmState, combine, detector_env,
                           power_detect, rf_stage, tune, vm_apply)
from fdsic.signals import SignalSpec, gen_frame, gen_single_carrier, make_signal
from fdsic.taylor import taylor_coeffs

FC = 2.395e9
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("ofdm_20mhz.cfg", "single_carrier_10mhz.cfg")


def tone(n=32768, fs=80e6, f0=1.1e6):
    t = np.arange(n) / fs
    return make_signal(np.exp(2j * np.pi * f0 * t), fs)


def narrowband_training_signal(w_hz=1e6, nsym=4096, seed=5):
    spec = SignalSpec(kind="single-carrier", bandwidth_hz=w_hz, oversampling=4,
                      num_symbols=nsym, pulse="sinc", seed=seed)
    return gen_single_carrier(spec)


@functools.lru_cache(maxsize=1)
def shipped_tuning_inputs(name, seed, tx_gain_db=0.0):
    """(config, SI, VM tap, detector config) of a shipped config's frame at
    a signal seed, as rf_stage builds them. Cached because the property test
    asks for the same inputs on every example."""
    cfg = load_config(CONFIGS / name)
    x = gen_frame(dataclasses.replace(cfg.signal, seed=seed))
    ch = dataclasses.replace(cfg.channel, tx_gain_db=tx_gain_db).build()
    tap = make_signal(np.sqrt(ch.tx_gain) * x.samples, x.sample_rate_hz)
    det = DetectorConfig(window_samples=cfg.detector_window,
                         symbol_samples=cfg.signal.oversampling)
    return cfg, apply_channel(ch, x), tap, det


def slow_env(si, tap, det):
    """The detector reading built sample by sample: the reference for
    detector_env."""
    return lambda state: power_detect(combine(si, vm_apply(state, tap)), det)


class TestVmApply:
    def test_unity_gain_identity(self):
        x = tone(4096)
        y = vm_apply(VmState(1.0, 0.0, bits=16), x)
        step = 2.0 / (1 << 16)
        assert np.max(np.abs(y.samples - x.samples)) <= 1.5 * step * np.max(np.abs(x.samples))

    def test_quadrature_rotation(self):
        x = tone(4096)
        y = vm_apply(VmState(0.0, 1.0, bits=16), x)
        step = 2.0 / (1 << 16)
        assert np.max(np.abs(y.samples - 1j * x.samples)) <= 1.5 * step * np.max(np.abs(x.samples))

    @settings(max_examples=300, deadline=None)
    @given(v=st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, -0.0, -1e-300])),
           half=st.integers(-(1 << 12), 1 << 12), bits=st.integers(1, 24))
    def test_quantize_matches_numpy_rounding(self, v, half, bits):
        step = 2.0 / (1 << bits)
        for u in (v, (half + 0.5) * step):  # an arbitrary value and a tie
            ref = float(np.clip(np.round(u / step) * step, -1.0, 1.0 - step))
            got = rfstage._quantize(u, bits)
            assert (got, math.copysign(1.0, got)) == (ref, math.copysign(1.0, ref))

    def test_grid_contains_zero_exactly(self):
        s = VmState(0.0, 0.0, bits=16).quantized()
        assert s.g1 == 0.0 and s.g2 == 0.0

    def test_beta_theta(self):
        s = VmState(0.5, 0.5, bits=16)
        assert s.beta == pytest.approx(np.sqrt(0.5), rel=1e-4)
        assert s.theta == pytest.approx(np.pi / 4, rel=1e-4)

    def test_minus_c0_cancels_single_tap(self):
        x = narrowband_training_signal(w_hz=1e6)
        ch = MultipathChannel(taps=(ChannelTap(10 ** (-18 / 20), 0.2e-9),),
                              carrier_hz=FC)
        si = apply_channel(ch, x)
        c0 = taylor_coeffs(ch, 0).coeffs[0]
        out = combine(si, vm_apply(VmState(-c0.real, -c0.imag, bits=16), x))
        drop = 10 * np.log10(si.mean_power / out.mean_power)
        assert drop >= 60.0


class TestCombine:
    def test_cancellation(self):
        x = tone(2048)
        minus = make_signal(-x.samples, x.sample_rate_hz)
        assert np.max(np.abs(combine(x, minus).samples)) == 0.0

    def test_zero_addition(self):
        x = tone(2048)
        zero = make_signal(np.full(2048, 1e-300, dtype=complex), x.sample_rate_hz)
        assert np.max(np.abs(combine(x, zero).samples - x.samples)) <= 1e-299

    def test_independent_powers_add(self):
        rng = np.random.default_rng(0)
        a = make_signal(rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000), 1.0)
        b = make_signal(rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000), 1.0)
        total = combine(a, b).mean_power
        assert abs(10 * np.log10(total / (a.mean_power + b.mean_power))) <= 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combine(tone(1024), tone(512))


class TestPowerDetect:
    CFG = DetectorConfig(window_samples=16384, symbol_samples=4)

    def test_zero_input(self):
        zero = make_signal(np.full(20000, 1e-300, dtype=complex), 80e6)
        assert power_detect(zero, self.CFG) <= 1e-200

    def test_unit_power_reads_two(self):
        assert power_detect(tone(32768), self.CFG) == pytest.approx(2.0, rel=1e-9)

    def test_residual_formula(self):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=2))
        c0 = 0.05 - 0.02j
        v = 0.01 + 0.03j
        resid = make_signal((c0 + v) * x.samples, x.sample_rate_hz)
        reading = power_detect(resid, DetectorConfig(window_samples=49152, symbol_samples=4))
        assert reading == pytest.approx(2 * abs(c0 + v) ** 2, rel=0.02)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            power_detect(tone(1000), self.CFG)

    def test_window_floor_validated(self):
        with pytest.raises(ValueError):
            DetectorConfig(window_samples=100, symbol_samples=4)


class TestTune:
    def test_quadratic_bowl_exact(self):
        bits = 10
        step = 2.0 / (1 << bits)
        target = (37 * step, -101 * step)

        def env(s):
            return (s.g1 - target[0]) ** 2 + (s.g2 - target[1]) ** 2

        res = tune(env, VmState(0.0, 0.0, bits=bits), budget=2000)
        assert res.converged
        assert (res.state.g1, res.state.g2) == pytest.approx(target, abs=1e-12)

    def test_constant_env_returns_init(self):
        res = tune(lambda s: 1.0, VmState(0.25, -0.5, bits=8), budget=500)
        assert res.converged
        assert (res.state.g1, res.state.g2) == (0.25, -0.5)
        assert res.detector_readings == (1.0,)

    def test_never_worse_than_init(self):
        rng = np.random.default_rng(3)

        def env(s):
            return float(np.sin(20 * s.g1) ** 2 + np.cos(17 * s.g2 + 1) ** 2)

        init = VmState(0.125, 0.125, bits=8)
        res = tune(env, init, budget=300)
        assert env(res.state) <= env(init.quantized()) + 1e-15

    def test_readings_non_increasing(self):
        def env(s):
            return (s.g1 - 0.3) ** 2 + (s.g2 + 0.4) ** 2

        res = tune(env, VmState(0.0, 0.0, bits=12), budget=1000)
        r = res.detector_readings
        assert all(a >= b for a, b in zip(r, r[1:]))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            tune(lambda s: 0.0, VmState(0, 0), budget=0)

    def test_single_tap_pipeline_drop(self):
        x = narrowband_training_signal(w_hz=1e6)
        ch = MultipathChannel(taps=(ChannelTap(10 ** (-18 / 20), 0.2e-9),),
                              carrier_hz=FC)
        si = apply_channel(ch, x)
        cfg = DetectorConfig(window_samples=16384, symbol_samples=4)

        def env(s):
            return power_detect(combine(si, vm_apply(s, x)), cfg)

        res = tune(env, VmState(0.0, 0.0, bits=16), budget=2000)
        untuned = env(VmState(0.0, 0.0, bits=16))
        assert 10 * np.log10(res.detector_readings[-1] / untuned) <= -60.0


class TestDetectorEnv:
    @settings(max_examples=200, deadline=None)
    @given(g1=st.floats(-1.0, 1.0), g2=st.floats(-1.0, 1.0), bits=st.integers(1, 24))
    def test_matches_power_detect(self, g1, g2, bits):
        _, si, tap, det = shipped_tuning_inputs(SHIPPED[0], 1, tx_gain_db=7.0)
        state = VmState(g1, g2, bits).quantized()
        assert detector_env(si, tap, det)(state) == pytest.approx(
            slow_env(si, tap, det)(state), rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_tune_path_matches_power_detect(self, name, seed):
        cfg, si, tap, det = shipped_tuning_inputs(name, seed)
        init = VmState(0.0, 0.0, cfg.vm_bits)
        fast = tune(detector_env(si, tap, det), init, cfg.tune_budget)
        slow = tune(slow_env(si, tap, det), init, cfg.tune_budget)
        assert (fast.state, fast.iterations, fast.converged, fast.accepted_states) == \
            (slow.state, slow.iterations, slow.converged, slow.accepted_states)
        assert fast.detector_readings == pytest.approx(slow.detector_readings, rel=1e-9)

    def test_short_si_rejected(self):
        with pytest.raises(ValueError, match="detector window"):
            detector_env(tone(1000), tone(1000), TestPowerDetect.CFG)


class TestRfStage:
    CFG = DetectorConfig(window_samples=16384, symbol_samples=4)

    def test_probes_build_no_signal(self, monkeypatch):
        # each probe is scalar arithmetic: only the final residual is built
        calls = dict.fromkeys(("combine", "vm_apply", "power_detect"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(rfstage, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(rfstage, name, counted)
        cfg = ExperimentConfig()
        det = DetectorConfig(window_samples=cfg.detector_window,
                             symbol_samples=cfg.signal.oversampling)
        _, res, _ = rf_stage(gen_frame(cfg.signal), cfg.channel.build(), cfg.vm_bits,
                             det, cfg.tune_budget)
        assert res.iterations > 1
        assert calls == {"combine": 1, "vm_apply": 1, "power_detect": 0}

    def test_returns_the_si(self, default_channel):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=1))
        _, _, si = rf_stage(x, default_channel, vm_bits=16, detector_cfg=self.CFG,
                            budget=50)
        assert np.array_equal(si.samples, apply_channel(default_channel, x).samples)

    def test_residual_slope_single_tap_ideal_bits(self):
        spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=4)
        x = gen_frame(spec)
        ch = MultipathChannel(taps=(ChannelTap(10 ** (-18 / 20), 0.8e-9),),
                              carrier_hz=FC)
        residual, _, _ = rf_stage(x, ch, vm_bits=24, detector_cfg=self.CFG, budget=2000)
        p = psd(residual, 4096)
        edge = (spec.ofdm_used_carriers / 2 + 3) / spec.ofdm_fft_size * spec.bandwidth_hz
        diag = slope_diagnostic(p, (0.05 * edge, 0.9 * edge))
        assert diag["r2"] >= 0.9

    def test_ofdm_20mhz_cancellation(self, default_channel):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=1))
        residual, res, _ = rf_stage(x, default_channel, vm_bits=16,
                                    detector_cfg=self.CFG, budget=1200)
        cancellation = -10 * np.log10(residual.mean_power)
        assert cancellation >= 50.0
        assert res.converged

    def test_bandwidth_trend(self, default_channel):
        drops = []
        for bw in (5e6, 10e6, 15e6, 20e6):
            x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=bw, num_symbols=12, seed=1))
            residual, _, _ = rf_stage(x, default_channel, vm_bits=16,
                                      detector_cfg=self.CFG, budget=1200)
            drops.append(-10 * np.log10(residual.mean_power))
        assert all(a > b for a, b in zip(drops, drops[1:]))

    def test_detector_floor_orthogonality(self, default_channel):
        # tuning adjusts only the scale of x, so the residual can never be
        # smaller than the component of the SI orthogonal to x
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=6))
        si = apply_channel(default_channel, x)
        residual, _, _ = rf_stage(x, default_channel, vm_bits=16,
                                  detector_cfg=self.CFG, budget=1200)
        proj = np.vdot(x.samples, si.samples) / np.vdot(x.samples, x.samples)
        floor = np.mean(np.abs(si.samples - proj * x.samples) ** 2)
        assert residual.mean_power >= floor * (1 - 1e-9)

    @pytest.mark.slow
    def test_quantization_monotonic_median(self, default_channel):
        medians = []
        for bits in (8, 12, 16):
            finals = []
            for seed in range(10):
                x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6,
                                         num_symbols=12, seed=seed))
                _, res, _ = rf_stage(x, default_channel, vm_bits=bits,
                                     detector_cfg=self.CFG, budget=1200)
                finals.append(res.detector_readings[-1])
            medians.append(float(np.median(finals)))
        assert medians[0] >= medians[1] >= medians[2]
