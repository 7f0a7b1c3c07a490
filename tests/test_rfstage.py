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
from fdsic.rfstage import (TUNE_INITIAL_STEP, DetectorConfig, TuneResult, VmState,
                           detector_env, power_detect, rf_stage, tune)
from fdsic.signals import BasebandSignal, SignalSpec, gen_frame
from fdsic.taylor import taylor_coeffs

FC = 2.395e9
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("ofdm_20mhz.cfg", "single_carrier_10mhz.cfg")


def tone(n=32768, fs=80e6, f0=1.1e6):
    t = np.arange(n) / fs
    return BasebandSignal(np.exp(2j * np.pi * f0 * t), fs)


def narrowband_training_signal(w_hz=1e6, nsym=4096, seed=5):
    spec = SignalSpec(kind="single-carrier", bandwidth_hz=w_hz, oversampling=4,
                      num_symbols=nsym, pulse="sinc", seed=seed)
    return gen_frame(spec)


@functools.lru_cache(maxsize=1)
def shipped_tuning_inputs(name, seed, tx_gain_db=0.0):
    """(config, SI, VM tap, detector config) of a shipped config's frame at
    a signal seed, as the pipeline builds them. Cached because the property test
    asks for the same inputs on every example."""
    cfg = load_config(CONFIGS / name)
    x = gen_frame(dataclasses.replace(cfg.signal, seed=seed))
    amp = dataclasses.replace(cfg.channel, tx_gain_db=tx_gain_db).tx_amplitude
    si = BasebandSignal(apply_channel(cfg.channel.build(), x).samples * amp, x.sample_rate_hz)
    tap = BasebandSignal(amp * x.samples, x.sample_rate_hz)
    det = DetectorConfig(window_samples=cfg.detector_window,
                         symbol_samples=cfg.signal.oversampling)
    return cfg, si, tap, det


def slow_env(si, tap, det):
    """The detector reading built sample by sample, as a function of the
    complex VM gain g: the reference for detector_env."""
    return lambda g: power_detect(
        BasebandSignal(si.samples + g * tap.samples, si.sample_rate_hz), det)


class TestVmApply:
    def test_unity_gain_identity(self):
        x = tone(4096)
        y = VmState(1.0, 0.0, bits=16).complex_gain * x.samples
        step = 2.0 / (1 << 16)
        assert np.max(np.abs(y - x.samples)) <= 1.5 * step * np.max(np.abs(x.samples))

    def test_quadrature_rotation(self):
        x = tone(4096)
        y = VmState(0.0, 1.0, bits=16).complex_gain * x.samples
        step = 2.0 / (1 << 16)
        assert np.max(np.abs(y - 1j * x.samples)) <= 1.5 * step * np.max(np.abs(x.samples))

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
        s = VmState(0.0, 0.0, bits=16)
        assert s.g1 == 0.0 and s.g2 == 0.0

    def test_stored_on_the_grid(self):
        # 1.0 lies above the top level of the 16-bit grid, 1 - 2^-15
        s = VmState(1.0, 0.0, 16)
        assert s.g1 == 1 - 2 ** -15
        assert s.complex_gain == (1 - 2 ** -15) + 0j

    def test_negative_zero_keeps_its_sign(self):
        s = VmState(-0.0, 0.0, 16)
        assert (math.copysign(1.0, s.g1), math.copysign(1.0, s.g2)) == (-1.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(g1=st.floats(-1.0, 1.0), g2=st.floats(-1.0, 1.0), bits=st.integers(1, 24))
    def test_quantizing_twice_gives_the_same_state(self, g1, g2, bits):
        s = VmState(g1, g2, bits)
        again = VmState(s.g1, s.g2, bits)
        signs = [math.copysign(1.0, g) for g in (s.g1, s.g2, again.g1, again.g2)]
        assert again == s and signs[:2] == signs[2:]
        assert (s.g1, s.g2) == (rfstage._quantize(g1, bits), rfstage._quantize(g2, bits))

    def test_minus_c0_cancels_single_tap(self):
        x = narrowband_training_signal(w_hz=1e6)
        ch = MultipathChannel(taps=(ChannelTap(10 ** (-18 / 20), 0.2e-9),),
                              carrier_hz=FC)
        si = apply_channel(ch, x)
        c0 = taylor_coeffs(ch, 0)[0]
        out = si.samples + VmState(-c0.real, -c0.imag, bits=16).complex_gain * x.samples
        drop = 10 * np.log10(si.mean_power / np.mean(np.abs(out) ** 2))
        assert drop >= 60.0


class TestPowerDetect:
    CFG = DetectorConfig(window_samples=16384, symbol_samples=4)

    def test_zero_input(self):
        zero = BasebandSignal(np.full(20000, 1e-300, dtype=complex), 80e6)
        assert power_detect(zero, self.CFG) <= 1e-200

    def test_unit_power_reads_two(self):
        assert power_detect(tone(32768), self.CFG) == pytest.approx(2.0, rel=1e-9)

    def test_residual_formula(self):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=2))
        c0 = 0.05 - 0.02j
        v = 0.01 + 0.03j
        resid = BasebandSignal((c0 + v) * x.samples, x.sample_rate_hz)
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

        def env(g):
            return (g.real - target[0]) ** 2 + (g.imag - target[1]) ** 2

        res = tune(env, VmState(0.0, 0.0, bits=bits), budget=2000)
        assert res.converged
        assert (res.state.g1, res.state.g2) == pytest.approx(target, abs=1e-12)

    def test_constant_env_returns_init(self):
        res = tune(lambda g: 1.0, VmState(0.25, -0.5, bits=8), budget=500)
        assert res.converged
        assert (res.state.g1, res.state.g2) == (0.25, -0.5)
        assert res.detector_readings == (1.0,)

    def test_never_worse_than_init(self):
        rng = np.random.default_rng(3)

        def env(g):
            return float(np.sin(20 * g.real) ** 2 + np.cos(17 * g.imag + 1) ** 2)

        init = VmState(0.125, 0.125, bits=8)
        res = tune(env, init, budget=300)
        assert env(res.state.complex_gain) <= env(init.complex_gain) + 1e-15

    def test_readings_non_increasing(self):
        def env(g):
            return (g.real - 0.3) ** 2 + (g.imag + 0.4) ** 2

        res = tune(env, VmState(0.0, 0.0, bits=12), budget=1000)
        r = res.detector_readings
        assert all(a >= b for a, b in zip(r, r[1:]))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            tune(lambda g: 0.0, VmState(0, 0, bits=16), budget=0)

    def test_single_tap_pipeline_drop(self):
        x = narrowband_training_signal(w_hz=1e6)
        ch = MultipathChannel(taps=(ChannelTap(10 ** (-18 / 20), 0.2e-9),),
                              carrier_hz=FC)
        si = apply_channel(ch, x)
        env = slow_env(si, x, DetectorConfig(window_samples=16384, symbol_samples=4))
        res = tune(env, VmState(0.0, 0.0, bits=16), budget=2000)
        untuned = env(VmState(0.0, 0.0, bits=16).complex_gain)
        assert 10 * np.log10(res.detector_readings[-1] / untuned) <= -60.0


def reference_tune(env, init: VmState, budget: int) -> TuneResult:
    """tune's search written with a best state kept apart from its trace
    and each probe quantized twice: the oracle for tune."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    lsb = rfstage._quant_step(init.bits)
    best = init
    f_best = float(env(best.complex_gain))
    evals = 1
    readings = [f_best]
    states = [best]
    step = TUNE_INITIAL_STEP
    converged = False

    def moved(state: VmState, axis: int, delta: float) -> VmState:
        g = [state.g1, state.g2]
        g[axis] = rfstage._quantize(g[axis] + delta, state.bits)  # clamped into [-1, 1]
        return VmState(g[0], g[1], state.bits)

    while evals < budget:
        improved_sweep = False
        for axis in (0, 1):
            for sign in (1.0, -1.0):
                improved_dir = False
                while evals < budget:
                    cand = moved(best, axis, sign * step)
                    if (cand.g1, cand.g2) == (best.g1, best.g2):
                        break
                    f = float(env(cand.complex_gain))
                    evals += 1
                    if f < f_best:
                        best, f_best = cand, f
                        readings.append(f)
                        states.append(cand)
                        improved_dir = True
                        improved_sweep = True
                    else:
                        break
                if improved_dir:
                    break  # moving back along the axis cannot improve
        if not improved_sweep:
            step /= 2.0
            if step < lsb:
                converged = True
                break
    return TuneResult(state=best, detector_readings=tuple(readings),
                      iterations=evals, converged=converged,
                      accepted_states=tuple(states))


@st.composite
def tuner_envs(draw):
    """Detector stand-ins: a quadratic bowl, a constant, a wavy surface, and
    the wavy surface reading NaN, inf or -inf on a half-plane."""
    kind = draw(st.sampled_from(["quadratic", "constant", "wavy", "nan", "inf", "-inf"]))
    a, b = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    if kind == "quadratic":
        return lambda g: (g.real - a) ** 2 + 3.0 * (g.imag - b) ** 2
    if kind == "constant":
        return lambda g: a

    def wavy(g):
        return math.sin(9.0 * g.real + a) ** 2 + math.cos(7.0 * g.imag + b) ** 2

    if kind == "wavy":
        return wavy
    bad = float(kind)
    return lambda g: bad if g.real + g.imag > a else wavy(g)


class TestTuneOracle:
    @settings(max_examples=300, deadline=None)
    @given(env=tuner_envs(), bits=st.sampled_from([1, 2, 3, 8, 16, 24]),
           budget=st.sampled_from([1, 2, 1200]) | st.integers(1, 400),
           init=st.tuples(*[st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)] * 2))
    def test_matches_reference_tune(self, env, bits, budget, init):
        # repr tells -0.0 from 0.0 and compares NaN readings
        state = VmState(init[0], init[1], bits)
        assert repr(tune(env, state, budget)) == repr(reference_tune(env, state, budget))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_reference_tune_on_detector_readings(self, name, seed):
        cfg, si, tap, det = shipped_tuning_inputs(name, seed)
        env, init = detector_env(si, tap, det), VmState(0.0, 0.0, cfg.vm_bits)
        assert repr(tune(env, init, cfg.tune_budget)) == \
            repr(reference_tune(env, init, cfg.tune_budget))


class TestDetectorEnv:
    @settings(max_examples=200, deadline=None)
    @given(g1=st.floats(-1.0, 1.0), g2=st.floats(-1.0, 1.0), bits=st.integers(1, 24))
    def test_matches_power_detect(self, g1, g2, bits):
        _, si, tap, det = shipped_tuning_inputs(SHIPPED[0], 1, tx_gain_db=7.0)
        g = VmState(g1, g2, bits).complex_gain
        assert detector_env(si, tap, det)(g) == pytest.approx(
            slow_env(si, tap, det)(g), rel=1e-9)

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
        # each probe is scalar arithmetic: rf_stage builds only the tap and
        # the final residual, however many probes the tuner makes, and a
        # VmState only for tune_vm's init and each state tune returns
        calls = dict.fromkeys(("BasebandSignal", "power_detect", "VmState"), 0)
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
        assert calls == {"BasebandSignal": 2, "power_detect": 0,
                         "VmState": 1 + len(res.accepted_states)}

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
        p = psd(residual)
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
