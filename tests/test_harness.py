import collections
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fdsic import cli, digital, harness, oracle, rfstage
from fdsic.channel import (MAX_POWER_DB, SPEED_OF_LIGHT, ReceiverImpairments, apply_channel,
                           fractional_delay, impair)
from fdsic.config import (EDGE_GUARD, FILE_KEYS, ChannelConfig, ExperimentConfig, load_config,
                          save_config, slope_band)
from fdsic.digital import MIN_FIT_SAMPLES, MIN_OVERSAMPLING
from fdsic.harness import (run_pipeline, run_simulate, run_spectrum,
                           run_sweep_bandwidth, run_sweep_power, run_verify)
from fdsic.metrics import Psd, psd, slope_diagnostic
from fdsic.rfstage import MIN_DETECTOR_SYMBOLS
from fdsic.signals import PULSE_SPAN, BasebandSignal, SignalSpec, gen_frame
from fdsic.taylor import taylor_coeffs
from reference import per_point_pipeline

REPO = Path(__file__).resolve().parents[1]
SHIPPED = {"ofdm": "ofdm_20mhz.cfg", "sc": "single_carrier_10mhz.cfg"}
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def small_cfg(tmp_path, **kw):
    base = dict(
        signal=SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=8, seed=1),
        output_dir=str(tmp_path / "out"),
        tune_budget=800,
        detector_window=16384,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _has_tap(geometry: dict) -> bool:
    return bool(geometry["reflector_distances_m"] or geometry["circulator_gain_db"] is not None)


def _longest_delay_s(ch: ChannelConfig) -> float:
    """Largest tap delay of a channel config, from its fields."""
    if ch.taps_db_ns:
        return max(d_ns * 1e-9 for _, d_ns in ch.taps_db_ns)
    delays = [2.0 * d / SPEED_OF_LIGHT for d in ch.reflector_distances_m]
    if ch.circulator_gain_db is not None:
        delays.append(ch.circulator_delay_ns * 1e-9)
    return max(delays)


def _band_ok(sig: dict, eval_len: int) -> bool:
    """Whether the slope diagnostic's band, from its closed form, holds 8
    bins of the Welch grid of an eval_len-sample evaluation slice."""
    bw = sig["bandwidth_hz"]
    if sig["kind"] == "ofdm":
        edge = (sig["ofdm_used_carriers"] / 2 + 3) / sig["ofdm_fft_size"] * bw
    else:
        edge = 0.5 * bw * ((1.0 - sig["rolloff"]) if sig["pulse"] == "rrc" else 1.0)
    seg = 1 << min(12, eval_len.bit_length() - 1)  # the largest power of two up to 4096
    absf = np.abs(np.fft.fftfreq(seg, 1 / (sig["oversampling"] * bw)))
    return edge > 0 and np.count_nonzero((absf >= 0.05 * edge) & (absf <= 0.9 * edge)) >= 8


def _non_finite_inputs() -> list:
    """(section, key, text) of every float and list key of [signal], [channel]
    and [impairments], each with nan, inf and -inf; a list holds it after a
    finite entry, and taps hold it as a gain and as a delay."""
    rows, cfg = [], ExperimentConfig()
    for section in ("signal", "channel", "impairments"):
        for f in dataclasses.fields(getattr(cfg, section)):
            if not isinstance(f.default, (float, tuple)):
                continue
            key = FILE_KEYS.get(f.name, f.name)
            for v in ("nan", "inf", "-inf"):
                texts = {"taps": [f"{v}:1", f"-18:{v}"],
                         "reflector_distances_m": [f"0.125, {v}"]}.get(key, [v])
                rows += [(section, key, text) for text in texts]
    return rows


NON_FINITE_INPUTS = _non_finite_inputs()

# [channel] keyword arguments: the keys every channel has, and either explicit
# taps or reflector geometry, never both; every drawn channel has a tap
CHANNEL_COMMON = st.builds(dict, carrier_hz=_floats(1e6, 1e11), tx_gain_db=_floats(-50.0, 50.0))
CHANNEL_TAPS = st.builds(dict, taps_db_ns=st.lists(
    st.tuples(_floats(-80.0, 0.0), _floats(0.0, 100.0)), min_size=1, max_size=3).map(tuple))
CHANNEL_GEOMETRY = st.builds(
    dict, reflector_distances_m=st.lists(_floats(0.01, 10.0), max_size=3).map(tuple),
    circulator_gain_db=st.none() | _floats(-60.0, 0.0),
    circulator_delay_ns=_floats(0.0, 10.0), pathloss_cap_db=_floats(-60.0, 0.0),
    pathloss_alpha=_floats(2.5, 6.0), pathloss_calib_distance_m=_floats(0.01, 10.0),
    pathloss_calib_db=_floats(-90.0, 0.0)).filter(_has_tap)


@st.composite
def config_fields(draw, runnable=True):
    """Random ExperimentConfig fields. Runnable draws keep every frame limit:
    oversampling 4..8, carriers inside the OFDM grid, and train_len and
    detector_window inside the frame. Free draws (runnable=False) draw each
    field on its own and give the signal as SignalSpec keyword arguments,
    since some of them do not build. sample_offset stays under 1 ns, below
    the shortest sample period drawn here (1.25 ns at 100 MHz x 8); the
    carrier is drawn freely, so some draws fall below 2.5 x the sample rate.
    Every drawn channel has a tap; the longest tap delay, 100 ns, is within
    10 % of every runnable frame. Runnable draws whose slope-diagnostic band
    holds fewer than 8 Welch bins (an RRC rolloff near 1, few OFDM carriers
    on a fine grid) are rejected, about one in twenty."""
    fft_size = draw(st.sampled_from([256, 1024]))
    signal = draw(st.fixed_dictionaries(dict(
        kind=st.sampled_from(["ofdm", "single-carrier"]), bandwidth_hz=_floats(1e3, 1e8),
        oversampling=st.integers(MIN_OVERSAMPLING if runnable else 1, 8),
        num_symbols=st.integers(100 if runnable else 1, 10**5),
        constellation=st.sampled_from(["qpsk4", "qam16"]),
        pulse=st.sampled_from(["sinc", "rrc"]), rolloff=_floats(0.0, 1.0),
        ofdm_fft_size=st.just(fft_size),
        ofdm_used_carriers=st.integers(1, min(255, fft_size - 6) if runnable else 255),
        seed=st.integers(0, 2**32))))
    fields = draw(st.fixed_dictionaries(dict(
        channel=st.builds(lambda common, layout: ChannelConfig(**common, **layout),
                          CHANNEL_COMMON, CHANNEL_TAPS | CHANNEL_GEOMETRY),
        impairments=st.builds(
            ReceiverImpairments, noise_power=_floats(0.0, 1.0),
            adc_bits=st.sampled_from([0, 4, 12, 16]), sample_offset=_floats(0.0, 1e-9)),
        vm_bits=st.integers(2, 24), tune_budget=st.integers(1, 5000),
        digital_order=st.sampled_from([1, 2]), output_dir=st.sampled_from(["out", "runs/a b"]),
        seed=st.integers(0, 2**32))))
    if not runnable:
        return dict(fields, signal=signal, train_len=draw(st.integers(100, 10**5)),
                    detector_window=draw(st.integers(1, 10**6)))
    spec = SignalSpec(**signal)
    n = spec.frame_len
    train_len = draw(st.integers(MIN_FIT_SAMPLES, n - 6 * EDGE_GUARD))
    assume(_band_ok(signal, n - 2 * EDGE_GUARD - train_len))
    return dict(fields, signal=spec, train_len=train_len,
                detector_window=draw(st.integers(MIN_DETECTOR_SYMBOLS * spec.oversampling, n)))


def _carrier_ok(fields):
    return fields["channel"].carrier_hz >= 2.5 * fields["signal"].sample_rate_hz


def _with_low_carrier(fields, fraction):
    """fields with the carrier at fraction (< 1) of 2.5 x the sample rate."""
    carrier_hz = fraction * 2.5 * fields["signal"].sample_rate_hz
    return dict(fields, channel=dataclasses.replace(fields["channel"], carrier_hz=carrier_hz))


CONFIG_FIELDS = config_fields()
VALID_CONFIGS = CONFIG_FIELDS.filter(_carrier_ok).map(lambda fields: ExperimentConfig(**fields))
LOW_CARRIER_FIELDS = st.builds(_with_low_carrier, CONFIG_FIELDS, _floats(1e-3, 0.999))


def _broken_keys(fields) -> list:
    """Keys of a free draw that break a limit a run needs, from the frame
    length's closed forms rather than SignalSpec.frame_len."""
    sig, os_ = fields["signal"], fields["signal"]["oversampling"]
    nfft = sig["ofdm_fft_size"]
    if sig["kind"] == "ofdm":
        n = sig["num_symbols"] * (nfft + nfft // 8) * os_
    else:
        n = (sig["num_symbols"] - 1 + 2 * PULSE_SPAN) * os_ + 1
    eval_len = n - 2 * EDGE_GUARD - fields["train_len"]
    limits = [
        ("ofdm_used_carriers", sig["kind"] != "ofdm" or sig["ofdm_used_carriers"] <= nfft - 6),
        ("oversampling", os_ >= MIN_OVERSAMPLING),
        ("train_len", eval_len >= 4 * EDGE_GUARD),
        # the band message names train_len and rolloff or ofdm_used_carriers;
        # checked on an evaluation slice that the train_len limit leaves
        ("train_len", eval_len < 4 * EDGE_GUARD or _band_ok(sig, eval_len)),
        ("detector_window", MIN_DETECTOR_SYMBOLS * os_ <= fields["detector_window"] <= n),
        ("carrier_hz", fields["channel"].carrier_hz >= 2.5 * os_ * sig["bandwidth_hz"]),
        # the delay message names taps, circulator_delay_ns and reflector_distances_m
        ("taps", _longest_delay_s(fields["channel"]) <= 0.1 * (n / (os_ * sig["bandwidth_hz"]))),
    ]
    return [key for key, ok in limits if not ok]


class TestConfigIO:
    @settings(max_examples=50, deadline=None)
    @given(cfg=VALID_CONFIGS)
    def test_save_load_identity(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.cfg"
            save_config(cfg, path)
            assert load_config(path) == cfg

    @pytest.mark.parametrize("text, name", [
        ("[chanel]\ncarrier_hz = 2e9\n", "[chanel]"),
        ("[DEFAULT]\nseed = 3\n", "[DEFAULT]"),
        ("[signal]\nbandwith_hz = 5e6\n", "'bandwith_hz'"),
        ("[signal]\nbandwidth_hz = 5 MHz\n", "'bandwidth_hz'"),
        ("[channel]\ntaps = -18.0\n", "'taps'"),
        ("[rf]\nvm_bits = 16.5\n", "'vm_bits'"),
        # outside the vector modulator's [1, 24] bits, before any frame is made
        ("[rf]\nvm_bits = 0\n", "vm_bits = 0 must be in [1, 24]"),
        ("[rf]\nvm_bits = 30\n", "vm_bits = 30 must be in [1, 24]"),
        # rejected by the section's dataclass: its message, under the section
        ("[signal]\nkind = foo\n", "[signal]: unknown signal kind 'foo'"),
        ("[impairments]\nnoise_power = -1.0\n",
         "invalid [impairments]: noise_power = -1.0 must be >= 0"),
        # below 2.5 x the default 80 MHz sample rate
        ("[channel]\ncarrier_hz = 1e8\n", "carrier_hz = 1e+08"),
        # frame limits, checked when the config is built: below 64 symbols of
        # 4 samples, larger than a one-symbol frame of 4,608 samples, below
        # the digital stage's oversampling, and carriers off the FFT grid
        ("[rf]\ndetector_window = 100\n", "detector_window = 100 "),
        ("[signal]\nnum_symbols = 1\n", "detector_window = 16384 "),
        ("[signal]\nnum_symbols = 1\n", "4608-sample frame"),
        ("[signal]\noversampling = 2\n", "oversampling = 2 "),
        ("[signal]\nofdm_fft_size = 256\nofdm_used_carriers = 255\n",
         "[signal]: ofdm_used_carriers = 255 "),
        # channels that cannot be built or run, rejected at load naming the
        # key and value: a reflector behind the antenna, a shallow path-loss
        # law, a zero calibration distance, negative delays, a tap delay beyond
        # 10 % of the 691 us default frame, no tap
        ("[channel]\nreflector_distances_m = -1\n",
         "invalid [channel]: reflector_distances_m = -1.0 must be positive"),
        ("[channel]\npathloss_alpha = 1\n",
         "invalid [channel]: pathloss_alpha = 1.0 must exceed 2"),
        ("[channel]\npathloss_calib_distance_m = 0\n",
         "invalid [channel]: pathloss_calib_distance_m = 0.0 must be positive"),
        ("[channel]\ncirculator_delay_ns = -1\n",
         "invalid [channel]: circulator_delay_ns = -1.0 must be >= 0"),
        ("[channel]\ntaps = -18:0.5, -30:-2\n",
         "invalid [channel]: taps = -30.0:-2.0 holds a negative delay"),
        ("[channel]\ntaps = -18:100000\n", "tap delay 100000 ns exceeds 10% of the frame: "
         "check taps, circulator_delay_ns, reflector_distances_m"),
        ("[channel]\nreflector_distances_m =\ncirculator_gain_db = none\n",
         "invalid [channel]: circulator_gain_db = none and an empty reflector_distances_m "
         "leave no tap"),
        # explicit taps replace the geometry, so geometry away from its default
        # is refused with them, naming each such field
        ("[channel]\ntaps = -18:0.5\nreflector_distances_m = 0.05\npathloss_cap_db = -5\n",
         "invalid [channel]: taps cannot be combined with reflector_distances_m, "
         "pathloss_cap_db"),
        ("[channel]\ntaps = -18:0.5\ncirculator_gain_db = none\n",
         "taps cannot be combined with circulator_gain_db"),
        ("[channel]\ncirculator_delay_ns = 1\npathloss_alpha = 3\ntaps = -18:0.5\n",
         "taps cannot be combined with circulator_delay_ns, pathloss_alpha"),
        # dB and distance values whose linear form overflows or underflows to
        # 0, refused naming the keys it is made from
        ("[channel]\ntx_gain_db = 4000\n",
         "invalid [channel]: tx_gain_db = 4000.0 is out of range"),
        ("[channel]\ntx_gain_db = -4000\n", "tx_gain_db = -4000.0 is out of range"),
        ("[channel]\ncirculator_gain_db = 7000\n", "circulator_gain_db = 7000.0 is out of range"),
        ("[channel]\ncirculator_gain_db = -7000\n",
         "circulator_gain_db = -7000.0 is out of range"),
        ("[channel]\ntaps = 7000:1\n", "taps = 7000.0 is out of range"),
        ("[channel]\ntaps = -7000:1\n", "taps = -7000.0 is out of range"),
        ("[channel]\npathloss_cap_db = 4000\n", "pathloss_cap_db = 4000.0 is out of range"),
        ("[channel]\npathloss_cap_db = -4000\n", "pathloss_cap_db = -4000.0 is out of range"),
        ("[channel]\npathloss_calib_db = 4000\n", "pathloss_calib_db = 4000.0, "
         "pathloss_calib_distance_m = 0.25, pathloss_alpha = 4.0 are out of range"),
        ("[channel]\npathloss_calib_db = -4000\n", "pathloss_calib_db = -4000.0, "),
        ("[channel]\npathloss_calib_distance_m = 1e300\n", "pathloss_calib_distance_m = 1e+300, "),
        ("[channel]\npathloss_alpha = 1e6\n", "pathloss_alpha = 1000000.0 are out of range"),
        # k is checked before the cap: with both out of range, k's keys are named
        ("[channel]\npathloss_cap_db = -4000\npathloss_alpha = 1e6\n",
         "invalid [channel]: pathloss_calib_db = -30.0, pathloss_calib_distance_m = 0.25, "
         "pathloss_alpha = 1000000.0 are out of range"),
        ("[channel]\nreflector_distances_m = 1e100\n",
         "invalid [channel]: reflector_distances_m = 1e+100 is out of range"),
        # a negative distance would make d^alpha complex, or |d|^alpha
        ("[channel]\npathloss_calib_distance_m = -0.25\npathloss_alpha = 4.5\n",
         "invalid [channel]: pathloss_calib_distance_m = -0.25 must be positive"),
        ("[channel]\npathloss_calib_distance_m = -0.25\n",
         "pathloss_calib_distance_m = -0.25 must be positive"),
        # file structure configparser refuses, naming the key, section or line
        ("[run]\nseed = 1\nseed = 2\n", "option 'seed' in section 'run' already exists"),
        ("[run]\nseed = 1\n[run]\nseed = 2\n", "section 'run' already exists"),
        ("seed = 1\n", "no section headers.\nfile: "),
        ("seed = 1\n", "'seed = 1\\n'"),
        ("[run]\nseed\n", "[line  2]: 'seed\\n'"),
        # numpy's default_rng refuses a negative seed, so the load does
        ("[signal]\nseed = -1\n", "invalid [signal]: seed = -1 must not be negative"),
        ("[run]\nseed = -1\n", "invalid [run]: seed = -1 must not be negative"),
        # slope-diagnostic bands that used to fail after the RF and digital
        # stages: an RRC rolloff of 1 leaves no band, and 4 carriers of a
        # 64-bin grid (2 symbols at oversampling 5, 720 samples) give the
        # 371-sample evaluation slice a 256-bin grid with 4 bins in the band
        ("[signal]\nkind = single-carrier\nnum_symbols = 12000\nrolloff = 1\n",
         "band 0..0 Hz holds fewer than 8 bins of the 4096-point PSD: check rolloff, train_len"),
        ("[signal]\nofdm_fft_size = 64\nofdm_used_carriers = 4\nnum_symbols = 2\n"
         "oversampling = 5\n[rf]\ndetector_window = 720\n[digital]\ntrain_len = 221\n",
         "of the 256-point PSD: check ofdm_used_carriers, train_len"),
        # run and section limits, each refused naming its value
        ("[rf]\ntune_budget = 0\n", "tune_budget = 0 must be positive"),
        ("[digital]\ntrain_len = 50\n", "train_len = 50 is below 100 samples"),
        ("[signal]\noversampling = 0\n", "invalid [signal]: oversampling = 0 must be >= 1"),
        ("[signal]\nnum_symbols = 0\n", "invalid [signal]: num_symbols = 0 must be >= 1"),
        ("[signal]\nrolloff = 1.5\n", "invalid [signal]: rolloff = 1.5 must be in [0, 1]"),
        ("[signal]\nconstellation = qam64\n",
         "invalid [signal]: unknown constellation 'qam64'"),
        ("[signal]\npulse = gauss\n", "invalid [signal]: unknown pulse 'gauss'"),
        ("[impairments]\nsample_offset = -1e-10\n",
         "invalid [impairments]: sample_offset = -1e-10 must be >= 0"),
        # past channel.MAX_POWER_DB the power sums overflow or sink into power_db's floor
        ("[channel]\ntx_gain_db = 3080\n",
         "invalid [channel]: tx_gain_db = 3080.0 is out of range"),
        ("[channel]\ntx_gain_db = -1000.5\n",
         "invalid [channel]: tx_gain_db = -1000.5 is out of range"),
        ("[channel]\ntx_gain_db = 1000.0000000000001\n",
         "invalid [channel]: tx_gain_db = 1000.0000000000001 is out of range"),
        ("[channel]\ntaps = 1000.0000000000001:0\n",
         "invalid [channel]: taps = 1000.0000000000001 is out of range"),
        ("[channel]\ntaps = 0:1, -3000:0\n", "invalid [channel]: taps = -3000.0 is out of range"),
        ("[channel]\ncirculator_gain_db = -1000.0000000000001\n",
         "invalid [channel]: circulator_gain_db = -1000.0000000000001 is out of range"),
        ("[channel]\ncirculator_gain_db = 3000\n",
         "invalid [channel]: circulator_gain_db = 3000.0 is out of range"),
        ("[impairments]\nnoise_power = 1.0000000000000002e100\n",
         "invalid [impairments]: noise_power = 1.0000000000000002e+100 is out of range"),
    ])
    def test_rejects_unknown_or_bad_entry(self, tmp_path, text, name):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(name)):
            load_config(path)

    def test_reflector_whose_path_loss_overflows_loads_at_the_cap(self, tmp_path):
        path = tmp_path / "near.cfg"
        path.write_text("[channel]\nreflector_distances_m = 1e-100, 0.3\n")
        ch = load_config(path).channel
        assert np.sqrt(10.0 ** (ch.pathloss_cap_db / 10.0)) in [t.gain for t in ch.build().taps]

    @pytest.mark.parametrize("section, key, text", NON_FINITE_INPUTS)
    def test_rejects_non_finite_value(self, tmp_path, section, key, text):
        # nan passes every ordered comparison and inf overflows the frame
        # arithmetic, so each is refused first, naming the file key
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ValueError,
                           match=rf"^invalid \[{section}\]: {key} = .* must be finite$"):
            load_config(path)

    def test_sample_offset_below_one_sample(self, tmp_path):
        # default signal: 20 MHz x 4 = 80 MHz, so T_s = 12.5 ns
        ExperimentConfig(impairments=ReceiverImpairments(sample_offset=12e-9))
        path = tmp_path / "offset.cfg"
        path.write_text("[impairments]\nsample_offset = 20e-9\n")
        with pytest.raises(ValueError, match="sample_offset"):
            load_config(path)
        # checked against the file's own signal, whatever the section order
        path.write_text("[impairments]\nsample_offset = 20e-9\n"
                        "[signal]\nbandwidth_hz = 5e6\n")
        assert load_config(path).impairments.sample_offset == 20e-9

    @settings(max_examples=25, deadline=None)
    @given(fields=LOW_CARRIER_FIELDS)
    def test_rejects_carrier_below_2_5_sample_rates(self, fields):
        with pytest.raises(ValueError, match="carrier_hz"):
            ExperimentConfig(**fields)

    @settings(max_examples=100, deadline=None)
    @given(fields=config_fields(runnable=False))
    def test_free_draws_fail_naming_a_broken_key(self, fields):
        # every free draw builds exactly when it breaks no limit a run needs
        broken = _broken_keys(fields)
        with pytest.raises(ValueError, match="|".join(broken)) if broken \
                else contextlib.nullcontext():
            ExperimentConfig(**dict(fields, signal=SignalSpec(**fields["signal"])))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["ofdm", "single-carrier"]), used=st.integers(1, 58),
           rolloff=_floats(0.6, 1.0), train_frac=_floats(0.0, 1.0), seed=st.integers(0, 99))
    def test_band_check_agrees_with_slope_diagnostic(self, kind, used, rolloff, train_frac, seed):
        # short frames near the band limit: 64-bin OFDM with 2 symbols, or
        # 100 RRC symbols, at oversampling 5
        spec = SignalSpec(kind=kind, num_symbols=2 if kind == "ofdm" else 100, oversampling=5,
                          ofdm_fft_size=64, ofdm_used_carriers=used, rolloff=rolloff)
        n = spec.frame_len
        train_len = MIN_FIT_SAMPLES + int(train_frac * (n - 6 * EDGE_GUARD - MIN_FIT_SAMPLES))
        try:
            ExperimentConfig(signal=spec, train_len=train_len, detector_window=n)
            accepted = True
        except ValueError as exc:
            assert "slope-diagnostic band" in str(exc)
            accepted = False
        rng = np.random.default_rng(seed)
        eval_slice = BasebandSignal(rng.standard_normal(n - 2 * EDGE_GUARD - train_len),
                                    spec.sample_rate_hz)
        with contextlib.nullcontext() if accepted else pytest.raises(ValueError):
            slope_diagnostic(psd(eval_slice), slope_band(spec))

    def test_config_at_the_band_limit_runs(self, tmp_path):
        # 6 carriers of the 64-bin grid above give 8 bins in the band
        path = tmp_path / "edge.cfg"
        path.write_text("[signal]\nofdm_fft_size = 64\nofdm_used_carriers = 6\nnum_symbols = 2\n"
                        "oversampling = 5\n[rf]\ndetector_window = 720\n[digital]\n"
                        "train_len = 221\n")
        assert np.isfinite(run_pipeline(load_config(path)).report.total_db)

    @pytest.mark.parametrize("output_dir", ["runs #2", " out", "out ", "a\nb"])
    def test_save_rejects_text_that_would_not_load_back(self, tmp_path, output_dir):
        with pytest.raises(ValueError, match=re.escape("'output_dir' in [run]")):
            save_config(ExperimentConfig(output_dir=output_dir), tmp_path / "exp.cfg")

    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "exp.cfg"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_explicit_taps(self, tmp_path):
        text = """
[channel]
taps = -18.0:0.5, -30.0:0.833
"""
        path = tmp_path / "taps.cfg"
        path.write_text(text)
        cfg = load_config(path)
        ch = cfg.channel.build()
        assert len(ch.taps) == 2
        assert ch.taps[0].gain == pytest.approx(10 ** (-18 / 20))
        assert ch.taps[1].delay_s == pytest.approx(0.833e-9)
        # save_config writes every geometry field at its default, which taps allow
        save_config(cfg, tmp_path / "saved.cfg")
        assert "reflector_distances_m = 0.125, 0.3" in (tmp_path / "saved.cfg").read_text()
        assert load_config(tmp_path / "saved.cfg") == cfg

    def test_shipped_configs_parse(self):
        for name in ("ofdm_20mhz.cfg", "single_carrier_10mhz.cfg"):
            cfg = load_config(REPO / "configs" / name)
            assert cfg.vm_bits == 16


@st.composite
def short_frame_fields(draw):
    """ExperimentConfig fields of frames up to about 5,000 samples: OFDM on
    16..64-bin grids with 1..4 symbols, or 100..600 single-carrier symbols,
    at oversampling 4..8, with the default channel at a random power and
    random impairments, tuner and digital settings. Frames too short for
    the 100-sample training floor and the 256 evaluation samples are
    rejected; any other limit is left to ExperimentConfig."""
    kind = draw(st.sampled_from(["ofdm", "single-carrier"]))
    fft_size = draw(st.sampled_from([16, 32, 64]))
    spec = SignalSpec(
        kind=kind, bandwidth_hz=draw(_floats(1e6, 1e8)), oversampling=draw(st.integers(4, 8)),
        num_symbols=draw(st.integers(1, 4) if kind == "ofdm" else st.integers(100, 600)),
        constellation=draw(st.sampled_from(["qpsk4", "qam16"])),
        pulse=draw(st.sampled_from(["sinc", "rrc"])), rolloff=draw(_floats(0.0, 1.0)),
        ofdm_fft_size=fft_size, ofdm_used_carriers=draw(st.integers(1, fft_size - 6)),
        seed=draw(st.integers(0, 2**32 - 1)))
    n = spec.frame_len
    assume(n - 6 * EDGE_GUARD >= MIN_FIT_SAMPLES and n >= MIN_DETECTOR_SYMBOLS * spec.oversampling)
    return dict(
        signal=spec, channel=ChannelConfig(tx_gain_db=draw(_floats(-20.0, 30.0))),
        impairments=ReceiverImpairments(
            noise_power=draw(st.sampled_from([0.0, 1e-12, 1e-6])),
            adc_bits=draw(st.sampled_from([0, 4, 12, 16])),
            sample_offset=draw(_floats(0.0, 0.99)) / spec.sample_rate_hz),
        vm_bits=draw(st.integers(1, 24)), tune_budget=draw(st.integers(1, 1500)),
        digital_order=draw(st.sampled_from([1, 2])),
        train_len=draw(st.integers(MIN_FIT_SAMPLES, n - 6 * EDGE_GUARD)),
        detector_window=draw(st.integers(MIN_DETECTOR_SYMBOLS * spec.oversampling, n)),
        seed=draw(st.integers(0, 2**32 - 1)))


class TestConfigThatLoadsRuns:
    @settings(max_examples=60, deadline=None)
    @given(fields=short_frame_fields())
    # a subnormal RRC rolloff: pi / (4 rolloff) overflows to inf, and the
    # singular-point value of rrc_pulse must not be computed from it
    @example(fields=dict(
        signal=SignalSpec(kind="single-carrier", bandwidth_hz=1e6, num_symbols=100, pulse="rrc",
                          rolloff=2.225073858507203e-309, ofdm_fft_size=16,
                          ofdm_used_carriers=1, seed=0),
        channel=ChannelConfig(), impairments=ReceiverImpairments(), vm_bits=1, tune_budget=1,
        digital_order=1, train_len=100, detector_window=256, seed=0))
    def test_accepted_config_runs(self, fields):
        try:
            cfg = ExperimentConfig(**fields)
        except ValueError:
            assume(False)
        report = run_pipeline(cfg).report
        assert all(np.isfinite(v) for v in dataclasses.astuple(report))


class TestPowerBounds:
    """channel.MAX_POWER_DB bounds the transmit, tap and circulator gains and the
    noise power: at the bound a config runs clean (the refusals past it are rows
    of test_rejects_unknown_or_bad_entry)."""

    @pytest.mark.parametrize("tx_gain_db", [-MAX_POWER_DB, MAX_POWER_DB])
    def test_transmit_gain_at_the_bound_cancels_as_at_0_db(self, tmp_path, tx_gain_db):
        # every cancellation figure is a ratio of powers that scale together
        def figures(db):
            r = run_pipeline(small_cfg(tmp_path, channel=ChannelConfig(tx_gain_db=db))).report
            return [r.rf_cancellation_db, r.digital_cancellation_db, r.total_db]
        assert figures(tx_gain_db) == pytest.approx(figures(0.0), abs=1e-9)

    @pytest.mark.parametrize("db", [-MAX_POWER_DB, MAX_POWER_DB])
    @pytest.mark.parametrize("key", ["taps", "circulator_gain_db"])
    def test_channel_gain_at_the_bound_runs(self, tmp_path, key, db):
        channel = (ChannelConfig(taps_db_ns=((db, 0.0),)) if key == "taps"
                   else ChannelConfig(circulator_gain_db=db))
        report = run_pipeline(small_cfg(tmp_path, channel=channel)).report
        assert all(np.isfinite(v) for v in dataclasses.astuple(report))

    def test_noise_power_at_the_bound_runs(self, tmp_path):
        noise = ReceiverImpairments(noise_power=10.0 ** (MAX_POWER_DB / 10))
        report = run_pipeline(small_cfg(tmp_path, impairments=noise)).report
        assert all(np.isfinite(v) for v in dataclasses.astuple(report))


class TestDigitalOrder:
    @pytest.mark.parametrize("order", [0, 3])
    def test_run_pipeline_refuses_order_before_any_frame(self, tmp_path, monkeypatch, order):
        # the argument is applied to the config, which refuses it
        monkeypatch.setattr(harness, "gen_frame", lambda *args: pytest.fail("frame generated"))
        with pytest.raises(ValueError, match=f"^order = {order} must be 1 or 2$"):
            run_pipeline(small_cfg(tmp_path), digital_order=order)


class TestRunSimulate:
    def test_stage_accounting(self, tmp_path):
        report = run_simulate(small_cfg(tmp_path))
        residual = report.tx_power_db - report.rf_cancellation_db - report.digital_cancellation_db
        assert abs(residual - report.digital_residual_db) <= 0.01
        assert report.total_db == pytest.approx(
            report.rf_cancellation_db + report.digital_cancellation_db, abs=1e-9)

    def test_output_files(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_simulate(cfg)
        out = Path(cfg.output_dir)
        for name in ("report.txt", "pre.csv", "rf.csv", "digital.csv", "tune_trace.csv"):
            assert (out / name).exists()
        report = (out / "report.txt").read_text()
        assert "rf_cancellation_db" in report
        assert "ls_a0_re" in report

    def test_residuals_below_tx_power(self, tmp_path):
        report = run_simulate(small_cfg(tmp_path))
        assert report.rf_residual_db <= report.tx_power_db
        assert report.digital_residual_db <= report.tx_power_db

    def test_noise_dominated_digital_near_zero(self, tmp_path):
        cfg = small_cfg(tmp_path,
                        impairments=ReceiverImpairments(noise_power=1e-2))
        report = run_simulate(cfg)
        assert abs(report.digital_cancellation_db) <= 3.0

    def test_single_carrier_10mhz_rf_target(self, tmp_path):
        sig = SignalSpec(kind="single-carrier", bandwidth_hz=10e6, pulse="rrc",
                         rolloff=0.3, num_symbols=12000, seed=2)
        report = run_pipeline(small_cfg(tmp_path, signal=sig)).report
        assert report.rf_cancellation_db >= 55.0

    def test_oversampling_enforced(self, tmp_path):
        sig = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=8,
                         oversampling=2, seed=1)
        with pytest.raises(ValueError, match="oversampling"):
            run_pipeline(small_cfg(tmp_path, signal=sig))


class TestTwoParameterModel:
    # Both channels are a -18 dB circulator tap and one or two weaker taps. A strong
    # direct tap (-10 dB at 0 ns, -25 dB at 2 ns) left the tuned gain 1.83 LSB
    # from -C0 on the OFDM config, so the LSB bound is not general.
    @pytest.mark.parametrize("taps", [(), ((-18.0, 0.5), (-30.0, 0.833))], ids=["geometry", "taps"])
    @pytest.mark.parametrize("tag", SHIPPED)
    def test_fit_and_tune_find_c1_and_c0(self, tag, taps):
        # the order-1 digital fit finds sqrt(G_t) C1 per sample, and the RF
        # tuner cancels C0 to within one LSB of the vector modulator
        cfg = load_config(REPO / "configs" / SHIPPED[tag])
        cfg = dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, taps_db_ns=taps))
        result = run_pipeline(cfg, digital_order=1)
        channel = cfg.channel.build()
        c0, c1 = taylor_coeffs(channel, 1)
        want = cfg.channel.tx_amplitude * c1 * cfg.signal.sample_rate_hz
        assert abs(result.estimate.c1 - want) <= 1e-3 * abs(want)
        assert abs(result.tune.state.complex_gain + c0) <= 2 / 2 ** cfg.vm_bits


class TestSweeps:
    def test_bandwidth_single_point_matches_simulate(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = run_sweep_bandwidth(cfg, [20e6])
        r = run_pipeline(cfg).report
        assert rows == [(20e6, r.rf_cancellation_db, r.digital_cancellation_db, r.total_db)]
        assert (Path(cfg.output_dir) / "bandwidth_sweep.csv").exists()

    def test_bandwidth_trend(self, tmp_path):
        rows = run_sweep_bandwidth(small_cfg(tmp_path), [5e6, 10e6, 15e6, 20e6])
        rf = [r[1] for r in rows]
        assert all(a > b for a, b in zip(rf, rf[1:]))

    def test_bandwidth_sweep_validates_every_point_first(self, tmp_path, monkeypatch):
        # 10 ns is below T_s = 12.5 ns at 20 MHz x 4, but not at 40 MHz x 4
        cfg = small_cfg(tmp_path, impairments=ReceiverImpairments(sample_offset=10e-9))
        monkeypatch.setattr(harness, "run_pipeline", lambda *args: pytest.fail("point ran"))
        with pytest.raises(ValueError, match="sample_offset"):
            run_sweep_bandwidth(cfg, [20e6, 40e6])
        assert not (Path(cfg.output_dir) / "bandwidth_sweep.csv").exists()

    def test_bandwidth_sweep_checks_carrier_before_any_point(self, tmp_path, monkeypatch):
        # 2.395 GHz clears 2.5 x 80 MHz (20 MHz x 4), but not 2.5 x 1.2 GHz
        cfg = small_cfg(tmp_path)
        monkeypatch.setattr(harness, "run_pipeline", lambda *args: pytest.fail("point ran"))
        with pytest.raises(ValueError, match="carrier_hz"):
            run_sweep_bandwidth(cfg, [20e6, 300e6])
        assert not (Path(cfg.output_dir) / "bandwidth_sweep.csv").exists()

    @pytest.mark.parametrize("points, name", [
        ([0, -4000], "tx_gain_db = -4000.0 is out of range"),  # 10^-400 underflows to 0
        ([0, float("nan")], "tx_gain_db = nan must be finite"),
        ([0, float("inf")], "tx_gain_db = inf must be finite"),
        ([0, 4000], "tx_gain_db = 4000.0 is out of range"),  # 10^400 overflows
        ([0, float("-inf")], "tx_gain_db = -inf must be finite"),
    ])
    def test_power_sweep_validates_every_point_first(self, tmp_path, monkeypatch, points, name):
        # the points share one frame, generated before the first point runs
        cfg = small_cfg(tmp_path)
        monkeypatch.setattr(harness, "gen_frame", lambda *args: pytest.fail("point ran"))
        with pytest.raises(ValueError, match=re.escape(name)):
            run_sweep_power(cfg, points)
        assert not (Path(cfg.output_dir) / "power_sweep.csv").exists()

    @pytest.mark.parametrize("bw", [float("nan"), float("inf")])
    def test_bandwidth_sweep_rejects_non_finite_point(self, tmp_path, monkeypatch, bw):
        cfg = small_cfg(tmp_path)
        monkeypatch.setattr(harness, "run_pipeline", lambda *args: pytest.fail("point ran"))
        with pytest.raises(ValueError, match=f"^bandwidth_hz = {bw} must be finite$"):
            run_sweep_bandwidth(cfg, [20e6, bw])
        assert not (Path(cfg.output_dir) / "bandwidth_sweep.csv").exists()

    def test_empty_power_sweep_writes_the_header_alone(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        monkeypatch.setattr(harness, "gen_frame", lambda *args: pytest.fail("point ran"))
        assert run_sweep_power(cfg, []) == []
        csv = (Path(cfg.output_dir) / "power_sweep.csv").read_text().splitlines()
        assert len(csv) == 1 and csv[0].startswith("tx_power_dbm,rf_db,")

    def test_power_sweep_columns(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = run_sweep_power(cfg, [-10, 0, 10])
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 9
            # order-2 total never below order-1 total
            assert row[5] >= row[4] - 1e-9
        csv = (Path(cfg.output_dir) / "power_sweep.csv").read_text()
        assert csv.splitlines()[0].startswith("tx_power_dbm,rf_db")

    def test_power_sweep_row_matches_unshared_pipeline(self, tmp_path):
        # the sweep runs one order-2 pipeline per point and reads its order-1
        # residual from the same fit; two full pipeline runs are the reference
        cfg = small_cfg(tmp_path)
        row = run_sweep_power(cfg, [0])[0]
        point = dataclasses.replace(
            cfg, channel=dataclasses.replace(cfg.channel, tx_gain_db=0.0))
        res1 = run_pipeline(point, digital_order=1)
        res2 = run_pipeline(point, digital_order=2)
        r1, r2 = res1.report, res2.report
        res0_db = harness._order0_residual_db(res2)
        assert row == (0.0, r2.rf_cancellation_db,
                       r1.digital_cancellation_db, r2.digital_cancellation_db,
                       r1.total_db, r2.total_db,
                       r2.rf_residual_db - res0_db,
                       res0_db - r1.digital_residual_db,
                       r1.digital_residual_db - r2.digital_residual_db)

    # small_cfg's frame has 36,864 samples: 36,500 training samples leave
    # fewer than 256 to evaluate on, 36,480 leave exactly 256. The config is
    # rejected when it is built, before any frame is made.
    @pytest.mark.parametrize("key, value", [("train_len", 36_500),
                                            ("detector_window", 36_865)])
    def test_frame_limits_fail_before_tuning(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=f"{key} = {value} "):
            small_cfg(tmp_path, **{key: value})
        small_cfg(tmp_path, **{key: {"train_len": 36_480, "detector_window": 36_864}[key]})

    def test_non_integer_power_points_keep_their_value(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        save_config(small_cfg(tmp_path), cfg_path)
        assert cli.main(["sweep-power", "--config", str(cfg_path), "--dbm", "0.4,0.5"]) == 0
        csv = (tmp_path / "out" / "power_sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in csv[1:]] == ["0.4", "0.5"]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(" dBm")[0] for line in printed] == ["0.4", "0.5"]

    def test_negative_zero_power_point_is_labelled_zero(self, tmp_path, capsys):
        # --dbm=-0 and --dbm=0 are the same run, so they write the same file and line
        cfg_path = tmp_path / "exp.cfg"
        save_config(small_cfg(tmp_path), cfg_path)
        runs = {}
        for arg in ("--dbm=-0", "--dbm=0"):
            assert cli.main(["sweep-power", "--config", str(cfg_path), arg]) == 0
            runs[arg] = ((tmp_path / "out" / "power_sweep.csv").read_bytes(),
                         capsys.readouterr().out)
        csv, printed = runs["--dbm=-0"]
        assert csv.decode().splitlines()[1].split(",")[0] == "0"
        assert printed.startswith("0 dBm: ")
        assert runs["--dbm=-0"] == runs["--dbm=0"]

    @pytest.mark.parametrize("p_dbm, label", [(-10, "-10"), (19.0, "19"), (-0.0, "0"),
                                              (0.4, "0.4"), (-2.25, "-2.25")])
    def test_power_label(self, p_dbm, label):
        # integer points keep the .0f label of the benchmark reference
        assert harness.format_point(p_dbm) == label

    @pytest.mark.parametrize("bw_hz, label", [
        (5e6, "5000000"), (7.5e6, "7500000"), (7500000.5, "7500000.5"),
        (20e6 / 3, "6666666.666666667")])
    def test_bandwidth_label(self, bw_hz, label):
        # integer-Hz points keep the int(bw) label written before
        assert harness.format_point(bw_hz) == label

    @pytest.mark.parametrize("source, labels", [("csv", ["5000000", "7500000"]),
                                                ("stdout", ["5 MHz", "7.5 MHz"])])
    def test_bandwidth_sweep_labels(self, bandwidth_sweep_output, source, labels):
        csv, printed = bandwidth_sweep_output
        if source == "csv":
            assert csv[0] == "bandwidth_hz,rf_db,digital_db,total_db"
            assert [line.split(",")[0] for line in csv[1:]] == labels
        else:
            assert [line.split(":")[0] for line in printed] == labels

    @pytest.mark.parametrize("tag, first, last, sha256", [
        ("ofdm", "5000000,68.29,82.98,151.27", "20000000,56.25,70.86,127.11",
         "550c411fa6210b1c2a1ad86607c36f7c356f7493d8ae23630e377bf193a2f7fd"),
        ("sc", "5000000,63.83,59.20,123.04", "20000000,51.79,52.73,104.52",
         "94c4d3a0c87363c5cd8eddbbe8c54378107398c655bdf993b1596eb87cbd79c9"),
    ])
    def test_default_bandwidth_sweep_of_shipped_config(self, tmp_path, tag, first, last, sha256):
        # no benchmark reference covers this file, so its bytes are pinned here
        assert cli.main(["sweep-bandwidth", "--config", str(REPO / "configs" / SHIPPED[tag]),
                         "--output-dir", str(tmp_path)]) == 0
        data = (tmp_path / "bandwidth_sweep.csv").read_bytes()
        lines = data.decode().splitlines()
        assert (len(lines), lines[1], lines[-1]) == (5, first, last)
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_power_sweep_digital_grows_with_power_under_fixed_noise(self, tmp_path):
        cfg = small_cfg(tmp_path,
                        impairments=ReceiverImpairments(noise_power=1e-10))
        rows = run_sweep_power(cfg, [-10, 0, 10, 19])
        dig2 = [row[3] for row in rows]
        assert all(a < b for a, b in zip(dig2, dig2[1:]))


@pytest.fixture(scope="module")
def bandwidth_sweep_output(tmp_path_factory):
    """(bandwidth_sweep.csv lines, printed lines) of a 5 and 7.5 MHz sweep of
    the single-carrier config."""
    out = tmp_path_factory.mktemp("bw_sweep")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(["sweep-bandwidth", "--config", str(REPO / "configs" / SHIPPED["sc"]),
                         "--bw", "5e6,7.5e6", "--output-dir", str(out)]) == 0
    return (out / "bandwidth_sweep.csv").read_text().splitlines(), printed.getvalue().splitlines()


def _psd_csv_loop(p):
    """The per-row loop _write_psd_csvs replaced, kept as its oracle."""
    lines = ["freq_hz,power_db"]
    for f, v in zip(p.freqs_hz, p.power_db):
        f_txt = f"{int(round(f))}" if abs(f - round(f)) < 1e-6 else f"{f:.3f}"
        lines.append(f"{f_txt},{v:.2f}")
    return "\n".join(lines) + "\n"


def _psd_csv_text(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "psd.csv"
        harness._write_psd_csvs({path: p})
        return path.read_text()


@pytest.fixture(scope="module")
def shipped_results():
    return {tag: run_pipeline(load_config(REPO / "configs" / name))
            for tag, name in SHIPPED.items()}


# integers, offsets just inside and outside the 1e-6 integer test, and
# half-integers (ties round to even), besides -0.0 and arbitrary values
PSD_FREQS = st.one_of(
    st.builds(lambda k, d: k + d, st.integers(-10**8, 10**8),
              st.sampled_from([0.0, 0.5e-6, -0.5e-6, 1.5e-6, -1.5e-6, 0.5, -0.5])),
    st.just(-0.0), _floats(-1e8, 1e8))


class TestPsdCsv:
    @pytest.mark.parametrize("stage", ["pre", "rf", "digital"])
    @pytest.mark.parametrize("tag", sorted(SHIPPED))
    def test_matches_row_loop_on_shipped_stages(self, shipped_results, tag, stage):
        p = harness._stage_psd(shipped_results[tag], stage)
        assert _psd_csv_text(p) == _psd_csv_loop(p)

    @settings(max_examples=200, deadline=None)
    @given(freqs=st.lists(PSD_FREQS, min_size=1, max_size=40, unique=True),
           power=st.lists(_floats(-400.0, 100.0), min_size=40, max_size=40))
    def test_matches_row_loop(self, freqs, power):
        freqs = sorted(freqs)
        p = Psd(freqs_hz=freqs, power_db=power[:len(freqs)])
        assert _psd_csv_text(p) == _psd_csv_loop(p)

    @pytest.mark.parametrize("tag", sorted(SHIPPED))
    def test_shared_column_matches_row_loop(self, shipped_results, tag, tmp_path):
        psds = {tmp_path / f"{stage}.csv": harness._stage_psd(shipped_results[tag], stage)
                for stage in ("pre", "rf", "digital")}
        harness._write_psd_csvs(psds)
        for path, p in psds.items():
            assert path.read_text() == _psd_csv_loop(p)

    def test_differing_grids_rejected(self, tmp_path):
        a = Psd(freqs_hz=[0.0, 1.0], power_db=[0.0, 0.0])
        b = Psd(freqs_hz=[0.0, 2.0], power_db=[0.0, 0.0])
        with pytest.raises(AssertionError, match="grids differ"):
            harness._write_psd_csvs({tmp_path / "a.csv": a, tmp_path / "b.csv": b})


@pytest.mark.parametrize("tag", sorted(SHIPPED))
def test_config_slices_are_the_run_slices(shipped_results, tag):
    train, ev = load_config(REPO / "configs" / SHIPPED[tag]).slices
    res = shipped_results[tag]
    assert train == slice(64, 4160)
    assert ev == res.eval_slice
    assert ev == slice(train.stop, len(res.x) - EDGE_GUARD)


class TestComputeOnce:
    @staticmethod
    def count_calls(monkeypatch, name, module=harness):
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
        return calls

    def test_simulate_computes_three_psds(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, "psd")
        cfg = small_cfg(tmp_path)
        run_simulate(cfg)
        # pre, digital, and rf shared by the slope diagnostic and rf.csv
        assert len(calls) == 3
        res = run_pipeline(cfg)
        rx_eval = BasebandSignal(res.rx.samples[res.eval_slice], res.x.sample_rate_hz)
        harness._write_psd_csvs({tmp_path / "rf_expected.csv": psd(rx_eval)})
        assert ((Path(cfg.output_dir) / "rf.csv").read_text()
                == (tmp_path / "rf_expected.csv").read_text())

    def test_power_sweep_point_computes_no_psd(self, tmp_path, monkeypatch):
        # a row reads residual powers only: no rf PSD, no slope fit
        psds = self.count_calls(monkeypatch, "psd")
        diagnostics = self.count_calls(monkeypatch, "slope_diagnostic")
        run_sweep_power(small_cfg(tmp_path), [0])
        assert (len(psds), len(diagnostics)) == (0, 0)

    def test_power_sweep_point_runs_the_core_once(self, tmp_path, monkeypatch):
        # the points share one frame, its design columns over both slices and one
        # SI pass; each point tunes, impairs and fits once, and no point runs the
        # one-config run_pipeline
        names = ("_runs", "run_pipeline", "gen_frame", "design_columns", "apply_channel",
                 "tune_vm", "impair", "fit_orders")
        calls = {name: self.count_calls(monkeypatch, name) for name in names}
        run_sweep_power(small_cfg(tmp_path, digital_order=1), [0, 3, 6])
        assert {name: len(c) for name, c in calls.items()} == {
            "_runs": 1, "run_pipeline": 0, "gen_frame": 1, "design_columns": 2,
            "apply_channel": 1, "tune_vm": 3, "impair": 3, "fit_orders": 3}
        # each point's config carries order 2, whatever the sweep's config says
        (cfgs,), = calls["_runs"]
        assert [cfg.digital_order for cfg in cfgs] == [2, 2, 2]

    def test_bandwidth_sweep_point_computes_no_psd(self, tmp_path, monkeypatch):
        psds = self.count_calls(monkeypatch, "psd")
        diagnostics = self.count_calls(monkeypatch, "slope_diagnostic")
        pipelines = self.count_calls(monkeypatch, "run_pipeline")
        run_sweep_bandwidth(small_cfg(tmp_path), [10e6, 20e6])
        assert (len(psds), len(diagnostics), len(pipelines)) == (0, 0, 2)

    @pytest.mark.parametrize("stage", ["pre", "rf", "digital"])
    def test_spectrum_computes_only_its_stage_psd(self, tmp_path, monkeypatch, stage):
        psds = self.count_calls(monkeypatch, "psd")
        diagnostics = self.count_calls(monkeypatch, "slope_diagnostic")
        pipelines = self.count_calls(monkeypatch, "run_pipeline")
        run_spectrum(small_cfg(tmp_path), stage)
        assert (len(psds), len(diagnostics), len(pipelines)) == (1, 0, 1)

    def test_report_is_computed_on_first_read_only(self, tmp_path, monkeypatch):
        res = run_pipeline(small_cfg(tmp_path))
        psds = self.count_calls(monkeypatch, "psd")
        diagnostics = self.count_calls(monkeypatch, "slope_diagnostic")
        report = res.report
        assert res.report is report
        # rf.csv reads the PSD the slope diagnostic was fitted on
        assert harness._stage_psd(res, "rf") is res.rf_psd
        assert (len(psds), len(diagnostics)) == (1, 1)

    def test_lemma_suite_draws_once_for_its_tau_grid(self, monkeypatch):
        # one symbol draw and one g' evaluation for all of LEMMA_TAU_GRID
        draws = self.count_calls(monkeypatch, "draw_symbols", module=oracle)
        derivs = self.count_calls(monkeypatch, "_lemma_sinc_deriv", module=oracle)
        harness._verify_lemma()
        assert (len(draws), len(derivs)) == (1, 1)

    def test_power_sweep_point_filters_each_slice_once(self, tmp_path, monkeypatch):
        # D1 and D2 of the training and of the evaluation slice; order 1
        # reuses order 2's columns
        calls = self.count_calls(monkeypatch, "deriv_filter", module=digital)
        run_sweep_power(small_cfg(tmp_path), [0])
        assert len(calls) == 4

    @pytest.mark.parametrize("order, filterings", [(1, 2), (2, 4)])
    def test_simulate_filters_each_slice_once(self, tmp_path, monkeypatch, order, filterings):
        calls = self.count_calls(monkeypatch, "deriv_filter", module=digital)
        run_simulate(small_cfg(tmp_path, digital_order=order))
        assert len(calls) == filterings

    def test_order1_residual_equals_stand_alone_order1_fit(self, tmp_path):
        res = run_pipeline(small_cfg(tmp_path), digital_order=2)
        fs = res.x.sample_rate_hz
        train = slice(EDGE_GUARD, res.eval_slice.start)
        est = digital.ls_fit(BasebandSignal(res.rx.samples[train], fs),
                             BasebandSignal(res.x.samples[train], fs), 1)
        y_eval = BasebandSignal(res.rx.samples[res.eval_slice], fs)
        canceled = digital.cancel(y_eval, BasebandSignal(res.x.samples[res.eval_slice], fs), est)
        m = digital.EDGE_MARGIN
        assert res.digital_residuals_db[0] == digital.power_db(canceled.samples[m:-m])
        assert res.digital_residuals_db[1] == res.report.digital_residual_db


# Sweep points at both MAX_POWER_DB bounds and inside, and three receivers: the
# ideal one, noise with a 12-bit ADC, and a 1 ns sample offset with a 10-bit ADC.
SHARED_POINTS_DB = (-MAX_POWER_DB, -10.0, 0.0, 7.5, 19.0, MAX_POWER_DB)
RECEIVERS = {"ideal": ReceiverImpairments(),
             "noise_adc12": ReceiverImpairments(noise_power=1e-9, adc_bits=12),
             "offset_adc10": ReceiverImpairments(sample_offset=1e-9, adc_bits=10)}


class TestSharedRuns:
    @pytest.mark.parametrize("receiver", sorted(RECEIVERS))
    @pytest.mark.parametrize("tag", sorted(SHIPPED))
    def test_shared_runs_equal_per_point_runs(self, tag, receiver):
        # every array and float of a shared run is its own run's, bit for bit, and so
        # is its tune result, which holds the accepted states and the readings
        base = dataclasses.replace(load_config(REPO / "configs" / SHIPPED[tag]),
                                   impairments=RECEIVERS[receiver])
        cfgs = [dataclasses.replace(base, channel=dataclasses.replace(base.channel, tx_gain_db=p))
                for p in SHARED_POINTS_DB]
        for got, cfg in zip(harness._runs(cfgs), cfgs, strict=True):
            want = per_point_pipeline(cfg)
            for f in dataclasses.fields(harness.PipelineResult):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(a, BasebandSignal):
                    assert a.sample_rate_hz == b.sample_rate_hz, f.name
                    a, b = a.samples, b.samples
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


def _shipped_points(tag, points_db):
    base = load_config(REPO / "configs" / SHIPPED[tag])
    return [dataclasses.replace(base, channel=dataclasses.replace(base.channel, tx_gain_db=p))
            for p in points_db]


class TestRunsFreeAsTheyGo:
    @pytest.mark.parametrize("tag", sorted(SHIPPED))
    def test_many_points_peak_as_high_as_one(self, tag):
        # a finished point's arrays are freed before the next point runs, so a
        # 30-point run holds no more at its peak than a one-point run
        cfgs = _shipped_points(tag, range(-10, 20))

        def peak_mb(points):
            tracemalloc.start()
            try:  # a consumer that keeps no result while the next one is computed
                collections.deque(harness._runs(points), maxlen=0)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        collections.deque(harness._runs(cfgs[:1]), maxlen=0)  # warm-up, untraced
        one, many = peak_mb(cfgs[:1]), peak_mb(cfgs)
        assert many - one <= 0.1, (one, many)


def _bits_of(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestStagesKeepTheirInputs:
    """No stage writes into an array it was given: each writes only into arrays it made."""

    @pytest.mark.parametrize("tag", sorted(SHIPPED))
    def test_shared_frame_and_unit_si_unchanged_by_runs(self, tag, monkeypatch):
        # after every run: the frame the runs share, and the unit-power SI they each scale
        cfgs, unit_si = _shipped_points(tag, SHARED_POINTS_DB[1:4]), []
        monkeypatch.setattr(harness, "apply_channel", lambda channel, x: unit_si.append(
            apply_channel(channel, x)) or unit_si[-1])
        results = list(harness._runs(cfgs))
        x = gen_frame(cfgs[0].signal)
        assert len(unit_si) == 1 and all(res.x is results[0].x for res in results)
        assert _bits_of(results[0].x.samples) == _bits_of(x.samples)
        assert _bits_of(unit_si[0].samples) == _bits_of(
            apply_channel(cfgs[0].channel.build(), x).samples)

    def test_direct_stage_calls_leave_their_inputs_unchanged(self):
        cfg = load_config(REPO / "configs" / SHIPPED["ofdm"])
        x = gen_frame(cfg.signal)
        train, ev = cfg.slices
        channel = cfg.channel.build()
        det = rfstage.DetectorConfig(window_samples=cfg.detector_window,
                                     symbol_samples=cfg.signal.oversampling)

        def unchanged(call, *arrays):
            before = [_bits_of(a) for a in arrays]
            out = call()
            assert [_bits_of(a) for a in arrays] == before
            return out

        si = unchanged(lambda: apply_channel(channel, x), x.samples)
        amp = cfg.channel.tx_amplitude
        residual, _ = unchanged(lambda: rfstage.tune_vm(x, si, amp, cfg.vm_bits, det,
                                                        cfg.tune_budget), x.samples, si.samples)
        for imp in (*RECEIVERS.values(), ReceiverImpairments(noise_power=1e-9)):
            rx = unchanged(lambda: impair(residual, imp, seed=cfg.seed), residual.samples)
        cols, eval_cols = (unchanged(lambda: digital.design_columns(
            BasebandSignal(x.samples[s], x.sample_rate_hz), 2), x.samples) for s in (train, ev))
        b, y_ev = rx.samples[train], rx.samples[ev]
        unchanged(lambda: digital.fit_orders(cols, eval_cols, b, y_ev), *cols, *eval_cols, b, y_ev)


class TestChannelBuiltOnce:
    def test_thirty_point_runs_build_the_channel_once(self, monkeypatch):
        # the points differ in tx_gain_db alone, which the channel does not hold
        cfgs, built = _shipped_points("ofdm", range(-10, 20)), []
        build = ChannelConfig.build
        monkeypatch.setattr(ChannelConfig, "build", lambda self: built.append(self) or build(self))
        for _ in harness._runs(cfgs):
            pass
        assert len(built) == 1


def _report_text_by_hand(res):
    """The hand-kept report.txt list write_outputs replaced, kept as its oracle."""
    r = res.report
    est = res.estimate
    lines = [
        f"tx_power_db = {r.tx_power_db:.2f}",
        f"rf_residual_db = {r.rf_residual_db:.2f}",
        f"digital_residual_db = {r.digital_residual_db:.2f}",
        f"rf_cancellation_db = {r.rf_cancellation_db:.2f}",
        f"digital_cancellation_db = {r.digital_cancellation_db:.2f}",
        f"total_db = {r.total_db:.2f}",
        f"signal_power_E_s = {r.signal_power_E_s:.6e}",
        f"derivative_power_E_d = {r.derivative_power_E_d:.6e}",
        f"slope_r2 = {r.slope_r2:.4f}",
        f"slope_db_per_decade = {r.slope_db_per_decade:.2f}",
        f"ls_order = {est.order}",
        f"ls_a0_re = {est.a0.real:.12e}",
        f"ls_a0_im = {est.a0.imag:.12e}",
        f"ls_c1_re = {est.c1.real:.12e}",
        f"ls_c1_im = {est.c1.imag:.12e}",
    ]
    if est.order == 2:
        lines += [f"ls_c2_re = {est.c2.real:.12e}",
                  f"ls_c2_im = {est.c2.imag:.12e}"]
    lines += [
        f"ls_residual_db = {est.residual_power_db:.2f}",
        f"tune_iterations = {res.tune.iterations}",
        f"tune_converged = {str(res.tune.converged).lower()}",
        f"vm_g1 = {res.tune.state.g1:.8f}",
        f"vm_g2 = {res.tune.state.g2:.8f}",
    ]
    return "\n".join(lines) + "\n"


class TestReportTxt:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("tag", sorted(SHIPPED))
    def test_matches_hand_kept_list(self, tmp_path, tag, order):
        cfg = dataclasses.replace(load_config(REPO / "configs" / SHIPPED[tag]),
                                  output_dir=str(tmp_path))
        res = run_pipeline(cfg, digital_order=order)
        harness.write_outputs(res)
        assert (tmp_path / "report.txt").read_text() == _report_text_by_hand(res)

    def test_simulate_returns_the_pipeline_report(self, tmp_path):
        cfg = small_cfg(tmp_path)
        assert run_simulate(cfg) == run_pipeline(cfg).report


class TestSimulateReference:
    def test_outputs_match_benchmark_reference(self, tmp_path):
        # Seed 1 of the benchmark runs the shipped configs.
        ref = json.loads((REPO / "perfbench" / "reference.json").read_text())
        assert ref["seed"] == 1
        for tag, name in SHIPPED.items():
            assert cli.main(["simulate", "--config", str(REPO / "configs" / name),
                             "--output-dir", str(tmp_path / tag)]) == 0
        for tag in SHIPPED:
            for name in ("report.txt", "pre.csv", "rf.csv", "digital.csv", "tune_trace.csv"):
                key = f"{tag}/{name}"
                digest = hashlib.sha256((tmp_path / key).read_bytes()).hexdigest()
                assert digest == ref["simulate"]["0"][key], key


class TestSweepPowerReference:
    def test_sweep_points_match_benchmark_reference(self, tmp_path):
        # benchmark op i is the one-point sweep at -10 + i dBm on the OFDM config
        ref = json.loads((REPO / "perfbench" / "reference.json").read_text())["sweep_power"]
        assert len(ref) == 30
        config = str(REPO / "configs" / SHIPPED["ofdm"])
        for i, p in enumerate(range(-10, 20)):
            out = tmp_path / str(i)
            assert cli.main(["sweep-power", "--config", config, f"--dbm={p}",
                             "--output-dir", str(out)]) == 0
            digest = hashlib.sha256((out / "power_sweep.csv").read_bytes()).hexdigest()
            assert digest == ref[str(i)]["power_sweep.csv"], p

    def test_shared_sweep_rows_match_benchmark_reference(self, tmp_path):
        # one 30-point sweep: each row under the header is its one-point op's file
        ref = json.loads((REPO / "perfbench" / "reference.json").read_text())["sweep_power"]
        assert cli.main(["sweep-power", "--config", str(REPO / "configs" / SHIPPED["ofdm"]),
                         "--dbm=-10..19", "--output-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "power_sweep.csv").read_text().splitlines()
        assert len(rows) == len(ref) == 30
        for i, row in enumerate(rows):
            digest = hashlib.sha256(f"{header}\n{row}\n".encode()).hexdigest()
            assert digest == ref[str(i)]["power_sweep.csv"], row


class TestVerifyReference:
    def test_verdicts_match_benchmark_reference(self, tmp_path):
        # criterion 3b fails on purpose, so the poisson suite exits 1
        ref = json.loads((REPO / "perfbench" / "reference.json").read_text())["verify"]["0"]
        for suite in ("lemma", "filters", "oracle-delay", "poisson"):
            code = cli.main(["verify", "--suite", suite, "--output-dir", str(tmp_path)])
            assert code == (1 if suite == "poisson" else 0), suite
            name = f"verdict_{suite}.txt"
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == ref[name], name


def _oracle_delay_serial_loop():
    """The one-thread frame loop _verify_oracle_delay replaced, kept as its oracle."""
    rows = []
    fs = 80e6
    for i in range(10):
        spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=2,
                          ofdm_fft_size=1024, ofdm_used_carriers=620, seed=100 + i)
        x = gen_frame(spec)
        delay = (17 + 13 * i) / (64 * fs)
        a = fractional_delay(x, delay)
        b = oracle.resample_delay_reference(x, delay)
        resid = np.mean(np.abs(a.samples - b.samples) ** 2) / x.mean_power
        db = 10 * np.log10(resid + 1e-300)
        rows.append((f"frame_{i}", f"{db:.1f} dB", db <= -100.0))
    return rows


class TestVerify:
    def test_oracle_delay_pool_matches_serial_loop(self):
        rows = harness._verify_oracle_delay()
        assert [verdict for _, _, verdict in rows] == [True] * 10
        assert rows == _oracle_delay_serial_loop()

    @pytest.mark.parametrize("verdicts, suffixes, overall", [
        ((True, None, False), (" pass", "", " fail"), "fail"),
        ((True, None), (" pass", ""), "pass"),
        ((None,), ("",), "pass"),
        ((np.True_, np.False_), (" pass", " fail"), "fail"),
    ])
    def test_one_verdict_rule(self, tmp_path, monkeypatch, verdicts, suffixes, overall):
        monkeypatch.setitem(harness.VERIFY_SUITES, "fake",
                            lambda: [(f"k{i}", "1.0 dB", v) for i, v in enumerate(verdicts)])
        assert run_verify("fake", output_dir=str(tmp_path)) is (overall == "pass")
        lines = ["suite = fake", *(f"k{i} = 1.0 dB{s}" for i, s in enumerate(suffixes)),
                 f"overall = {overall}"]
        assert (tmp_path / "verdict_fake.txt").read_text() == "\n".join(lines) + "\n"

    def test_oracle_delay_independent_of_worker_count(self, monkeypatch):
        pool_sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        results = []
        for cpus in (1, 3):
            monkeypatch.setattr(harness.os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            results.append(harness._verify_oracle_delay())
        assert pool_sizes == [1, 3]
        assert results[0] == results[1]

    def test_oracle_delay_frame_error_reaches_caller(self, tmp_path, monkeypatch):
        real = oracle.resample_delay_reference
        bad_delay = (17 + 13 * 4) / (64 * 80e6)

        def failing(signal, delay_s):
            if delay_s == bad_delay:
                raise RuntimeError("frame 4 failed")
            return real(signal, delay_s)
        monkeypatch.setattr(oracle, "resample_delay_reference", failing)
        with pytest.raises(RuntimeError, match="frame 4 failed"):
            run_verify("oracle-delay", output_dir=str(tmp_path))
        assert not (tmp_path / "verdict_oracle-delay.txt").exists()

    def test_filters_suite_passes(self, tmp_path):
        assert run_verify("filters", output_dir=str(tmp_path))
        text = (tmp_path / "verdict_filters.txt").read_text()
        assert "overall = pass" in text

    def test_poisson_suite_reports_gap(self, tmp_path):
        ok = run_verify("poisson", output_dir=str(tmp_path))
        text = (tmp_path / "verdict_poisson.txt").read_text()
        assert "fhat0_numeric" in text and "pass" in text.split("fhat0_numeric")[1].split("\n")[0]
        assert "overall = fail" in text
        assert not ok

    @pytest.mark.parametrize("gap_max, verdict", [(harness.POISSON_GAP_MAX, "fail"), (1.0, "pass")])
    def test_poisson_gap_verdict_reads_its_bound(self, tmp_path, monkeypatch, gap_max, verdict):
        # the gap is 0.418412 whatever the bound; only harness.POISSON_GAP_MAX judges it
        monkeypatch.setattr(harness, "POISSON_GAP_MAX", gap_max)
        run_verify("poisson", output_dir=str(tmp_path))
        lines = (tmp_path / "verdict_poisson.txt").read_text().splitlines()
        assert f"direct_vs_closed_max_gap = 0.418412 {verdict}" in lines
        assert "sup_direct_sum = 0.627319 fail" in lines

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(ValueError):
            run_verify("nonsense", output_dir=str(tmp_path))


class TestSpectrumCommand:
    def test_writes_requested_stage(self, tmp_path):
        cfg = small_cfg(tmp_path)
        path = run_spectrum(cfg, "rf")
        assert path.name == "rf.csv"
        header = path.read_text().splitlines()[0]
        assert header == "freq_hz,power_db"

    def test_each_stage_matches_simulate(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_simulate(dataclasses.replace(cfg, output_dir=str(tmp_path / "sim")))
        for stage in harness.STAGES:
            path = run_spectrum(cfg, stage)
            assert path.read_bytes() == (tmp_path / "sim" / f"{stage}.csv").read_bytes()

    def test_unknown_stage_rejected_before_the_run(self, tmp_path, monkeypatch):
        def no_run(*args):
            raise AssertionError("the pipeline ran for an unknown stage")
        monkeypatch.setattr(harness, "run_pipeline", no_run)
        with pytest.raises(ValueError, match="^unknown stage 'bogus'$"):
            run_spectrum(small_cfg(tmp_path), "bogus")


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg_a = small_cfg(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = small_cfg(tmp_path, output_dir=str(tmp_path / "b"))
        run_simulate(cfg_a)
        run_simulate(cfg_b)
        for name in ("report.txt", "pre.csv", "rf.csv", "digital.csv", "tune_trace.csv"):
            a = (Path(cfg_a.output_dir) / name).read_bytes()
            b = (Path(cfg_b.output_dir) / name).read_bytes()
            assert a == b


def _run_at_blas_threads(tmp_path, script, args):
    """{threads: (stdout, {relative path: bytes})} of `python -c script args`,
    run in a fresh directory at 1 and at 2 BLAS/OpenMP threads."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              cwd=out, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = (proc.stdout, {p.relative_to(out).as_posix(): p.read_bytes()
                                       for p in sorted(out.rglob("*")) if p.is_file()})
    return runs


@pytest.mark.skipif(USABLE_CPUS < 2, reason="needs 2 usable CPUs")
class TestBlasThreads:
    def test_outputs_independent_of_blas_thread_count(self, tmp_path):
        # A BLAS product may split a sum differently per thread count; every
        # output file must come out the same at one BLAS thread and at two.
        configs = REPO / "configs"
        runs = [["simulate", "--config", str(configs / name), "--output-dir", tag]
                for tag, name in SHIPPED.items()]
        runs.append(["sweep-power", "--config", str(configs / SHIPPED["ofdm"]), "--dbm=0",
                     "--output-dir", "sweep"])
        script = ("import json, sys\nfrom fdsic import cli\n"
                  "for argv in json.loads(sys.argv[1]):\n    assert cli.main(argv) == 0\n")
        files = {t: f for t, (_, f) in _run_at_blas_threads(tmp_path, script,
                                                            [json.dumps(runs)]).items()}
        assert len(files["1"]) == 11  # five per simulate, plus power_sweep.csv
        for name, data in files["1"].items():
            assert files["2"][name] == data, name
        assert files["2"].keys() == files["1"].keys()

    def test_detector_sums_independent_of_blas_thread_count(self, tmp_path):
        # The tuner accepts a step when its reading is lower, so a last-bit
        # change in detector_env's three sums could flip a near-tie.
        script = (
            "import sys\nfrom fdsic import rfstage\n"
            "from fdsic.channel import apply_channel\nfrom fdsic.config import load_config\n"
            "from fdsic.signals import BasebandSignal, gen_frame\n"
            "for path in sys.argv[1:]:\n"
            "    cfg = load_config(path)\n"
            "    x, channel = gen_frame(cfg.signal), cfg.channel.build()\n"
            "    tap = BasebandSignal(cfg.channel.tx_amplitude * x.samples, x.sample_rate_hz)\n"
            "    det = rfstage.DetectorConfig(cfg.detector_window, cfg.signal.oversampling)\n"
            "    env = rfstage.detector_env(apply_channel(channel, x), tap, det)\n"
            "    cells = dict(zip(env.__code__.co_freevars, env.__closure__))\n"
            "    print([complex(cells[k].cell_contents) for k in ('ss', 'st', 'tt')])\n")
        paths = [str(REPO / "configs" / name) for name in SHIPPED.values()]
        runs = _run_at_blas_threads(tmp_path, script, paths)
        assert len(runs["1"][0].splitlines()) == 2
        assert runs["2"][0] == runs["1"][0]


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "fdsic.cli", *args],
                              capture_output=True, text=True, cwd=REPO)

    def test_simulate_smoke(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_config(ExperimentConfig(
            signal=SignalSpec(kind="ofdm", num_symbols=8, seed=1),
            output_dir=str(tmp_path / "out"), tune_budget=800), cfg_path)
        proc = self._run("simulate", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        assert "total_db" in proc.stdout
        assert (tmp_path / "out" / "report.txt").exists()

    def test_verify_exit_codes(self, tmp_path):
        ok = self._run("verify", "--suite", "filters",
                       "--output-dir", str(tmp_path))
        assert ok.returncode == 0
        bad = self._run("verify", "--suite", "poisson",
                        "--output-dir", str(tmp_path))
        assert bad.returncode == 1

    def test_spectrum_smoke(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        save_config(ExperimentConfig(
            signal=SignalSpec(kind="ofdm", num_symbols=8, seed=1),
            output_dir=str(tmp_path / "out"), tune_budget=800), cfg_path)
        proc = self._run("spectrum", "--config", str(cfg_path), "--stage", "pre")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "pre.csv").exists()

    @pytest.mark.parametrize("stage", ["pre", "rf", "digital"])
    def test_spectrum_writes_simulate_csv(self, tmp_path, capsys, stage):
        cfg_path = tmp_path / "exp.cfg"
        save_config(small_cfg(tmp_path), cfg_path)
        spec_dir, sim_dir = tmp_path / "spectrum", tmp_path / "simulate"
        assert cli.main(["spectrum", "--config", str(cfg_path), "--stage", stage,
                         "--output-dir", str(spec_dir)]) == 0
        assert capsys.readouterr().out == f"wrote {spec_dir / f'{stage}.csv'}\n"
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output-dir", str(sim_dir)]) == 0
        assert ((spec_dir / f"{stage}.csv").read_bytes()
                == (sim_dir / f"{stage}.csv").read_bytes())

    @pytest.mark.parametrize("command, flag, text", [
        ("sweep-power", "--dbm", "5..-3"),      # reversed range
        ("sweep-power", "--dbm", "1.5..3"),     # non-integer range
        ("sweep-bandwidth", "--bw", ","),       # empty list
        ("sweep-power", "--dbm", "1.."),        # open range
        ("sweep-power", "--dbm", "a..b"),       # range of words
        ("sweep-power", "--dbm", "1..2..3"),    # three bounds
        ("sweep-power", "--dbm", "x"),          # a word
        ("sweep-bandwidth", "--bw", "20e6,x"),  # a word in a list
    ])
    def test_bad_sweep_list_is_usage_error(self, tmp_path, capsys, command, flag, text):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, f"{flag}={text}", "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument {flag}: {text!r} is neither an integer range lo..hi with lo <= hi "
                "nor a list of comma-separated numbers") in err
        assert "_sweep_points" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, text, csv", [
        ("sweep-power", "--dbm", "-1..0", "power_sweep.csv"),
        ("sweep-power", "--dbm", "-3,0", "power_sweep.csv"),
        ("sweep-bandwidth", "--bw", "20e6", "bandwidth_sweep.csv"),
    ])
    def test_spaced_sweep_list_equals_joined_form(self, tmp_path, command, flag, text, csv):
        # a spaced value that starts with "-" is the flag's value, not an option
        cfg_path = tmp_path / "exp.cfg"
        save_config(small_cfg(tmp_path), cfg_path)
        for form, args in (("spaced", [flag, text]), ("joined", [f"{flag}={text}"])):
            assert cli.main([command, "--config", str(cfg_path), *args,
                             "--output-dir", str(tmp_path / form)]) == 0
        assert ((tmp_path / "spaced" / csv).read_bytes()
                == (tmp_path / "joined" / csv).read_bytes())

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--config", "{gain}"], "tx_gain_db = 4000.0 is out of range"),
        (["simulate", "--config", "{missing}"], "No such file or directory: '{missing}'"),
        (["sweep-power", "--dbm=0,4000"], "tx_gain_db = 4000.0 is out of range"),
        (["sweep-bandwidth", "--bw=-5e6"],
         "fdsic: error: bandwidth_hz = -5000000.0 must be positive\n"),
        (["simulate", "--config", "{signal_seed}"], "[signal]: seed = -1 must not be negative"),
        (["simulate", "--config", "{run_seed}"], "[run]: seed = -1 must not be negative"),
        (["sweep-power", "--dbm=0,-inf"], "tx_gain_db = -inf must be finite"),
        # SignalSpec refuses a single-carrier sinc frame at oversampling 1
        (["simulate", "--config", "{sinc}"],
         "fdsic: error: invalid [signal]: oversampling = 1 must be >= 2 for the sinc pulse\n"),
        # the [digital] key is order, and the message says so
        (["simulate", "--config", "{order}"], "fdsic: error: order = 3 must be 1 or 2\n"),
        # transmit gain and noise power past channel.MAX_POWER_DB
        (["sweep-power", "--dbm=0,1001"], "tx_gain_db = 1001.0 is out of range"),
        (["simulate", "--config", "{noise}"],
         "fdsic: error: invalid [impairments]: noise_power = 1e+306 is out of range\n"),
        # tap and circulator gains past it, just above and far above
        (["simulate", "--config", "{taps}"],
         "fdsic: error: invalid [channel]: taps = 1000.0000000000001 is out of range\n"),
        (["simulate", "--config", "{circulator}"],
         "fdsic: error: invalid [channel]: circulator_gain_db = 3000.0 is out of range\n"),
    ])
    def test_refused_input_exits_2_with_one_line(self, tmp_path, capsys, args, message):
        paths = {name: tmp_path / f"{name}.cfg"
                 for name in ("gain", "missing", "signal_seed", "run_seed", "sinc", "order",
                              "noise", "taps", "circulator")}
        paths["gain"].write_text("[channel]\ntx_gain_db = 4000\n")
        paths["signal_seed"].write_text("[signal]\nseed = -1\n")
        paths["run_seed"].write_text("[run]\nseed = -1\n")
        paths["sinc"].write_text("[signal]\nkind = single-carrier\npulse = sinc\noversampling = 1\n")
        paths["order"].write_text("[digital]\norder = 3\n")
        paths["noise"].write_text("[impairments]\nnoise_power = 1e306\n")
        paths["taps"].write_text("[channel]\ntaps = 1000.0000000000001:0\n")
        paths["circulator"].write_text("[channel]\ncirculator_gain_db = 3000\n")
        args = [a.format(**paths) for a in args]
        assert cli.main([*args, "--output-dir", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("fdsic: error: ") and err.count("\n") == 1
        assert message.format(**paths) in err
        assert not (tmp_path / "out").exists()

    def test_refused_config_exits_2_from_the_command_line(self, tmp_path):
        proc = self._run("simulate", "--config", str(tmp_path / "missing.cfg"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("fdsic: error: [Errno 2] ") and "Traceback" not in proc.stderr

    def test_pipeline_error_keeps_its_traceback(self, tmp_path, monkeypatch):
        # a ValueError inside the pipeline is a bug, not a refused input
        def broken(*args):
            raise ValueError("inside the pipeline")
        monkeypatch.setattr(harness, "gen_frame", broken)
        with pytest.raises(ValueError, match="inside the pipeline"):
            cli.main(["simulate", "--output-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("args, written", [
        (["simulate"], "report.txt"),
        (["sweep-power", "--dbm=0"], "power_sweep.csv"),
        (["sweep-bandwidth", "--bw=20e6"], "bandwidth_sweep.csv"),
        (["spectrum", "--stage", "pre"], "pre.csv"),
        (["verify", "--suite", "filters"], "verdict_filters.txt"),
    ])
    def test_empty_output_dir_is_the_current_directory(self, tmp_path, monkeypatch, capsys,
                                                       args, written):
        cfg_path = tmp_path / "exp.cfg"
        save_config(small_cfg(tmp_path), cfg_path)  # its own output_dir is tmp_path / "out"
        monkeypatch.chdir(tmp_path)
        config = [] if args[0] == "verify" else ["--config", str(cfg_path)]
        assert cli.main([*args, *config, "--output-dir", ""]) == 0
        assert (tmp_path / written).is_file()
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _no_frame(*_):
        raise AssertionError("a frame was made")

    @pytest.mark.parametrize("under", ["", "/out/sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("args", [
        ["simulate"],
        ["sweep-power", "--dbm=0"],
        ["sweep-bandwidth", "--bw=20e6"],
        ["spectrum", "--stage", "rf"],
        ["verify", "--suite", "oracle-delay"],  # the one suite that makes frames
    ], ids=lambda args: args[0])
    def test_output_dir_at_or_under_a_file_is_refused_before_the_run(
            self, tmp_path, monkeypatch, capsys, args, under):
        monkeypatch.setattr(harness, "gen_frame", self._no_frame)
        (tmp_path / "file").write_text("kept\n")
        out_dir = f"{tmp_path / 'file'}{under}"
        assert cli.main([*args, "--output-dir", out_dir]) == 2
        assert capsys.readouterr() == ("", f"fdsic: error: output_dir = {out_dir!r}: "
                                           f"{str(tmp_path / 'file')!r} is not a directory\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_run_section_output_dir_under_a_file_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "gen_frame", self._no_frame)
        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"[run]\noutput_dir = {tmp_path / 'file' / 'out'}\n")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("fdsic: error: output_dir = ")
        assert sorted(tmp_path.iterdir()) == [cfg_path, tmp_path / "file"]

    @pytest.mark.parametrize("tag", sorted(SHIPPED))
    def test_simulate_runs_at_a_bandwidth_of_1e_minus_200_hz(self, tmp_path, capsys, tag):
        # the slope fit's |f| ~ 1e-200 Hz, where np.polyfit on |f| itself fails
        text = (REPO / "configs" / SHIPPED[tag]).read_text()
        path = tmp_path / "tiny.cfg"
        path.write_text(re.sub(r"(?m)^bandwidth_hz = .*$", "bandwidth_hz = 1e-200", text))
        assert load_config(path).signal.bandwidth_hz == 1e-200
        assert cli.main(["simulate", "--config", str(path),
                         "--output-dir", str(tmp_path / "out")]) == 0

    def test_parser_is_built_once_and_keeps_no_state(self):
        assert cli._parser() is cli._parser()
        first = cli._parser().parse_args(["sweep-power"])
        first.dbm.append(99)
        assert cli._parser().parse_args(["sweep-power"]).dbm == list(range(-10, 20))

    def test_no_scipy_import(self, tmp_path):
        # scipy.signal alone takes about 1 s to import; no fdsic module and
        # no simulate run may pull scipy in
        cfg = small_cfg(tmp_path)
        save_config(cfg, tmp_path / "small.cfg")
        script = (
            "import importlib, pkgutil, sys\n"
            "import fdsic\n"
            "for m in pkgutil.iter_modules(fdsic.__path__):\n"
            "    importlib.import_module('fdsic.' + m.name)\n"
            "from fdsic import cli\n"
            "assert cli.main(['simulate', '--config', sys.argv[1]]) == 0\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "small.cfg")],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert proc.returncode == 0, proc.stderr
        assert (Path(cfg.output_dir) / "report.txt").is_file()
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_repeat_run_reuses_freed_memory(self, tmp_path):
        # A second simulate in the same process finds its ~1 MB arrays in the
        # heap the first one freed: without fixed malloc thresholds it
        # page-faults about 4,600 pages back in (OFDM config), with them none.
        script = (
            "import resource, sys\n"
            "from fdsic import cli\n"
            "def run():\n"
            "    cli.main(['simulate', '--config', sys.argv[1], '--output-dir', sys.argv[2]])\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "first = run()\n"
            "print(run() - first)\n")
        proc = subprocess.run([sys.executable, "-c", script,
                               str(REPO / "configs" / "ofdm_20mhz.cfg"), str(tmp_path)],
                              capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 500

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_pool_threads_share_one_malloc_arena(self, tmp_path):
        # oracle-delay runs its frames on a thread pool; with glibc's default each
        # pool thread gets a heap of its own, which keeps a frame's working set
        script = (
            "import ctypes, sys\n"
            "from fdsic import cli\n"
            "cli.main(['verify', '--suite', 'oracle-delay', '--output-dir', sys.argv[1]])\n"
            "libc = ctypes.CDLL(None)\n"
            "libc.fopen.restype = ctypes.c_void_p\n"
            "libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]\n"
            "libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]\n"
            "libc.fclose.argtypes = [ctypes.c_void_p]\n"
            "fp = libc.fopen(sys.argv[2].encode(), b'w')\n"
            "libc.malloc_info(0, fp)\n"
            "libc.fclose(fp)\n")
        info = tmp_path / "malloc_info.xml"
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(info)],
                              capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        assert info.read_text().count("<heap nr=") == 1


def test_reproduce_trends_quick_writes_what_it_reports(tmp_path, monkeypatch, capsys):
    path = REPO / "scripts" / "reproduce_trends.py"
    module_spec = importlib.util.spec_from_file_location("reproduce_trends", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path), "--quick", "--out", str(tmp_path)])
    module.main()
    out = capsys.readouterr().out
    assert f"power sweep written to {tmp_path / 'power' / 'power_sweep.csv'}\n" in out
    for name in ("ofdm_20mhz", "single_carrier_10mhz"):
        assert f"{name}: rf=" in out
        assert (tmp_path / name / "report.txt").is_file()
    for name in ("bandwidth_full", "bandwidth_circulator"):
        assert (tmp_path / name / "bandwidth_sweep.csv").is_file()
    # the script's OFDM runs are the CLI's, byte for byte
    config, cli_out = str(REPO / "configs" / "ofdm_20mhz.cfg"), tmp_path / "cli"
    assert cli.main(["simulate", "--config", config, "--output-dir", str(cli_out)]) == 0
    assert cli.main(["sweep-power", "--config", config, "--dbm=-10,-5,0,5,10,15",
                     "--output-dir", str(cli_out)]) == 0
    for subdir, name in (("ofdm_20mhz", "report.txt"), ("power", "power_sweep.csv")):
        assert (tmp_path / subdir / name).read_bytes() == (cli_out / name).read_bytes()
