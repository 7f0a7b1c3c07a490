import dataclasses
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fdsic import harness
from fdsic.channel import ReceiverImpairments
from fdsic.config import ChannelConfig, ExperimentConfig, load_config, save_config
from fdsic.harness import (run_pipeline, run_simulate, run_spectrum,
                           run_sweep_bandwidth, run_sweep_power, run_verify)
from fdsic.signals import SignalSpec

REPO = Path(__file__).resolve().parents[1]


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


# Random valid configs. sample_offset stays under 1 ns, below the shortest
# sample period drawn here (1.25 ns at 100 MHz x 8).
VALID_CONFIGS = st.builds(
    ExperimentConfig,
    signal=st.builds(
        SignalSpec, kind=st.sampled_from(["ofdm", "single-carrier"]),
        bandwidth_hz=_floats(1e3, 1e8), oversampling=st.integers(1, 8),
        num_symbols=st.integers(1, 10**5), constellation=st.sampled_from(["qpsk4", "qam16"]),
        pulse=st.sampled_from(["sinc", "rrc"]), rolloff=_floats(0.0, 1.0),
        ofdm_fft_size=st.sampled_from([256, 1024]), ofdm_used_carriers=st.integers(1, 255),
        seed=st.integers(0, 2**32)),
    channel=st.builds(
        ChannelConfig, carrier_hz=_floats(1e6, 1e11), tx_gain_db=_floats(-50.0, 50.0),
        taps_db_ns=st.lists(st.tuples(_floats(-80.0, 0.0), _floats(0.0, 100.0)),
                            max_size=3).map(tuple),
        reflector_distances_m=st.lists(_floats(0.01, 10.0), max_size=3).map(tuple),
        circulator_gain_db=st.none() | _floats(-60.0, 0.0),
        circulator_delay_ns=_floats(0.0, 10.0), pathloss_cap_db=_floats(-60.0, 0.0),
        pathloss_alpha=_floats(2.5, 6.0), pathloss_calib_distance_m=_floats(0.01, 10.0),
        pathloss_calib_db=_floats(-90.0, 0.0)),
    impairments=st.builds(
        ReceiverImpairments, noise_power=_floats(0.0, 1.0),
        adc_bits=st.sampled_from([0, 4, 12, 16]), sample_offset=_floats(0.0, 1e-9)),
    vm_bits=st.integers(2, 24), detector_window=st.integers(1, 10**6),
    tune_budget=st.integers(1, 5000), digital_order=st.sampled_from([1, 2]),
    train_len=st.integers(100, 10**5), output_dir=st.sampled_from(["out", "runs/a b"]),
    seed=st.integers(0, 2**32))


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
        # rejected by the section's dataclass: its message, under the section
        ("[signal]\nkind = foo\n", "[signal]: unknown signal kind 'foo'"),
        ("[impairments]\nnoise_power = -1.0\n", "[impairments]: noise_power must be >= 0"),
    ])
    def test_rejects_unknown_or_bad_entry(self, tmp_path, text, name):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(name)):
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

    def test_shipped_configs_parse(self):
        for name in ("ofdm_20mhz.cfg", "single_carrier_10mhz.cfg"):
            cfg = load_config(REPO / "configs" / name)
            assert cfg.vm_bits == 16


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


class TestSweeps:
    def test_bandwidth_single_point_matches_simulate(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = run_sweep_bandwidth(cfg, [20e6])
        report = run_pipeline(cfg).report
        assert rows[0][1] == pytest.approx(report.rf_cancellation_db, abs=1e-9)
        assert (Path(cfg.output_dir) / "bandwidth_sweep.csv").exists()

    def test_bandwidth_trend(self, tmp_path):
        rows = run_sweep_bandwidth(small_cfg(tmp_path), [5e6, 10e6, 15e6, 20e6])
        rf = [r[1] for r in rows]
        assert all(a > b for a, b in zip(rf, rf[1:]))

    def test_bandwidth_sweep_validates_every_point_first(self, tmp_path, monkeypatch):
        # 10 ns is below T_s = 12.5 ns at 20 MHz x 4, but not at 40 MHz x 4
        cfg = small_cfg(tmp_path, impairments=ReceiverImpairments(sample_offset=10e-9))
        monkeypatch.setattr(harness, "run_pipeline", lambda c: pytest.fail("point ran"))
        with pytest.raises(ValueError, match="sample_offset"):
            run_sweep_bandwidth(cfg, [20e6, 40e6])
        assert not (Path(cfg.output_dir) / "bandwidth_sweep.csv").exists()

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
        # the sweep shares one front end between both orders; two full
        # pipeline runs are the reference
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
    # fewer than 256 to evaluate on
    @pytest.mark.parametrize("key, value", [("train_len", 36_500),
                                            ("detector_window", 36_865)])
    def test_frame_limits_fail_before_tuning(self, tmp_path, monkeypatch, key, value):
        cfg = small_cfg(tmp_path, **{key: value})
        monkeypatch.setattr(harness, "rf_stage", lambda *a: pytest.fail("RF stage ran"))
        with pytest.raises(ValueError, match=key):
            run_pipeline(cfg)

    def test_power_sweep_digital_grows_with_power_under_fixed_noise(self, tmp_path):
        cfg = small_cfg(tmp_path,
                        impairments=ReceiverImpairments(noise_power=1e-10))
        rows = run_sweep_power(cfg, [-10, 0, 10, 19])
        dig2 = [row[3] for row in rows]
        assert all(a < b for a, b in zip(dig2, dig2[1:]))


class TestVerify:
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

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_verify("nonsense")


class TestSpectrumCommand:
    def test_writes_requested_stage(self, tmp_path):
        cfg = small_cfg(tmp_path)
        path = run_spectrum(cfg, "rf")
        assert path.name == "rf.csv"
        header = path.read_text().splitlines()[0]
        assert header == "freq_hz,power_db"


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
