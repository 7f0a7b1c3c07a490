"""Acceptance gate: one test per numbered criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3's middle clause (direct kernel periodization equals the
closed form) is implemented exactly as stated and fails: the direct sum is
provably constant at ~pi/5 = 0.628 while the closed form never exceeds
0.293. See notes in the oracle module; the remaining criteria pass.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from fdsic.config import ChannelConfig, ExperimentConfig
from fdsic.digital import D1_3TAP, D1_9TAP, complexity, deriv_filter, filter_response, ls_fit
from fdsic.harness import run_pipeline, run_simulate, run_sweep_power
from fdsic.oracle import (FHAT0_CLOSED, exact_delay_oracle,
                          kernel_fourier0_numeric, poisson_check,
                          resample_delay_reference)
from fdsic.rfstage import DetectorConfig, rf_stage
from fdsic.signals import SignalSpec, gen_frame, make_signal
from fdsic.taylor import LEMMA_CONST, total_error_budget
from fdsic.channel import fractional_delay

TAU_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)

SINC_SPEC = SignalSpec(kind="single-carrier", bandwidth_hz=1.0, oversampling=4,
                       num_symbols=8, pulse="sinc", seed=1)


def _line(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def lemma_runs():
    t0 = time.monotonic()
    runs = {tau: exact_delay_oracle(SINC_SPEC, tau, trials=100_000)
            for tau in TAU_GRID}
    return runs, time.monotonic() - t0


def test_criterion_1_lemma_bound(lemma_runs):
    runs, elapsed = lemma_runs
    margins = []
    ok = True
    for tau, r in runs.items():
        bound = LEMMA_CONST * tau**4
        ok &= r["err_power"] <= bound
        margins.append(r["err_power"] / bound)
    ok &= elapsed < 60.0
    _line(1, ok, f"max err/bound={max(margins):.3f}, runtime={elapsed:.1f}s")
    assert ok


def test_criterion_2_quartic_scaling(lemma_runs):
    runs, _ = lemma_runs
    errs = [runs[tau]["err_power"] for tau in TAU_GRID]
    slope = float(np.polyfit(np.log10(TAU_GRID), np.log10(errs), 1)[0])
    ok = abs(slope - 4.0) <= 0.2
    _line(2, ok, f"log-log slope={slope:.3f}")
    assert ok


def test_criterion_3a_kernel_transform_constant():
    fhat0 = kernel_fourier0_numeric()
    ok = abs(fhat0 - 0.25066) <= 1e-5 and abs(fhat0 - FHAT0_CLOSED) <= 1e-6
    _line("3a", ok, f"numeric fhat(0)={fhat0:.8f} vs (1/5)sqrt(pi/2)={FHAT0_CLOSED:.8f}")
    assert ok


def test_criterion_3b_poisson_periodization_matches_closed_form():
    # stated requirement: the |n| <= 1000 periodization of the kernel equals
    # fhat0 + 2 fhat1 cos(2 pi d) within 1e-6 on a 100-point grid, with
    # supremum <= 0.3. The periodization is mathematically constant at
    # ~pi/5 = 0.628 (the kernel spectrum is empty beyond angular frequency
    # 2 < 2 pi), so this cannot hold; the assertion is kept as stated.
    grid = np.linspace(0.0, 1.0, 100)
    checks = [poisson_check(d) for d in grid]
    max_gap = max(abs(c.direct_sum - c.closed_form) for c in checks)
    sup_direct = max(c.direct_sum for c in checks)
    ok = max_gap <= 1e-6 and sup_direct <= 0.3
    _line("3b", ok, f"max |direct-closed|={max_gap:.6f}, sup direct={sup_direct:.6f}")
    assert ok


def test_criterion_4_filter_fidelity():
    # "normalized frequency 0.3" on the Nyquist-normalized axis of the
    # response plot = 0.15 cycles/sample
    grid = np.linspace(1e-4, 0.15, 3000)
    h9 = filter_response(D1_9TAP, grid)
    dev = float(np.max(np.abs(h9 - 1j * 2 * np.pi * grid) / (2 * np.pi * grid)))
    h3 = filter_response(D1_3TAP, grid)
    err3 = float(np.max(np.abs(h3 - 1j * 2 * np.sin(2 * np.pi * grid))))
    ok = dev <= 0.02 and err3 <= 1e-12
    _line(4, ok, f"9-tap max rel dev={dev:.5f}, 3-tap form err={err3:.1e}")
    assert ok


def test_criterion_5_ls_exactness():
    rng = np.random.default_rng(6)
    freqs = np.fft.fftfreq(16384)
    spectrum = np.zeros(16384, dtype=complex)
    mask = np.abs(freqs) <= 0.08
    spectrum[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    base = np.fft.ifft(spectrum)
    x = make_signal(base / np.sqrt(np.mean(np.abs(base) ** 2)), 80e6)
    a0, c1 = 0.8 - 0.3j, 0.05 + 0.02j
    d1 = deriv_filter(x, D1_9TAP)
    y = make_signal(a0 * x.samples - c1 * d1.samples, 80e6)
    est = ls_fit(y, x, order=1)
    rel_a0 = abs(est.a0 - a0) / abs(a0)
    rel_c1 = abs(est.c1 - c1) / abs(c1)
    ok = rel_a0 <= 1e-10 and rel_c1 <= 1e-10 and est.residual_power_db <= -120.0
    _line(5, ok, f"rel errs a0={rel_a0:.1e} c1={rel_c1:.1e}, "
                 f"residual={est.residual_power_db:.1f} dB")
    assert ok


@pytest.fixture(scope="module")
def default_cfg(tmp_path_factory):
    return ExperimentConfig(
        signal=SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=1),
        output_dir=str(tmp_path_factory.mktemp("acc")),
        tune_budget=1200,
    )


def _rf_cancellation(channel_cfg, bw, seed=1, vm_bits=16):
    x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=bw, num_symbols=12, seed=seed))
    det = DetectorConfig(window_samples=16384, symbol_samples=4)
    residual, _, _ = rf_stage(x, channel_cfg.build(), vm_bits, det, budget=1200)
    return -10 * np.log10(residual.mean_power)


def test_criterion_6_rf_stage_trend():
    full = ChannelConfig()
    circ_only = ChannelConfig(reflector_distances_m=())
    bws = (5e6, 10e6, 15e6, 20e6)
    rf_full = [_rf_cancellation(full, bw) for bw in bws]
    rf_circ = [_rf_cancellation(circ_only, bw) for bw in bws]
    ok = rf_full[-1] >= 50.0
    ok &= all(a > b for a, b in zip(rf_full, rf_full[1:]))
    ok &= all(c >= f for c, f in zip(rf_circ, rf_full))
    _line(6, ok, "full=" + "/".join(f"{v:.1f}" for v in rf_full)
          + " dB, circ-only=" + "/".join(f"{v:.1f}" for v in rf_circ) + " dB")
    assert ok


def test_criterion_7_residual_slope(default_cfg):
    results = {}
    for label, spec in {
        "ofdm20": SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=12, seed=1),
        "sc10": SignalSpec(kind="single-carrier", bandwidth_hz=10e6, pulse="rrc",
                           rolloff=0.3, num_symbols=12000, seed=2),
    }.items():
        cfg = dataclasses.replace(default_cfg, signal=spec)
        results[label] = run_pipeline(cfg).report.slope_r2
    ok = all(r2 >= 0.9 for r2 in results.values())
    _line(7, ok, ", ".join(f"{k}: R^2={v:.3f}" for k, v in results.items()))
    assert ok


def test_criterion_8_end_to_end(default_cfg):
    # noiseless receiver, order-2 digital stage, 10 seeds
    totals2, totals1 = [], []
    residuals = []
    for seed in range(10):
        spec = dataclasses.replace(default_cfg.signal, seed=seed)
        cfg = dataclasses.replace(default_cfg, signal=spec, seed=seed)
        r2 = run_pipeline(cfg, digital_order=2).report
        r1 = run_pipeline(cfg, digital_order=1).report
        totals2.append(r2.total_db)
        totals1.append(r1.total_db)
        residuals.append(r2.digital_residual_db)
    budget = total_error_budget(default_cfg.channel.build(),
                                1.0 / default_cfg.signal.bandwidth_hz, order=1)
    budget_db = 10 * np.log10(budget.total_bound)
    ok = min(totals2) >= 70.0
    ok &= all(t2 >= t1 for t2, t1 in zip(totals2, totals1))
    ok &= all(r <= budget_db + 3.0 for r in residuals)
    _line(8, ok, f"min total(order2)={min(totals2):.1f} dB, "
                 f"max residual={max(residuals):.1f} dB vs budget+3={budget_db + 3:.1f} dB")
    assert ok


def test_criterion_9_power_sweep(default_cfg, tmp_path):
    cfg = dataclasses.replace(default_cfg, output_dir=str(tmp_path))
    rows = run_sweep_power(cfg, list(range(-10, 20)))
    rf = [row[1] for row in rows]
    ok = max(rf) - min(rf) <= 1.0
    _line(9, ok, f"rf spread={max(rf) - min(rf):.3f} dB over [-10, 19] dBm")
    assert ok


def test_criterion_10_complexity():
    c1 = complexity(1000, 9, 30)["proposed_with_filter"]
    c2 = complexity(1000, 9, 30)["tapline_ops"]
    ok = c1 == 22008 and c2 == 61800
    _line(10, ok, f"(2L+4)N+8={c1}, 2KN+2K^2={c2}")
    assert ok


def test_criterion_11_delay_cross_check():
    worst = -np.inf
    ok = True
    for i in range(10):
        spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=2,
                          ofdm_fft_size=1024, ofdm_used_carriers=620, seed=200 + i)
        x = gen_frame(spec)
        tau = (5 + 11 * i) / (64 * x.sample_rate_hz)
        a = fractional_delay(x, tau)
        b = resample_delay_reference(x, tau)
        db = 10 * np.log10(np.mean(np.abs(a.samples - b.samples) ** 2)
                           / x.mean_power + 1e-300)
        worst = max(worst, db)
        ok &= db <= -100.0
    _line(11, ok, f"worst residual={worst:.1f} dB over 10 frames")
    assert ok


def test_criterion_12_determinism(tmp_path):
    spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=8, seed=1)
    cfg_a = ExperimentConfig(signal=spec, output_dir=str(tmp_path / "a"),
                             tune_budget=800)
    cfg_b = dataclasses.replace(cfg_a, output_dir=str(tmp_path / "b"))
    run_simulate(cfg_a)
    run_simulate(cfg_b)
    names = ("report.txt", "pre.csv", "rf.csv", "digital.csv", "tune_trace.csv")
    ok = all((Path(cfg_a.output_dir) / n).read_bytes()
             == (Path(cfg_b.output_dir) / n).read_bytes() for n in names)
    _line(12, ok, "byte-identical report and CSV outputs" if ok else "outputs differ")
    assert ok
