"""Experiment runner: wires generation, channel, RF stage, receiver
impairments, digital stage and metrics; reproduces the headline trends as
CSV files and runs the verification suites.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import digital, metrics, oracle, rfstage, taylor
from .channel import MultipathChannel, impair
from .config import ExperimentConfig
from .digital import D1_9TAP, D2_9TAP, cancel, ls_fit
from .metrics import psd, slope_diagnostic
from .rfstage import DetectorConfig, rf_stage
from .signals import BasebandSignal, SignalSpec, gen_frame, make_signal

# Samples dropped at both frame ends before any power measurement: covers the
# FIR edge convention and the wrap vicinity of the periodic delay.
EDGE_GUARD = 64

LEMMA_TAU_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)

# Fig-style response check: "0.3 normalized" on a Nyquist-normalized axis,
# i.e. 0.15 cycles/sample.
FILTER_CHECK_MAX_CPS = 0.15
FILTER_CHECK_TOL = 0.02


@dataclass(frozen=True)
class CancellationReport:
    tx_power_db: float
    rf_residual_db: float
    digital_residual_db: float
    rf_cancellation_db: float
    digital_cancellation_db: float
    total_db: float
    signal_power_E_s: float
    derivative_power_E_d: float
    slope_r2: float
    slope_db_per_decade: float


@dataclass(frozen=True)
class PipelineResult:
    report: CancellationReport
    x: BasebandSignal
    si: BasebandSignal
    rx: BasebandSignal
    canceled: BasebandSignal
    estimate: digital.LsEstimate
    tune: rfstage.TuneResult
    eval_slice: slice


def _power_db(samples: np.ndarray) -> float:
    return float(10.0 * np.log10(np.mean(np.abs(samples) ** 2) + 1e-300))


def _psd(signal: BasebandSignal) -> metrics.Psd:
    """PSD with the largest power-of-two segment up to 4096 samples."""
    return psd(signal, segment_len=min(4096, 1 << int(np.log2(len(signal)))))


def _occupied_band(spec: SignalSpec) -> tuple:
    """Fit band for the slope diagnostic: inside the occupied spectrum,
    away from DC and from the spectral edge."""
    if spec.kind == "ofdm":
        edge = (spec.ofdm_used_carriers / 2 + 3) / spec.ofdm_fft_size * spec.bandwidth_hz
    else:
        edge = 0.5 * spec.bandwidth_hz
        if spec.pulse == "rrc":
            edge *= (1.0 - spec.rolloff)
    return (0.05 * edge, 0.9 * edge)


def _front_end(cfg: ExperimentConfig) -> tuple:
    """The stages no digital order depends on: generate, channel, RF tune,
    impair. Returns (x, channel, si, rx, tune result)."""
    if cfg.signal.oversampling < digital.MIN_OVERSAMPLING:
        raise ValueError("digital stage requires oversampling >= 4")

    x = gen_frame(cfg.signal)
    n = len(x)
    if n - 2 * EDGE_GUARD - cfg.train_len < 4 * EDGE_GUARD:
        raise ValueError(f"train_len = {cfg.train_len} leaves fewer than "
                         f"{4 * EDGE_GUARD} of the {n} frame samples to evaluate on")
    if cfg.detector_window > n:
        raise ValueError(f"detector_window = {cfg.detector_window} exceeds the {n}-sample frame")
    channel = cfg.channel.build()
    det = DetectorConfig(window_samples=cfg.detector_window,
                         symbol_samples=cfg.signal.oversampling)
    residual_rf, tune_res, si = rf_stage(x, channel, cfg.vm_bits, det, cfg.tune_budget)
    rx = impair(residual_rf, cfg.impairments, seed=cfg.seed)
    return x, channel, si, rx, tune_res


def _back_end(cfg: ExperimentConfig, order: int, x: BasebandSignal,
              channel: MultipathChannel, si: BasebandSignal, rx: BasebandSignal,
              tune_res: rfstage.TuneResult) -> PipelineResult:
    """Digital stage of one order on the front end's output, plus the report."""
    train = slice(EDGE_GUARD, EDGE_GUARD + cfg.train_len)
    ev = slice(train.stop, len(x) - EDGE_GUARD)
    fs = x.sample_rate_hz
    est = ls_fit(make_signal(rx.samples[train], fs), make_signal(x.samples[train], fs), order)

    x_eval = make_signal(x.samples[ev], fs)
    y_eval = make_signal(rx.samples[ev], fs)
    canceled = cancel(y_eval, x_eval, est)
    m = digital.edge_margin(order)
    inner = slice(m, len(canceled) - m)

    tx_power_db = _power_db(np.sqrt(channel.tx_gain) * x_eval.samples)
    rf_residual_db = _power_db(y_eval.samples)
    digital_residual_db = _power_db(canceled.samples[inner])
    rf_c = tx_power_db - rf_residual_db
    dig_c = rf_residual_db - digital_residual_db

    d1 = digital.deriv_filter(x_eval, D1_9TAP)
    e_s = float(np.mean(np.abs(x_eval.samples[inner]) ** 2))
    e_d = float(np.mean(np.abs(d1.samples[inner] * fs) ** 2))

    diag = slope_diagnostic(_psd(y_eval), _occupied_band(cfg.signal))

    report = CancellationReport(
        tx_power_db=tx_power_db,
        rf_residual_db=rf_residual_db,
        digital_residual_db=digital_residual_db,
        rf_cancellation_db=rf_c,
        digital_cancellation_db=dig_c,
        total_db=rf_c + dig_c,
        signal_power_E_s=e_s,
        derivative_power_E_d=e_d,
        slope_r2=diag["r2"],
        slope_db_per_decade=diag["slope_db_per_decade"],
    )
    return PipelineResult(report=report, x=x, si=si, rx=rx,
                          canceled=canceled, estimate=est, tune=tune_res,
                          eval_slice=ev)


def run_pipeline(cfg: ExperimentConfig, digital_order: int | None = None) -> PipelineResult:
    """Full chain: generate, channel, RF tune, impair, digital cancel."""
    order = cfg.digital_order if digital_order is None else digital_order
    return _back_end(cfg, order, *_front_end(cfg))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_psd_csv(path: Path, p: metrics.Psd) -> None:
    lines = ["freq_hz,power_db"]
    for f, v in zip(p.freqs_hz, p.power_db):
        f_txt = f"{int(round(f))}" if abs(f - round(f)) < 1e-6 else f"{f:.3f}"
        lines.append(f"{f_txt},{v:.2f}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _stage_signal(res: PipelineResult, stage: str) -> BasebandSignal:
    fs = res.x.sample_rate_hz
    sl = res.eval_slice
    if stage == "pre":
        return make_signal(res.si.samples[sl], fs)
    if stage == "rf":
        return make_signal(res.rx.samples[sl], fs)
    if stage == "digital":
        return res.canceled
    raise ValueError(f"unknown stage {stage!r}")


def write_outputs(cfg: ExperimentConfig, res: PipelineResult) -> Path:
    """Write report.txt, per-stage PSD CSVs and the tune trace."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    for stage in ("pre", "rf", "digital"):
        _write_psd_csv(out / f"{stage}.csv", _psd(_stage_signal(res, stage)))

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
    _atomic_write(out / "report.txt", "\n".join(lines) + "\n")

    trace = ["iteration,g1,g2,detector_db"]
    for i, (s, v) in enumerate(zip(res.tune.accepted_states, res.tune.detector_readings)):
        trace.append(f"{i},{s.g1:.8f},{s.g2:.8f},{10*np.log10(v + 1e-300):.2f}")
    _atomic_write(out / "tune_trace.csv", "\n".join(trace) + "\n")
    return out


def run_simulate(cfg: ExperimentConfig) -> CancellationReport:
    """Full pipeline plus output files; returns the report."""
    res = run_pipeline(cfg)
    write_outputs(cfg, res)
    return res.report


def run_sweep_bandwidth(cfg: ExperimentConfig, bw_list) -> list:
    """Per-bandwidth pipeline runs; returns (bw_hz, rf_db, digital_db,
    total_db) rows and writes bandwidth_sweep.csv. Every point's config is
    built, and so validated, before any point runs."""
    point_cfgs = [dataclasses.replace(cfg, signal=dataclasses.replace(
        cfg.signal, bandwidth_hz=float(bw))) for bw in bw_list]
    rows = []
    for bw, point_cfg in zip(bw_list, point_cfgs):
        r = run_pipeline(point_cfg).report
        rows.append((float(bw), r.rf_cancellation_db, r.digital_cancellation_db,
                     r.total_db))
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["bandwidth_hz,rf_db,digital_db,total_db"]
    for bw, rf_db, dig_db, tot in rows:
        lines.append(f"{int(bw)},{rf_db:.2f},{dig_db:.2f},{tot:.2f}")
    _atomic_write(out / "bandwidth_sweep.csv", "\n".join(lines) + "\n")
    return rows


def _order0_residual_db(res: PipelineResult) -> float:
    """Signal-term-only fit, for the digital split-up columns."""
    sl = res.eval_slice
    x = res.x.samples[sl]
    y = res.rx.samples[sl]
    a0 = np.vdot(x, y) / np.vdot(x, x)
    return _power_db(y - a0 * x)


def run_sweep_power(cfg: ExperimentConfig, power_list_db) -> list:
    """Transmit-power sweep; fits both digital orders on each point's RF
    residual and reports the per-term split of the digital cancellation."""
    rows = []
    for p_dbm in power_list_db:
        chan = dataclasses.replace(cfg.channel, tx_gain_db=float(p_dbm))
        point = dataclasses.replace(cfg, channel=chan)
        front = _front_end(point)
        res1 = _back_end(point, 1, *front)
        res2 = _back_end(point, 2, *front)
        r1, r2 = res1.report, res2.report
        res0_db = _order0_residual_db(res2)
        split_signal = r2.rf_residual_db - res0_db
        split_d1 = res0_db - r1.digital_residual_db
        split_d2 = r1.digital_residual_db - r2.digital_residual_db
        rows.append((float(p_dbm), r2.rf_cancellation_db,
                     r1.digital_cancellation_db, r2.digital_cancellation_db,
                     r1.total_db, r2.total_db,
                     split_signal, split_d1, split_d2))
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["tx_power_dbm,rf_db,digital_db_order1,digital_db_order2,"
             "total_db_order1,total_db_order2,"
             "split_signal_db,split_deriv1_db,split_deriv2_db"]
    for row in rows:
        lines.append(f"{row[0]:.0f}," + ",".join(f"{v:.2f}" for v in row[1:]))
    _atomic_write(out / "power_sweep.csv", "\n".join(lines) + "\n")
    return rows


def run_spectrum(cfg: ExperimentConfig, stage: str) -> Path:
    """Write the PSD CSV of one pipeline stage."""
    res = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{stage}.csv"
    _write_psd_csv(path, _psd(_stage_signal(res, stage)))
    return path


def _verify_lemma() -> tuple:
    spec = SignalSpec(kind="single-carrier", bandwidth_hz=1.0, oversampling=4,
                      num_symbols=8, pulse="sinc", seed=1)
    lines = {}
    ok = True
    errs = []
    for tau in LEMMA_TAU_GRID:
        r = oracle.exact_delay_oracle(spec, tau, trials=100_000)
        bound = taylor.LEMMA_CONST * tau ** 4
        holds = r["err_power"] <= bound
        ok &= holds
        errs.append(r["err_power"])
        lines[f"lemma_tau_{tau}"] = (f"err={r['err_power']:.4e} "
                                     f"bound={bound:.4e} {'pass' if holds else 'fail'}")
    slope = np.polyfit(np.log10(LEMMA_TAU_GRID), np.log10(errs), 1)[0]
    slope_ok = abs(slope - 4.0) <= 0.2
    ok &= slope_ok
    lines["quartic_slope"] = f"{slope:.3f} {'pass' if slope_ok else 'fail'}"
    return ok, lines


def _verify_filters() -> tuple:
    grid = np.linspace(1e-4, FILTER_CHECK_MAX_CPS, 2000)
    h9 = digital.filter_response(D1_9TAP, grid)
    ideal = 1j * 2 * np.pi * grid
    dev = np.max(np.abs(h9 - ideal) / np.abs(ideal))
    ok9 = dev <= FILTER_CHECK_TOL
    h3 = digital.filter_response(digital.D1_3TAP, grid)
    err3 = np.max(np.abs(h3 - 1j * 2 * np.sin(2 * np.pi * grid)))
    ok3 = err3 <= 1e-12
    lines = {
        "d1_9tap_max_rel_dev": f"{dev:.6f} {'pass' if ok9 else 'fail'}",
        "d1_3tap_form_err": f"{err3:.2e} {'pass' if ok3 else 'fail'}",
        "d2_9tap_dc_response": f"{float(np.sum(D2_9TAP.taps)):.6f} (documented)",
    }
    return ok9 and ok3, lines


def _verify_oracle_delay() -> tuple:
    from .channel import fractional_delay
    ok = True
    lines = {}
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
        holds = db <= -100.0
        ok &= holds
        lines[f"frame_{i}"] = f"{db:.1f} dB {'pass' if holds else 'fail'}"
    return ok, lines


def _verify_poisson() -> tuple:
    lines = {}
    fhat0 = oracle.kernel_fourier0_numeric()
    ok0 = abs(fhat0 - oracle.FHAT0_CLOSED) <= 1e-6
    lines["fhat0_numeric"] = f"{fhat0:.8f} target={oracle.FHAT0_CLOSED:.8f} {'pass' if ok0 else 'fail'}"
    grid = np.linspace(0.0, 1.0, 100)
    checks = [oracle.poisson_check(d) for d in grid]
    max_gap = max(abs(c.direct_sum - c.closed_form) for c in checks)
    match_ok = max_gap <= 1e-6
    lines["direct_vs_closed_max_gap"] = f"{max_gap:.6f} {'pass' if match_ok else 'fail'}"
    sup_direct = max(c.direct_sum for c in checks)
    sup_closed = max(c.closed_form for c in checks)
    sup_ok = sup_direct <= 0.3
    lines["sup_direct_sum"] = f"{sup_direct:.6f} {'pass' if sup_ok else 'fail'}"
    lines["sup_closed_form"] = f"{sup_closed:.6f} {'pass' if sup_closed <= 0.3 else 'fail'}"
    return ok0 and match_ok and sup_ok, lines


VERIFY_SUITES = {
    "lemma": _verify_lemma,
    "filters": _verify_filters,
    "oracle-delay": _verify_oracle_delay,
    "poisson": _verify_poisson,
}


def run_verify(suite: str, output_dir: str = "out") -> bool:
    """Run one named verification suite and write its verdict file."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(VERIFY_SUITES)}")
    ok, lines = VERIFY_SUITES[suite]()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = [f"suite = {suite}"]
    text += [f"{k} = {v}" for k, v in lines.items()]
    text.append(f"overall = {'pass' if ok else 'fail'}")
    _atomic_write(out / f"verdict_{suite}.txt", "\n".join(text) + "\n")
    return ok
