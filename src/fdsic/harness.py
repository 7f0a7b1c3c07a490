"""Experiment runner: wires generation, channel, RF stage, receiver
impairments, digital stage and metrics; reproduces the headline trends as
CSV files and runs the verification suites.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import digital, metrics, oracle, rfstage, taylor
from .channel import apply_channel, fractional_delay, impair
from .config import ConfigError, ExperimentConfig, slope_band
from .digital import D1_9TAP, D2_9TAP, EDGE_MARGIN, design_columns, fit_orders, power_db
from .metrics import psd, slope_diagnostic
from .rfstage import DetectorConfig, tune_vm
from .signals import BasebandSignal, SignalSpec, gen_frame

LEMMA_TAU_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)
# The lemma suite's signal: sin(x)/x pulses of unit symbol time
LEMMA_SPEC = SignalSpec(kind="single-carrier", bandwidth_hz=1.0, oversampling=4,
                        num_symbols=8, pulse="sinc", seed=1)

# PSD stages: the SI, the RF residual and the digital residual
STAGES = ("pre", "rf", "digital")

# Fig-style response check: "0.3 normalized" on a Nyquist-normalized axis,
# i.e. 0.15 cycles/sample.
FILTER_CHECK_MAX_CPS = 0.15
FILTER_CHECK_TOL = 0.02

# Criterion 3b: bounds on max |direct sum - closed form| over delta and on the
# supremum over delta of the kernel periodization.
POISSON_GAP_MAX = 1e-6
POISSON_SUP_MAX = 0.3


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
    """A pipeline run up to its per-order residuals. The rf PSD and the report
    are computed on first read: a sweep row or a spectrum stage reads neither."""
    cfg: ExperimentConfig
    x: BasebandSignal
    si: BasebandSignal
    rx: BasebandSignal
    canceled: BasebandSignal
    estimate: digital.LsEstimate
    tune: rfstage.TuneResult
    eval_slice: slice
    digital_residuals_db: tuple  # canceled power of orders 1..estimate.order
    tx_power_db: float
    rf_residual_db: float
    d1_eval: np.ndarray  # design column -D1 x over eval_slice

    def cancellation_db(self, order: int) -> tuple:
        """(rf, digital, total) cancellation in dB with the order-`order` fit."""
        rf = self.tx_power_db - self.rf_residual_db
        dig = self.rf_residual_db - self.digital_residuals_db[order - 1]
        return rf, dig, rf + dig

    @cached_property
    def rf_psd(self) -> metrics.Psd:
        """PSD of rx over eval_slice: the slope diagnostic's input and rf.csv."""
        return psd(BasebandSignal(self.rx.samples[self.eval_slice], self.x.sample_rate_hz))

    @cached_property
    def report(self) -> CancellationReport:
        inner = slice(EDGE_MARGIN, len(self.d1_eval) - EDGE_MARGIN)
        rf_c, dig_c, total = self.cancellation_db(self.cfg.digital_order)
        diag = slope_diagnostic(self.rf_psd, slope_band(self.cfg.signal))
        return CancellationReport(
            tx_power_db=self.tx_power_db, rf_residual_db=self.rf_residual_db,
            digital_residual_db=self.digital_residuals_db[-1], rf_cancellation_db=rf_c,
            digital_cancellation_db=dig_c, total_db=total,
            signal_power_E_s=float(np.mean(np.abs(self.x.samples[self.eval_slice][inner]) ** 2)),
            derivative_power_E_d=float(
                np.mean(np.abs(self.d1_eval[inner] * self.x.sample_rate_hz) ** 2)),
            slope_r2=diag["r2"], slope_db_per_decade=diag["slope_db_per_decade"])


def _runs(cfgs: list):
    """Yield the PipelineResult of each of cfgs, which differ in tx_gain_db alone. One
    frame, its SI through the channel (H(f) at unit transmit power) and its design
    columns over both slices serve them all; each run scales that SI by its tx_amplitude."""
    cfg, (train, ev) = cfgs[0], cfgs[0].slices
    x = gen_frame(cfg.signal)
    unit_si = apply_channel(cfg.channel.build(), x).samples
    cols, eval_cols = (design_columns(BasebandSignal(x.samples[s], x.sample_rate_hz),
                                      cfg.digital_order) for s in (train, ev))
    det = DetectorConfig(window_samples=cfg.detector_window, symbol_samples=cfg.signal.oversampling)
    for cfg in cfgs:
        amp = cfg.channel.tx_amplitude
        si = BasebandSignal(unit_si * amp, x.sample_rate_hz)
        residual_rf, tune_res = tune_vm(x, si, amp, cfg.vm_bits, det, cfg.tune_budget)
        rx = impair(residual_rf, cfg.impairments, seed=cfg.seed)
        ests, res_db, canceled = fit_orders(cols, eval_cols, rx.samples[train], rx.samples[ev])
        yield PipelineResult(
            cfg=cfg, x=x, si=si, rx=rx, canceled=BasebandSignal(canceled, x.sample_rate_hz),
            estimate=ests[-1], tune=tune_res, eval_slice=ev, digital_residuals_db=res_db,
            tx_power_db=power_db(amp * x.samples[ev]),
            rf_residual_db=power_db(rx.samples[ev]), d1_eval=eval_cols[1])
        del si, residual_rf, rx, canceled  # else they live on while the next run computes


def run_pipeline(cfg: ExperimentConfig, digital_order: int | None = None) -> PipelineResult:
    """Generate, channel, RF tune, impair and fit orders 1..cfg.digital_order,
    fitting digital_order in place of the config's order if one is given."""
    cfg = cfg if digital_order is None else dataclasses.replace(cfg, digital_order=digital_order)
    return next(_runs([cfg]))


def _atomic_write(path: Path, lines) -> None:
    """Write text, or newline-terminated lines, to path, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(lines if isinstance(lines, str) else "\n".join(lines) + "\n")
    os.replace(tmp, path)


def _write_psd_csvs(psds: dict) -> None:
    """Write each path's PSD, one row per bin, with one frequency column for
    all: a frequency within 1e-6 Hz of an integer is written as that integer
    (nearest, ties to even), any other with 3 decimals. The column is one
    row template that one % fills with each file's powers."""
    f = next(iter(psds.values())).freqs_hz
    assert all(np.array_equal(p.freqs_hz, f) for p in psds.values()), "PSD grids differ"
    r = np.round(f)
    isint = np.abs(f - r) < 1e-6
    rows = "".join("%d,%%.2f\n" % ri if ii else "%.3f,%%.2f\n" % fi
                   for fi, ri, ii in zip(f.tolist(), r.tolist(), isint.tolist()))
    for path, p in psds.items():
        _atomic_write(path, "freq_hz,power_db\n" + rows % tuple(p.power_db.tolist()))


def _stage_psd(res: PipelineResult, stage: str) -> metrics.Psd:
    """PSD over the evaluation slice of the SI, the RF residual or the digital residual."""
    if stage == "pre":
        return psd(BasebandSignal(res.si.samples[res.eval_slice], res.x.sample_rate_hz))
    return res.rf_psd if stage == "rf" else psd(res.canceled)


# report.txt format of each CancellationReport field not written as .2f
REPORT_FORMATS = {"signal_power_E_s": ".6e", "derivative_power_E_d": ".6e",
                  "slope_r2": ".4f"}


def write_outputs(res: PipelineResult) -> Path:
    """Write report.txt, per-stage PSD CSVs and the tune trace to the run's
    output_dir. The report comes first, so a run whose report fails writes nothing."""
    out, report, est = Path(res.cfg.output_dir), res.report, res.estimate
    # pre, rf and digital share one Welch grid: same slice length, same rate
    _write_psd_csvs({out / f"{stage}.csv": _stage_psd(res, stage) for stage in STAGES})

    lines = [f"{f.name} = {getattr(report, f.name):{REPORT_FORMATS.get(f.name, '.2f')}}"
             for f in dataclasses.fields(CancellationReport)]
    lines.append(f"ls_order = {est.order}")
    for name, c in zip(digital.LS_TERMS, est.coef):
        lines += [f"ls_{name}_re = {c.real:.12e}", f"ls_{name}_im = {c.imag:.12e}"]
    lines += [
        f"ls_residual_db = {est.residual_power_db:.2f}",
        f"tune_iterations = {res.tune.iterations}",
        f"tune_converged = {str(res.tune.converged).lower()}",
        f"vm_g1 = {res.tune.state.g1:.8f}",
        f"vm_g2 = {res.tune.state.g2:.8f}",
    ]
    _atomic_write(out / "report.txt", lines)

    trace = ["iteration,g1,g2,detector_db"]
    for i, (s, v) in enumerate(zip(res.tune.accepted_states, res.tune.detector_readings)):
        trace.append(f"{i},{s.g1:.8f},{s.g2:.8f},{10*np.log10(v + 1e-300):.2f}")
    _atomic_write(out / "tune_trace.csv", trace)
    return out


def run_simulate(cfg: ExperimentConfig) -> CancellationReport:
    """Full pipeline plus output files; returns the report."""
    res = run_pipeline(cfg)
    write_outputs(res)
    return res.report


def format_point(value: float) -> str:
    """Sweep-point label: an integer without decimals, any other value in full. Zero is
    "0" whatever its sign: -0.0 + 0.0 is +0.0, and adding 0.0 leaves any other value as is."""
    return f"{value + 0.0:.0f}" if float(value).is_integer() else repr(float(value))


def _sweep(cfg: ExperimentConfig, points, point_config, values, name: str, header: str) -> list:
    """Build, and so validate, point_config(p) of every sweep point before any point
    runs; then return the rows (p, *values), values(point configs) yielding each point's,
    and write them to name: p as format_point writes it, then its values with 2 decimals."""
    try:
        point_cfgs = [point_config(p) for p in points]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [(float(p), *v) for p, v in zip(points, values(point_cfgs))]
    _atomic_write(Path(cfg.output_dir) / name, [header, *(
        ",".join([format_point(r[0]), *(f"{v:.2f}" for v in r[1:])]) for r in rows)])
    return rows


def run_sweep_bandwidth(cfg: ExperimentConfig, bw_list) -> list:
    """Per-bandwidth pipeline runs; returns (bw_hz, rf_db, digital_db,
    total_db) rows and writes bandwidth_sweep.csv."""
    return _sweep(cfg, bw_list, lambda bw: dataclasses.replace(
        cfg, signal=dataclasses.replace(cfg.signal, bandwidth_hz=float(bw))),
        lambda cfgs: (run_pipeline(c).cancellation_db(c.digital_order) for c in cfgs),
        "bandwidth_sweep.csv", "bandwidth_hz,rf_db,digital_db,total_db")


def _order0_residual_db(c: PipelineResult) -> float:
    """Signal-term-only fit, for the digital split-up columns (numpy sums, not BLAS)."""
    x = c.x.samples[c.eval_slice]
    y = c.rx.samples[c.eval_slice]
    a0 = np.sum(x.conj() * y) / np.sum(x.conj() * x)
    return power_db(y - a0 * x)


def run_sweep_power(cfg: ExperimentConfig, power_list_db) -> list:
    """Transmit-power sweep: one _runs pass, each point an order-2 cancellation without
    the report. A point's order-1 residual and a signal-only fit on its RF residual
    give the per-term split of the digital cancellation."""
    def row(c: PipelineResult) -> tuple:
        res1_db, res2_db = c.digital_residuals_db
        res0_db = _order0_residual_db(c)
        rf_db, dig1, total1 = c.cancellation_db(1)
        _, dig2, total2 = c.cancellation_db(2)
        return (rf_db, dig1, dig2, total1, total2,
                c.rf_residual_db - res0_db, res0_db - res1_db, res1_db - res2_db)

    return _sweep(cfg, power_list_db, lambda p_dbm: dataclasses.replace(
        cfg, digital_order=2, channel=dataclasses.replace(cfg.channel, tx_gain_db=float(p_dbm))),
        lambda cfgs: map(row, _runs(cfgs)), "power_sweep.csv",
        "tx_power_dbm,rf_db,digital_db_order1,digital_db_order2,"
        "total_db_order1,total_db_order2,split_signal_db,split_deriv1_db,split_deriv2_db")


def run_spectrum(cfg: ExperimentConfig, stage: str) -> Path:
    """Write the PSD CSV of one pipeline stage, checking its name before the run."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    path = Path(cfg.output_dir) / f"{stage}.csv"
    _write_psd_csvs({path: _stage_psd(run_pipeline(cfg), stage)})
    return path


def _verify_lemma() -> list:
    # one draw for the whole grid; exact_delay_oracle is the same body on one delay
    errs = oracle.delay_error_powers(LEMMA_SPEC, LEMMA_TAU_GRID)
    rows = []
    for tau, err in zip(LEMMA_TAU_GRID, errs):
        bound = taylor.LEMMA_CONST * tau ** 4
        rows.append((f"lemma_tau_{tau}", f"err={err:.4e} bound={bound:.4e}", err <= bound))
    slope = np.polyfit(np.log10(LEMMA_TAU_GRID), np.log10(errs), 1)[0]
    rows.append(("quartic_slope", f"{slope:.3f}", abs(slope - 4.0) <= 0.2))
    return rows


def _verify_filters() -> list:
    grid = np.linspace(1e-4, FILTER_CHECK_MAX_CPS, 2000)
    h9 = digital.filter_response(D1_9TAP, grid)
    ideal = 1j * 2 * np.pi * grid
    dev = np.max(np.abs(h9 - ideal) / np.abs(ideal))
    h3 = digital.filter_response(digital.D1_3TAP, grid)
    err3 = np.max(np.abs(h3 - 1j * 2 * np.sin(2 * np.pi * grid)))
    return [("d1_9tap_max_rel_dev", f"{dev:.6f}", dev <= FILTER_CHECK_TOL),
            ("d1_3tap_form_err", f"{err3:.2e}", err3 <= 1e-12),
            ("d2_9tap_dc_response", f"{float(np.sum(D2_9TAP)):.6f} (documented)", None)]


def _oracle_delay_residual_db(i: int) -> float:
    """Residual of fractional_delay against the time-domain reference on
    oracle-delay frame i, in dB relative to the frame power."""
    spec = SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=2,
                      ofdm_fft_size=1024, ofdm_used_carriers=620, seed=100 + i)
    x = gen_frame(spec)
    delay = (17 + 13 * i) / (oracle.FINE_FACTOR * x.sample_rate_hz)
    a = fractional_delay(x, delay)
    b = oracle.resample_delay_reference(x, delay)
    resid = np.mean(np.abs(a.samples - b.samples) ** 2) / x.mean_power
    return 10 * np.log10(resid + 1e-300)


def _verify_oracle_delay() -> list:
    # The frames share no state and the reference's convolution releases the
    # GIL, so they run on one thread per usable CPU; each frame's arithmetic
    # is the same on any thread, so the verdict does not depend on the count.
    frames = range(10)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=min(cpus, len(frames))) as pool:
        dbs = list(pool.map(_oracle_delay_residual_db, frames))
    return [(f"frame_{i}", f"{db:.1f} dB", db <= -100.0) for i, db in enumerate(dbs)]


def _verify_poisson() -> list:
    fhat0 = oracle.kernel_fourier0_numeric()
    checks = [oracle.poisson_check(d) for d in np.linspace(0.0, 1.0, 100)]
    max_gap = max(abs(c.direct_sum - c.closed_form) for c in checks)
    sup_direct = max(c.direct_sum for c in checks)
    sup_closed = max(c.closed_form for c in checks)
    return [("fhat0_numeric", f"{fhat0:.8f} target={oracle.FHAT0_CLOSED:.8f}",
             abs(fhat0 - oracle.FHAT0_CLOSED) <= 1e-6),
            ("direct_vs_closed_max_gap", f"{max_gap:.6f}", max_gap <= POISSON_GAP_MAX),
            ("sup_direct_sum", f"{sup_direct:.6f}", sup_direct <= POISSON_SUP_MAX),
            ("sup_closed_form", f"{sup_closed:.6f}", sup_closed <= POISSON_SUP_MAX)]


VERIFY_SUITES = {
    "lemma": _verify_lemma,
    "filters": _verify_filters,
    "oracle-delay": _verify_oracle_delay,
    "poisson": _verify_poisson,
}


def run_verify(suite: str, output_dir: str) -> bool:
    """Run one named verification suite and write its verdict file. A suite's
    (key, text, verdict) rows pass unless a verdict is False; None is informational."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(VERIFY_SUITES)}")
    rows = VERIFY_SUITES[suite]()
    ok = all(verdict for _, _, verdict in rows if verdict is not None)
    text = [f"suite = {suite}"]
    text += [f"{key} = {value}" + ("" if verdict is None else f" {'pass' if verdict else 'fail'}")
             for key, value, verdict in rows]
    text.append(f"overall = {'pass' if ok else 'fail'}")
    _atomic_write(Path(output_dir) / f"verdict_{suite}.txt", text)
    return ok
