"""Test-only references: quantities the tests check the simulator against
that no command of the simulator computes."""

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from fdsic.channel import apply_channel, impair
from fdsic.config import ExperimentConfig
from fdsic.digital import design_columns, fit_orders, power_db
from fdsic.harness import PipelineResult
from fdsic.rfstage import DetectorConfig, tune_vm
from fdsic.signals import BasebandSignal, gen_frame


@dataclass(frozen=True)
class PathLossModel:
    """Capped power-law path loss: loss(x) = min(cap_delta, k_const * x^-alpha)."""

    cap_delta: float
    k_const: float
    alpha: float

    def __post_init__(self):
        if self.cap_delta <= 0 or self.k_const <= 0:
            raise ValueError("path loss constants must be positive")
        if self.alpha <= 2:
            raise ValueError("alpha must exceed 2")


def path_loss(model: PathLossModel, distance_m: float) -> float:
    """Linear power gain at the given (round-trip) distance; d = 0 hits the cap."""
    if distance_m < 0:
        raise ValueError("distance must be >= 0")
    if distance_m == 0:
        return model.cap_delta
    try:
        return float(min(model.cap_delta, model.k_const * distance_m ** -model.alpha))
    except OverflowError:  # k d^-alpha beyond the float range: far above the cap
        return model.cap_delta


def papr_db(signal: BasebandSignal) -> float:
    """Peak-to-average power ratio, 10 log10(max|x|^2 / mean|x|^2)."""
    p = np.abs(signal.samples) ** 2
    mean = p.mean()
    if mean == 0:
        raise ValueError("zero-power signal")
    return float(10.0 * np.log10(p.max() / mean))


def welch_db(x: BasebandSignal, segment_len: int):
    """The scipy.signal.welch call metrics.psd replaced, kept as its oracle and
    for resolutions psd does not offer: sorted frequencies and power in dB, as
    psd returns them."""
    freqs, pxx = sp_signal.welch(x.samples, fs=x.sample_rate_hz, window="hann",
                                 nperseg=segment_len, noverlap=segment_len // 2,
                                 detrend=False, return_onesided=False, scaling="density")
    order = np.argsort(freqs)
    return freqs[order], 10.0 * np.log10(pxx[order] + 1e-300)


def lemma_kernel_expanded(x) -> np.ndarray:
    """oracle.lemma_kernel via the expanded trig identity (independent evaluation):

        f = sin^2 x / x^2 + 2 sin 2x / x^3 + 4 cos 2x / x^4
            - 4 sin 2x / x^5 + 4 sin^2 x / x^6
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(arr) < 1e-3):
        raise ValueError("expanded form is numerically unstable near zero")
    s, s2, c2 = np.sin(arr), np.sin(2 * arr), np.cos(2 * arr)
    out = (s**2 / arr**2 + 2 * s2 / arr**3 + 4 * c2 / arr**4
           - 4 * s2 / arr**5 + 4 * s**2 / arr**6)
    return out if np.ndim(x) else float(out[0])


def per_point_pipeline(cfg: ExperimentConfig) -> PipelineResult:
    """One run on its own, as each power-sweep point ran before the points shared
    their stages: its own frame, its own channel pass scaled to its transmit
    amplitude, tune_vm, impair, and the frame's design columns differentiated
    for this run alone."""
    x = gen_frame(cfg.signal)
    fs = x.sample_rate_hz
    amp = cfg.channel.tx_amplitude
    si = BasebandSignal(apply_channel(cfg.channel.build(), x).samples * amp, fs)
    det = DetectorConfig(window_samples=cfg.detector_window,
                         symbol_samples=cfg.signal.oversampling)
    residual_rf, tune_res = tune_vm(x, si, amp, cfg.vm_bits, det, cfg.tune_budget)
    rx = impair(residual_rf, cfg.impairments, seed=cfg.seed)
    train, ev = cfg.slices
    cols = design_columns(BasebandSignal(x.samples[train], fs), cfg.digital_order)
    eval_cols = design_columns(BasebandSignal(x.samples[ev], fs), cfg.digital_order)
    ests, res_db, canceled = fit_orders(cols, eval_cols, rx.samples[train], rx.samples[ev])
    return PipelineResult(
        cfg=cfg, x=x, si=si, rx=rx, canceled=BasebandSignal(canceled, fs),
        estimate=ests[-1], tune=tune_res, eval_slice=ev, digital_residuals_db=res_db,
        tx_power_db=power_db(amp * x.samples[ev]),
        rf_residual_db=power_db(rx.samples[ev]), d1_eval=eval_cols[1])
