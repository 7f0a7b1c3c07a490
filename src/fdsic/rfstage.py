"""RF cancellation stage: quantized vector modulator, RMS power detector,
and the derivative-free search that nulls the flat (C0) component.

The vector modulator applies a complex gain g1 + j g2 to a tapped copy of
the transmit signal; the power detector provides the scalar feedback used
by the tuner. The derivative component of the SI is orthogonal to the tap
and survives this stage by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import MultipathChannel, apply_channel
from .signals import BasebandSignal, make_signal

# Minimum detector window, in symbol durations, for the averaged power to
# approximate the long-integration limit.
MIN_DETECTOR_SYMBOLS = 64

TUNE_INITIAL_STEP = 0.5


def _quant_step(bits: int) -> float:
    return 2.0 / (1 << bits)


def _quantize(v: float, bits: int) -> float:
    """Mid-tread grid of 2^bits levels covering [-1, 1 - step]. Rounds half
    to even and keeps the sign of a zero, as np.round does; plain float
    arithmetic, since the tuner quantizes on every probe."""
    step = _quant_step(bits)
    return min(max(math.copysign(round(v / step) * step, v), -1.0), 1.0 - step)


@dataclass(frozen=True)
class VmState:
    """Vector-modulator control pair; effective complex gain g1 + j g2."""

    g1: float
    g2: float
    bits: int = 16

    def __post_init__(self):
        if not 1 <= self.bits <= 24:
            raise ValueError("bits must be in [1, 24]")
        if not (-1.0 <= self.g1 <= 1.0 and -1.0 <= self.g2 <= 1.0):
            raise ValueError("g1, g2 must lie in [-1, 1]")

    def quantized(self) -> "VmState":
        return VmState(_quantize(self.g1, self.bits),
                       _quantize(self.g2, self.bits), self.bits)

    @property
    def complex_gain(self) -> complex:
        q = self.quantized()
        return q.g1 + 1j * q.g2

    @property
    def beta(self) -> float:
        return abs(self.complex_gain)

    @property
    def theta(self) -> float:
        return float(np.angle(self.complex_gain))


@dataclass(frozen=True)
class DetectorConfig:
    window_samples: int
    symbol_samples: int = 4  # samples per symbol duration, for validation

    def __post_init__(self):
        if self.window_samples < MIN_DETECTOR_SYMBOLS * self.symbol_samples:
            raise ValueError(
                f"detector window must cover >= {MIN_DETECTOR_SYMBOLS} symbols")


@dataclass(frozen=True)
class TuneResult:
    state: VmState
    detector_readings: tuple
    iterations: int
    converged: bool
    # state visited at each accepted reading, aligned with detector_readings
    accepted_states: tuple


def vm_apply(state: VmState, tapped: BasebandSignal) -> BasebandSignal:
    """Apply the quantized control pair as a complex gain."""
    return make_signal(state.complex_gain * tapped.samples, tapped.sample_rate_hz)


def combine(si: BasebandSignal, vm_out: BasebandSignal) -> BasebandSignal:
    """Ideal power combiner: sample-wise sum."""
    if len(si) != len(vm_out) or si.sample_rate_hz != vm_out.sample_rate_hz:
        raise ValueError("combiner inputs must share length and rate")
    return make_signal(si.samples + vm_out.samples, si.sample_rate_hz)


def power_detect(residual: BasebandSignal, cfg: DetectorConfig) -> float:
    """True-RMS detector: 2 x mean baseband power over the trailing window.

    The factor 2 converts baseband power to the power of the corresponding
    RF signal.
    """
    if len(residual) < cfg.window_samples:
        raise ValueError("residual shorter than the detector window")
    tail = residual.samples[-cfg.window_samples:]
    return float(2.0 * np.mean(np.abs(tail) ** 2))


def tune(env, init: VmState, budget: int) -> TuneResult:
    """Coordinate descent on the quantized (g1, g2) grid using only the
    scalar detector reading.

    Axes alternate; along an axis the search keeps stepping while the reading
    improves, trying both directions. When a full sweep accepts no move the
    step halves; the search stops once the step falls below one quantization
    level or the probe budget is exhausted. Returns the best state visited.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    lsb = _quant_step(init.bits)
    best = init.quantized()
    f_best = float(env(best))
    evals = 1
    readings = [f_best]
    states = [best]
    step = TUNE_INITIAL_STEP
    converged = False

    def moved(state: VmState, axis: int, delta: float) -> VmState:
        g = [state.g1, state.g2]
        g[axis] = _quantize(g[axis] + delta, state.bits)
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
                    f = float(env(cand))
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


def detector_env(si: BasebandSignal, tap: BasebandSignal, cfg: DetectorConfig):
    """The detector reading of combine(si, vm_apply(state, tap)) as a function
    of the VM state, for the tuner.

    Over the window the reading is a quadratic in the VM gain g,
    2 (|s|^2 + 2 Re(g <s, t>) + |g|^2 |t|^2) / W, so each call is scalar
    arithmetic on three inner products computed once. power_detect on the
    combined signal is the reference it replaces.
    """
    w = cfg.window_samples
    if len(si) < w:
        raise ValueError("residual shorter than the detector window")
    s_w, t_w = si.samples[-w:], tap.samples[-w:]
    ss = np.vdot(s_w, s_w).real
    st = np.vdot(s_w, t_w)
    tt = np.vdot(t_w, t_w).real

    def env(state: VmState) -> float:
        g = state.complex_gain
        return float(2.0 * (ss + 2.0 * (g * st).real + abs(g) ** 2 * tt) / w)

    return env


def rf_stage(x: BasebandSignal, channel: MultipathChannel, vm_bits: int,
             detector_cfg: DetectorConfig, budget: int):
    """Train the vector modulator against the simulated SI; return the
    residual under the best state found, the tune result and the SI.

    The VM input is an exact, noiseless tap of the transmit signal scaled by
    sqrt(G_t) (coupler losses are folded into G_t).
    """
    si = apply_channel(channel, x)
    tap = make_signal(np.sqrt(channel.tx_gain) * x.samples, x.sample_rate_hz)
    result = tune(detector_env(si, tap, detector_cfg), VmState(0.0, 0.0, vm_bits), budget)
    residual = combine(si, vm_apply(result.state, tap))
    return residual, result, si
