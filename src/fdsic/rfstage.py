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
from .signals import BasebandSignal

# Minimum detector window, in symbol durations, for the averaged power to
# approximate the long-integration limit.
MIN_DETECTOR_SYMBOLS = 64

TUNE_INITIAL_STEP = 0.5

MIN_VM_BITS, MAX_VM_BITS = 1, 24  # vector-modulator resolutions VmState accepts


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
    """Vector-modulator control pair, effective complex gain g1 + j g2: g1 and
    g2 must lie in [-1, 1] and are stored as their nearest point of the 2^bits grid."""

    g1: float
    g2: float
    bits: int

    def __post_init__(self):
        if not MIN_VM_BITS <= self.bits <= MAX_VM_BITS:
            raise ValueError(f"bits must be in [{MIN_VM_BITS}, {MAX_VM_BITS}]")
        if not (-1.0 <= self.g1 <= 1.0 and -1.0 <= self.g2 <= 1.0):
            raise ValueError("g1, g2 must lie in [-1, 1]")
        object.__setattr__(self, "g1", _quantize(self.g1, self.bits))
        object.__setattr__(self, "g2", _quantize(self.g2, self.bits))

    @property
    def complex_gain(self) -> complex:
        return self.g1 + 1j * self.g2


@dataclass(frozen=True)
class DetectorConfig:
    window_samples: int
    symbol_samples: int  # samples per symbol duration, for validation

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
    """Coordinate descent on the quantized (g1, g2) grid using only the scalar
    detector reading env(g), a function of the complex VM gain g = g1 + j g2.

    Axes alternate; along an axis the search keeps stepping while the reading
    improves, trying both directions. When a full sweep accepts no move the
    step halves; the search stops once the step falls below one quantization
    level or the probe budget is exhausted. Returns the best state visited.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    lsb = _quant_step(init.bits)
    # accepted (g1, g2) points and their readings; the last of each is the best so far
    points, readings = [[init.g1, init.g2]], [float(env(init.complex_gain))]
    evals, step, converged = 1, TUNE_INITIAL_STEP, False
    while evals < budget and not converged:
        sweep_start = len(points)
        for axis in (0, 1):
            for sign in (1.0, -1.0):
                dir_start = len(points)
                while evals < budget:
                    cand = list(points[-1])
                    cand[axis] = _quantize(cand[axis] + sign * step, init.bits)  # VmState's rule
                    if cand == points[-1]:
                        break
                    f = float(env(cand[0] + 1j * cand[1]))
                    evals += 1
                    if not f < readings[-1]:  # a NaN reading is never accepted
                        break
                    points.append(cand)
                    readings.append(f)
                if len(points) > dir_start:
                    break  # moving back along the axis cannot improve
        if len(points) == sweep_start:
            step /= 2.0
            converged = step < lsb
    states = tuple(VmState(g1, g2, init.bits) for g1, g2 in points)
    return TuneResult(state=states[-1], detector_readings=tuple(readings),
                      iterations=evals, converged=converged, accepted_states=states)


def detector_env(si: BasebandSignal, tap: BasebandSignal, cfg: DetectorConfig):
    """The detector reading of the residual si + g tap as a function of the
    complex VM gain g, the env that tune reads.

    Over the window the reading is a quadratic in the VM gain g,
    2 (|s|^2 + 2 Re(g <s, t>) + |g|^2 |t|^2) / W, so each call is scalar
    arithmetic on three inner products computed once, as numpy sums rather
    than BLAS so that they are the same at any BLAS thread count.
    power_detect on that residual is the reference it replaces.
    """
    w = cfg.window_samples
    if len(si) < w:
        raise ValueError("residual shorter than the detector window")
    s_w, t_w = si.samples[-w:], tap.samples[-w:]
    ss = np.sum(s_w.conj() * s_w).real
    st = np.sum(s_w.conj() * t_w)
    tt = np.sum(t_w.conj() * t_w).real

    def env(g: complex) -> float:
        return float(2.0 * (ss + 2.0 * (g * st).real + abs(g) ** 2 * tt) / w)

    return env


def tune_vm(x: BasebandSignal, si: BasebandSignal, amplitude: float, vm_bits: int,
            detector_cfg: DetectorConfig, budget: int):
    """Train the vector modulator against si, the SI of x sent at transmit
    amplitude sqrt(G_t); return the residual under the best state found and the tune result.

    The VM input is an exact, noiseless tap of the transmit signal, amplitude * x
    (coupler losses are folded into G_t). The residual is written into its buffer.
    """
    tap = BasebandSignal(amplitude * x.samples, x.sample_rate_hz)
    result = tune(detector_env(si, tap, detector_cfg), VmState(0.0, 0.0, vm_bits), budget)
    res = np.multiply(result.state.complex_gain, tap.samples, out=tap.samples)
    return BasebandSignal(np.add(si.samples, res, out=res), x.sample_rate_hz), result


def rf_stage(x: BasebandSignal, channel: MultipathChannel, vm_bits: int,
             detector_cfg: DetectorConfig, budget: int):
    """The SI of x through channel, then tune_vm at unit power: (residual, tune result, SI)."""
    si = apply_channel(channel, x)
    return (*tune_vm(x, si, 1.0, vm_bits, detector_cfg, budget), si)
