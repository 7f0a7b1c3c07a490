"""Linearized channel coefficients and the analytic error budget.

A multipath SI channel acting on a narrowband signal collapses to
H(f) = C0 + C1 f, with higher orders C_n available when more accuracy is
needed. C_n absorbs the 1/n! factor, so a reconstruction multiplies plain
time derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .channel import MultipathChannel, PathLossModel, path_loss, SPEED_OF_LIGHT
from .signals import BasebandSignal

MAX_ORDER = 4

# Leading constant of the first-order error-power bound for unit-power
# sinc-pulse signals: E|error|^2 <= LEMMA_CONST * a^2 (tau/T)^4. T is the time
# unit of the sin(x)/x pulse sin(t/T)/(t/T), whose half band is 1/(2 pi T), so
# a signal of two-sided bandwidth W has T = 1/(pi W), not 1/W. On a unit-power
# 10 MHz sinc single-carrier frame (12,000 symbols, seed 3, exact derivative,
# tau/T from 0.005 to 0.05) the error is 63.2x the bound with T = 1/W and
# 0.65x with T = 1/(pi W); a flat band of +-W/2 gives pi^4/20 (tau W)^4.
LEMMA_CONST = 0.075

# Empirical leading constant for the second-order remainder, calibrated with
# the exact-delay oracle (asymptotic value 1/252 ~ 0.003968, rounded up).
ORDER2_CONST = 0.0045


@dataclass(frozen=True)
class ErrorBudget:
    per_tap_bound: tuple   # linear power per tap

    @property
    def total_bound(self) -> float:
        return float(sum(self.per_tap_bound))


def taylor_coeffs(channel: MultipathChannel, order: int) -> tuple:
    """(C_0, ..., C_order) as complex numbers, with
    C_n = sum_k (a_k tau_k^n / n!) e^{-j 2 pi f_c tau_k}."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}]")
    coeffs = []
    for n in range(order + 1):
        c = 0.0 + 0.0j
        for tap in channel.taps:
            c += (tap.gain * tap.delay_s ** n / factorial(n)
                  * np.exp(-2j * np.pi * channel.carrier_hz * tap.delay_s))
        coeffs.append(complex(c))
    return tuple(coeffs)


def reconstruct(coeffs, x: BasebandSignal, derivatives=()) -> BasebandSignal:
    """Model-side SI from coeffs = (C_0, ..., C_n): sum_n (-1)^n C_n x^(n)(t).

    derivatives[i] is a BasebandSignal holding the (i+1)-th time derivative
    of x, in units of 1/s^(i+1); C_n already contains the 1/n! factor.
    """
    order = len(coeffs) - 1
    if len(derivatives) < order:
        raise ValueError(f"need {order} derivative(s), got {len(derivatives)}")
    acc = coeffs[0] * x.samples
    for n in range(1, order + 1):
        samples = derivatives[n - 1].samples
        if len(samples) != len(x.samples):
            raise ValueError("derivative length mismatch")
        acc = acc + (-1) ** n * coeffs[n] * samples
    return BasebandSignal(acc, x.sample_rate_hz)


def total_error_budget(channel: MultipathChannel, symbol_T: float,
                       order: int = 1) -> ErrorBudget:
    """Per-tap and summed error-power budget of the order-n approximation.

    Order 1 uses the exact sinc-pulse constant; order 2 uses the same form
    with exponent 6 and an oracle-calibrated upper-estimate constant.
    symbol_T is the sin(x)/x pulse's time unit (see LEMMA_CONST): 1/(pi W)
    for a signal of two-sided bandwidth W, not 1/W.
    """
    if order == 1:
        const, expo = LEMMA_CONST, 4
    elif order == 2:
        const, expo = ORDER2_CONST, 6
    else:
        raise ValueError("order must be 1 or 2")
    if symbol_T <= 0:
        raise ValueError("symbol duration must be positive")
    per_tap = tuple(const * t.gain ** 2 * (t.delay_s / symbol_T) ** expo
                    for t in channel.taps)
    return ErrorBudget(per_tap_bound=per_tap)


def distance_error_curve(model: PathLossModel, symbol_T: float, distances_m):
    """Per-distance error contribution loss(d) * (d / (cT))^4, in dB.

    d is the round-trip path length; loss(d) is the power gain a^2 of a path
    of that length, so each point is the a^2 (tau/T)^4 factor of the error
    budget expressed against distance. symbol_T is the budget's, 1/(pi W) for
    a signal of two-sided bandwidth W (see LEMMA_CONST).
    """
    if symbol_T <= 0:
        raise ValueError("symbol duration must be positive")
    out = []
    for d in distances_m:
        if d <= 0:
            raise ValueError("distances must be positive")
        val = path_loss(model, d) * (d / (SPEED_OF_LIGHT * symbol_T)) ** 4
        out.append((float(d), float(10.0 * np.log10(val))))
    return out
