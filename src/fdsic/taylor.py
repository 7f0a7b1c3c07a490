"""Linearized channel coefficients and the analytic error budget.

A multipath SI channel acting on a narrowband signal collapses to
H(f) = C0 + C1 f, with higher orders C_n available when more accuracy is
needed. C_n absorbs the 1/n! factor, so the model SI, sum_n (-1)^n C_n x^(n)
(digital.model over design columns), multiplies plain time derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .channel import MultipathChannel

MAX_ORDER = 4

# Leading constant of the first-order error-power bound for unit-power
# sinc-pulse signals: E|error|^2 <= LEMMA_CONST * a^2 (tau/T)^4. T is the time
# unit of the sin(x)/x pulse sin(t/T)/(t/T), whose half band is 1/(2 pi T), so
# a signal of two-sided bandwidth W has T = 1/(pi W), not 1/W. On a unit-power
# 10 MHz sinc single-carrier frame (12,000 symbols, seed 3, exact derivative,
# tau/T from 0.005 to 0.05) the error is 63.2x the bound with T = 1/W and
# 0.65x with T = 1/(pi W); a flat band of +-W/2 gives pi^4/20 (tau W)^4.
LEMMA_CONST = 0.075


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


def total_error_budget(channel: MultipathChannel, symbol_T: float,
                       order: int = 1) -> ErrorBudget:
    """Per-tap and summed error-power budget of the first-order approximation,
    per unit transmit power: at G_t the error power is G_t times it. Only
    order 1, the paper's model, has a budget; any other order is refused.

    symbol_T is the sin(x)/x pulse's time unit (see LEMMA_CONST): 1/(pi W)
    for a signal of two-sided bandwidth W, not 1/W.
    """
    if order != 1:
        raise ValueError("order must be 1")
    if symbol_T <= 0:
        raise ValueError("symbol duration must be positive")
    per_tap = tuple(LEMMA_CONST * t.gain ** 2 * (t.delay_s / symbol_T) ** 4
                    for t in channel.taps)
    return ErrorBudget(per_tap_bound=per_tap)
