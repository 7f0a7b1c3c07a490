"""Digital-domain cancellation: derivative FIR filters, least-squares
coefficient estimation, reconstruction/subtraction, and complexity counts.

The received residual is modelled as y ~ a0 x - c1 x' + c2 x'' with x', x''
obtained by short FIR differentiators on the known transmit samples. The
digital stage is fit_orders: one normal-equation system on the training slice,
its leading 2x2 block solved for order 1 and its 3x3 for order 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BasebandSignal


def _taps(nums, den) -> np.ndarray:
    """Read-only float taps: exact integer numerators over one denominator."""
    taps = np.asarray(nums, dtype=float) / den
    taps.flags.writeable = False
    return taps


# Centre-aligned differentiator taps; deriv_filter and filter_response take them.
D1_3TAP = _taps([-1, 0, 1], 1)
D1_9TAP = _taps([3, -32, 168, -672, 0, 672, -168, 32, -3], 840)
D2_9TAP = _taps([1, 4, 4, -4, 10, -4, 4, 4, 1], 64)

# Minimum oversampling for the differentiators to act inside their accurate
# band.
MIN_OVERSAMPLING = 4

MIN_FIT_SAMPLES = 100

CONDITION_LIMIT = 1e12

# LsEstimate coefficient names, in design-column order; an order-n fit has n + 1.
LS_TERMS = ("a0", "c1", "c2")


class IllConditionedFitError(ValueError):
    """Gram matrix of the normal equations is numerically singular."""


@dataclass(frozen=True)
class LsEstimate:
    """Fitted coefficients of the model y ~ a0 x - c1 x' (+ c2 x'')."""

    a0: complex
    c1: complex
    residual_power_db: float
    c2: complex | None = None

    @property
    def order(self) -> int:
        return 1 if self.c2 is None else 2

    @property
    def coef(self) -> tuple:  # the order + 1 coefficients, in LS_TERMS order
        return tuple(getattr(self, name) for name in LS_TERMS[:self.order + 1])


def deriv_filter(x: BasebandSignal, taps: np.ndarray) -> BasebandSignal:
    """Centre-aligned differentiation of the sample stream.

    The tap list is applied so that y[n] = sum_k taps[k] x[n + k - centre]
    (a ramp through D1_3TAP yields +2); edges use the zero-padding
    convention and must be excluded by callers.
    """
    if len(x) <= len(taps):
        raise ValueError("signal must be longer than the filter")
    y = np.convolve(x.samples, taps[::-1], mode="same")
    return BasebandSignal(y, x.sample_rate_hz)


def filter_response(taps: np.ndarray, normalized_freq_grid) -> np.ndarray:
    """DTFT of the applied filter on a grid of cycles/sample in [0, 0.5]."""
    grid = np.asarray(normalized_freq_grid, dtype=float)
    if grid.size and (grid.min() < 0 or grid.max() > 0.5):
        raise ValueError("grid must lie in [0, 0.5] cycles/sample")
    k = np.arange(len(taps)) - (len(taps) - 1) // 2
    return (taps * np.exp(2j * np.pi * np.outer(grid, k))).sum(axis=-1)


def power_db(samples: np.ndarray) -> float:
    return float(10.0 * np.log10(np.mean(np.abs(samples) ** 2) + 1e-300))


# Samples dropped at each end of a filtered slice, where the filters see the
# zero padding; both filters have 9 taps, so it is 4 for either order.
EDGE_MARGIN = len(D1_9TAP) // 2


def design_columns(x: BasebandSignal, order: int) -> list:
    """Design-matrix columns x, -D1 x (, D2 x); order 1's are order 2's first two."""
    cols = [x.samples, -deriv_filter(x, D1_9TAP).samples]
    if order == 2:
        cols.append(deriv_filter(x, D2_9TAP).samples)
    return cols


def normal_equations(cols: list, b: np.ndarray) -> tuple:
    """(Gram matrix, right-hand side) over the rows clear of EDGE_MARGIN. Each entry
    is a numpy pairwise sum, not BLAS, so it is the same at any BLAS thread
    count, and the leading k x k block is the first k columns' system bit for bit."""
    a = [c[EDGE_MARGIN:len(c) - EDGE_MARGIN] for c in (*cols, b)]
    rows = np.array([[np.sum(ci * cj) for cj in a] for ci in (c.conj() for c in a[:-1])])
    return rows[:, :-1], rows[:, -1]


def model(cols: list, coef) -> np.ndarray:
    """sum_i coef[i] cols[i], added in column order into zeros, as in the recorded outputs."""
    acc = np.zeros(len(cols[0]), dtype=np.complex128)
    for c, col in zip(coef, cols):
        acc += c * col
    return acc


def fit_orders(x: BasebandSignal, y: BasebandSignal, train: slice, ev: slice,
               order: int) -> tuple:
    """Fit orders 1..order on x, y over `train`, cancel each over `ev`, and return
    (each order's LsEstimate, each order's `ev` residual in dB, the top order's
    canceled `ev` samples, the `ev` design columns); residuals skip EDGE_MARGIN
    samples per end. Raises IllConditionedFitError past condition number 1e12."""
    fs = x.sample_rate_hz
    b, y_ev = y.samples[train], y.samples[ev]
    cols = design_columns(BasebandSignal(x.samples[train], fs), order)
    gram, rhs = normal_equations(cols, b)
    eval_cols = design_columns(BasebandSignal(x.samples[ev], fs), order)
    estimates, residuals_db = [], []
    for k in range(2, order + 2):  # order k - 1 solves the leading k x k block
        if np.linalg.cond(gram[:k, :k]) > CONDITION_LIMIT:
            raise IllConditionedFitError("normal equations are ill-conditioned")
        coef = np.linalg.solve(gram[:k, :k], rhs[:k])
        resid = (b - model(cols[:k], coef))[EDGE_MARGIN:len(b) - EDGE_MARGIN]
        estimates.append(LsEstimate(residual_power_db=power_db(resid),
                                    **{name: complex(c) for name, c in zip(LS_TERMS, coef)}))
        canceled = y_ev - model(eval_cols[:k], estimates[-1].coef)
        residuals_db.append(power_db(canceled[EDGE_MARGIN:len(y_ev) - EDGE_MARGIN]))
    return tuple(estimates), tuple(residuals_db), canceled, eval_cols


def ls_fit(y: BasebandSignal, x: BasebandSignal, order: int) -> LsEstimate:
    """Fit (a0, c1[, c2]) on the aligned window, leaving EDGE_MARGIN samples at
    each end out of the fit and the residual; see fit_orders for the errors."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if len(y) != len(x):
        raise ValueError("y and x must be aligned and equal length")
    if len(x) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples")
    if x.mean_power == 0:
        raise ValueError("x has zero power")
    return fit_orders(x, y, slice(None), slice(None), order)[0][-1]


def cancel(y: BasebandSignal, x: BasebandSignal, est: LsEstimate) -> BasebandSignal:
    """Subtract the reconstructed SI, a0 x - c1 x' (+ c2 x'') by the fit's filters, from y.

    Intended for evaluation outside the training window; the filter edge
    margin still applies at the array ends.
    """
    if len(y) != len(x):
        raise ValueError("y and x must be aligned and equal length")
    return BasebandSignal(y.samples - model(design_columns(x, est.order), est.coef),
                          y.sample_rate_hz)


def complexity(n: int, filter_len: int, tapline_taps: int) -> dict:
    """Complex-operation counts for a training block of N samples.

    proposed_ops          : 4N + 8 (coefficient estimation alone)
    proposed_with_filter  : (2L + 4)N + 8 including the derivative filter
    tapline_ops           : 2KN + 2K^2 for a K-tap delay-line estimator
    """
    if n <= 0 or filter_len <= 0 or tapline_taps <= 0:
        raise ValueError("arguments must be positive integers")
    return {
        "proposed_ops": 4 * n + 8,
        "proposed_with_filter": (2 * filter_len + 4) * n + 8,
        "tapline_ops": 2 * tapline_taps * n + 2 * tapline_taps ** 2,
    }
