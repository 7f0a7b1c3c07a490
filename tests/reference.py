"""Test-only references: quantities the tests check the simulator against
that no command of the simulator computes."""

import numpy as np

from fdsic.signals import BasebandSignal


def papr_db(signal: BasebandSignal) -> float:
    """Peak-to-average power ratio, 10 log10(max|x|^2 / mean|x|^2)."""
    p = np.abs(signal.samples) ** 2
    mean = p.mean()
    if mean == 0:
        raise ValueError("zero-power signal")
    return float(10.0 * np.log10(p.max() / mean))


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
