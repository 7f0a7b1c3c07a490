"""Independent brute-force references used to certify the main implementation.

Nothing here shares delay, convolution, or derivative code with the modules
it checks: signals are evaluated from pulse closed forms, delays by direct
periodic-kernel summation, and integrals by blockwise quadrature. Only the
symbol alphabets come from `signals.draw_symbols`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BasebandSignal, SignalSpec, draw_symbols, rrc_pulse

# Symbol window half-width for the Monte Carlo pulse-train evaluation. The
# truncation bias in the measured error power is O(1/SYMBOL_HALF_WINDOW) and
# only ever lowers it.
SYMBOL_HALF_WINDOW = 256

# Default Monte Carlo draw of the pulse-train oracles; the frozen fixture
# values in tests/data/oracle_frozen.txt come from this draw.
ORACLE_TRIALS = 100_000
ORACLE_SEED = 12345

POISSON_N_MAX = 1000

# Gauss-Legendre nodes per pi-wide block of the kernel integral.
GAUSS_NODES = 32

# Delays the reference resampler takes are multiples of 1 / FINE_FACTOR samples.
FINE_FACTOR = 64

# The kernel transform constants below follow the unitary angular-frequency
# convention fhat(xi) = (2 pi)^{-1/2} Integral f(x) exp(-j xi x) dx, the one
# under which the closed-form values (1/5)sqrt(pi/2) and (1/60)sqrt(pi/2)
# hold.
FHAT0_CLOSED = 0.2 * np.sqrt(np.pi / 2.0)
FHAT1_CLOSED = (1.0 / 60.0) * np.sqrt(np.pi / 2.0)


def _series_or_closed(x, cutoff: float, series, closed) -> np.ndarray:
    """series(x) where |x| < cutoff, closed(x) elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < cutoff
    out[small] = series(x[small])
    out[~small] = closed(x[~small])
    return out


def _lemma_sinc(x: np.ndarray) -> np.ndarray:
    """Pulse sin(x)/x whose second derivative squared is the lemma kernel."""
    return _series_or_closed(x, 1e-4, lambda xs: 1.0 - xs**2 / 6.0 + xs**4 / 120.0,
                             lambda xl: np.sin(xl) / xl)


def _lemma_sinc_deriv(x: np.ndarray) -> np.ndarray:
    """d/dx of sin(x)/x."""
    return _series_or_closed(x, 1e-4, lambda xs: -xs / 3.0 + xs**3 / 30.0 - xs**5 / 840.0,
                             lambda xl: np.cos(xl) / xl - np.sin(xl) / xl**2)


def _lemma_sinc_deriv2(x: np.ndarray) -> np.ndarray:
    """d^2/dx^2 of sin(x)/x = 2 sin x / x^3 - sin x / x - 2 cos x / x^2,
    with the series limit -1/3 at 0."""
    def closed(xl):
        s = np.sin(xl)
        return 2.0 * s / xl**3 - s / xl - 2.0 * np.cos(xl) / xl**2

    return _series_or_closed(
        x, 0.1, lambda xs: -1.0 / 3.0 + xs**2 / 10.0 - xs**4 / 168.0 + xs**6 / 6480.0,
        closed)


def lemma_kernel(x) -> np.ndarray:
    """Squared second derivative of sin(x)/x:

        f(x) = (2 sin x / x^3 - sin x / x - 2 cos x / x^2)^2

    with the series limit f(0) = 1/9. Accepts scalars or arrays.
    """
    out = _lemma_sinc_deriv2(np.atleast_1d(x)) ** 2
    return out if np.ndim(x) else float(out[0])


def lemma_kernel_expanded(x) -> np.ndarray:
    """Same kernel via the expanded trig identity (independent evaluation):

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


def _gauss_blocks(lo_block: int, hi_block: int) -> float:
    """Integral of the kernel over [lo_block*pi, hi_block*pi) by per-block
    Gauss-Legendre quadrature."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    edges = np.arange(lo_block, hi_block + 1) * np.pi
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    xm = (0.5 * (a + b))[:, None] + half[:, None] * gl_x   # (blocks, nodes)
    return float(np.sum(half * (lemma_kernel(xm) @ gl_w)))


def kernel_fourier0_numeric() -> float:
    """Numeric fhat(0) = (2 pi)^{-1/2} Integral f(x) dx.

    The integral is summed over pi-wide blocks out to 4096 pi and the slowly
    decaying 1/L tail is removed by Richardson extrapolation over doublings,
    giving ~1e-9 accuracy.
    """
    n1 = 1024
    s1 = 2.0 * _gauss_blocks(0, n1)
    s2 = s1 + 2.0 * _gauss_blocks(n1, 2 * n1)
    s4 = s2 + 2.0 * _gauss_blocks(2 * n1, 4 * n1)
    integral = s1 / 3.0 - 2.0 * s2 + (8.0 / 3.0) * s4
    return float(integral / np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class PoissonCheck:
    delta_over_T: float
    direct_sum: float
    closed_form: float

    @property
    def matches(self) -> bool:
        return abs(self.direct_sum - self.closed_form) <= 1e-6


def poisson_closed_form(delta_over_T: float) -> float:
    """Closed-form periodization target built from the fhat constants:

        fhat(0) + 2 fhat(1) cos(2 pi delta/T)
    """
    return float(FHAT0_CLOSED
                 + 2.0 * FHAT1_CLOSED * np.cos(2.0 * np.pi * delta_over_T))


def poisson_check(delta_over_T: float) -> PoissonCheck:
    """Directly periodize the kernel, sum over |n| <= 1000, and compare with
    the closed form.

    Note the direct sum is constant in delta at ~pi/5 = 0.628: the kernel's
    transform vanishes beyond angular frequency 2, well inside the first
    sampling harmonic at 2 pi, so the periodization keeps only its mean.
    The closed form evaluates to at most 0.293 and cannot match it; both
    values are reported so callers can see the gap.
    """
    n = np.arange(-POISSON_N_MAX, POISSON_N_MAX + 1)
    direct = float(np.sum(lemma_kernel(delta_over_T - n)))
    return PoissonCheck(delta_over_T=float(delta_over_T), direct_sum=direct,
                        closed_form=poisson_closed_form(delta_over_T))


def _pulse_functions(spec: SignalSpec):
    """Closed-form pulse and derivative, in symbol-duration units."""
    if spec.pulse == "sinc":
        return _lemma_sinc, _lemma_sinc_deriv
    b = spec.rolloff

    def g(v):
        return rrc_pulse(v, b)

    def gd(v, h=1e-4):
        # Richardson central difference of the closed form; adequate for
        # the informational RRC path (error ~ h^4).
        return (8.0 * (g(v + h) - g(v - h)) - (g(v + 2 * h) - g(v - 2 * h))) / (12.0 * h)

    return g, gd


def _pulse_train_draw(spec: SignalSpec, g, trials: int, seed: int):
    """Monte Carlo draw of the pulse train x(t) = sum_n s_n g(t - n): from one
    RNG, the sampling offsets v = t - n, then the symbols s_n. Returns v, g(v)
    and power(w), the mean power of sum_n s_n w(t - n) relative to that of x.
    Weights w never use the RNG, so they may be computed after the draw."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    n_offsets = 256
    n_trials = max(1, int(np.ceil(trials / n_offsets)))
    n = np.arange(-SYMBOL_HALF_WINDOW, SYMBOL_HALF_WINDOW + 1)
    v = rng.uniform(0.0, 1.0, size=n_offsets)[:, None] - n[None, :]  # (offsets, symbols)
    gv = g(v)
    # E|x|^2 = mean_t sum_n g^2 for unit-variance uncorrelated symbols
    mean_power = float(np.mean(np.sum(gv**2, axis=1)))
    syms = draw_symbols(rng, (n_trials, len(n)), spec.constellation)
    re, im = syms.real, syms.imag

    def power(w):
        # w is real, so |syms @ w.T|^2 splits into two real products
        return float(np.mean((re @ w.T) ** 2 + (im @ w.T) ** 2) / mean_power)
    return v, gv, power


def exact_delay_oracle(spec: SignalSpec, tau_over_T: float, trials: int = ORACLE_TRIALS,
                       seed: int = ORACLE_SEED) -> dict:
    """Monte Carlo first-order Taylor error of a delayed pulse train.

    Draws random symbol sequences and sampling instants, evaluates
    x(t - tau), x(t) and x'(t) from the pulse closed form (no FIR filters),
    and returns the measured powers of

        E = x(t - tau) - x(t) + tau x'(t)      and of      tau x'(t)

    for the unit-power normalized signal. For the sinc pulse sin(x)/x this
    is the quantity bounded by 0.075 (tau/T)^4.
    """
    g, gd = _pulse_functions(spec)
    eps = float(tau_over_T)
    v, gv, power = _pulse_train_draw(spec, g, trials, seed)
    dv = eps * gd(v)
    return {"err_power": power(g(v - eps) - gv + dv), "deriv_power": power(dv)}


def delay_error_powers(spec: SignalSpec, taus) -> list:
    """exact_delay_oracle's err_power at each delay of `taus`, bit for bit,
    from one draw: the offsets, g(v), g'(v) and the symbols are shared, and
    each delay evaluates only g(v - tau) and its error weight."""
    g, gd = _pulse_functions(spec)
    v, gv, power = _pulse_train_draw(spec, g, ORACLE_TRIALS, ORACLE_SEED)
    gdv = gd(v)
    errs = []
    for tau in map(float, taus):
        w = g(v - tau)  # (g(v - tau) - g(v)) + tau g'(v), in place
        w -= gv
        w += tau * gdv
        errs.append(power(w))
        del w  # freed before the next delay's g(v - tau)
    return errs


def order2_remainder(spec: SignalSpec, tau_over_T: float) -> float:
    """Monte Carlo power of the second-order Taylor remainder

        x(t - tau) - x(t) + tau x'(t) - (tau^2 / 2) x''(t)

    of the unit-power sinc pulse train, from the closed forms of sin(x)/x
    and its derivatives, over exact_delay_oracle's default draw.
    """
    if spec.pulse != "sinc":
        raise ValueError("order2_remainder supports the sinc pulse only")
    eps = float(tau_over_T)
    v, gv, power = _pulse_train_draw(spec, _lemma_sinc, ORACLE_TRIALS, ORACLE_SEED)
    return power(_lemma_sinc(v - eps) - gv + eps * _lemma_sinc_deriv(v)
                 - 0.5 * eps**2 * _lemma_sinc_deriv2(v))


def resample_delay_reference(signal: BasebandSignal, delay_s: float) -> BasebandSignal:
    """Circularly delayed copy by direct periodic-interpolation-kernel
    summation on the fine grid (zero-stuffing by FINE_FACTOR with the ideal
    periodic interpolator, evaluated in the time domain).

    The kernel matches an N-point DFT grid with an unpaired most-negative
    bin, so the reference shares the simulator's periodic convention while
    sharing none of its code. Delays must sit on the fine grid.
    """
    x = signal.samples
    n_len = len(x)
    if n_len % 2:
        raise ValueError("reference resampler requires an even frame length")
    d_fine = delay_s * signal.sample_rate_hz * FINE_FACTOR
    if abs(d_fine - round(d_fine)) > 1e-6:
        raise ValueError("delay must lie on the fine resampling grid")
    d = round(d_fine) / FINE_FACTOR

    m = np.arange(n_len, dtype=float)
    u = m - d
    # principal value in [-N/2, N/2); the kernel is N-periodic for even N
    u = (u + n_len / 2.0) % n_len - n_len / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = (np.sin(np.pi * u) / (n_len * np.sin(np.pi * u / n_len))
                * np.exp(-1j * np.pi * u / n_len))
    kern = np.where(np.abs(u) < 1e-9, 1.0 + 0.0j, kern)

    # y[m] = sum_k x[k] kern[(m - k) mod N], only the N kept outputs
    y = np.convolve(np.concatenate([x, x])[1:], kern, "valid")
    return BasebandSignal(y, signal.sample_rate_hz)
