"""Independent brute-force references used to certify the main implementation.

Nothing here shares delay, convolution, or derivative code with the modules
it checks: pulse trains are evaluated from the closed form of sin(x)/x,
delays by direct periodic-kernel summation, and integrals by blockwise
quadrature. Only the symbol alphabets come from `signals.draw_symbols`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BasebandSignal, SignalSpec, draw_symbols

# Symbol window half-width for the Monte Carlo pulse-train evaluation. The
# truncation bias in the measured error power is O(1/SYMBOL_HALF_WINDOW) and
# only ever lowers it.
SYMBOL_HALF_WINDOW = 256

# Default sample count and only seed of the lemma oracle's Monte Carlo draw;
# the frozen values in tests/data/oracle_frozen.txt come from this draw.
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
    small = np.abs(x) < cutoff
    with np.errstate(divide="ignore", invalid="ignore"):  # closed is elementwise
        out = closed(x)
    out[small] = series(x[small])
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
    direct_sum: float
    closed_form: float


def poisson_check(delta_over_T: float) -> PoissonCheck:
    """Directly periodize the kernel, sum over |n| <= 1000, and compare with
    the closed-form periodization target built from the fhat constants:

        fhat(0) + 2 fhat(1) cos(2 pi delta/T)

    Note the direct sum is constant in delta at ~pi/5 = 0.628: the kernel's
    transform vanishes beyond angular frequency 2, well inside the first
    sampling harmonic at 2 pi, so the periodization keeps only its mean.
    The closed form evaluates to at most 0.293 and cannot match it; both
    values are reported so callers can see the gap.
    """
    n = np.arange(-POISSON_N_MAX, POISSON_N_MAX + 1)
    direct = float(np.sum(lemma_kernel(delta_over_T - n)))
    closed = FHAT0_CLOSED + 2.0 * FHAT1_CLOSED * np.cos(2.0 * np.pi * delta_over_T)
    return PoissonCheck(direct_sum=direct, closed_form=float(closed))


def _error_powers(spec: SignalSpec, taus, trials: int) -> list:
    """Monte Carlo power of the first-order Taylor error of a delayed sinc pulse
    train x(t) = sum_n s_n g(t - n), g(v) = sin(v)/v, at each delay tau of `taus`:

        E = x(t - tau) - x(t) + tau x'(t),

    from the closed forms of sin(x)/x (no FIR filters), relative to the power of
    x. One RNG seeded with ORACLE_SEED draws the sampling offsets v = t - n, then
    the symbols s_n, once for all delays. A spec with any other pulse is refused."""
    if spec.pulse != "sinc":
        raise ValueError("the Monte Carlo oracle evaluates the sinc pulse only, "
                         f"not {spec.pulse!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(ORACLE_SEED)
    n_offsets = 256
    n_trials = max(1, int(np.ceil(trials / n_offsets)))
    n = np.arange(-SYMBOL_HALF_WINDOW, SYMBOL_HALF_WINDOW + 1)
    v = rng.uniform(0.0, 1.0, size=n_offsets)[:, None] - n[None, :]  # (offsets, symbols)
    gv = _lemma_sinc(v)
    # E|x|^2 = mean_t sum_n g^2 for unit-variance uncorrelated symbols
    mean_power = float(np.mean(np.sum(gv**2, axis=1)))
    syms = draw_symbols(rng, (n_trials, len(n)), spec.constellation)
    re, im = np.stack([syms.real, syms.imag])  # C-contiguous, so no product copies them
    del syms  # the planes hold the draw; its complex copy would raise the peak memory
    gdv = _lemma_sinc_deriv(v)

    def power(eps: float) -> float:  # a function, so w, p and q go before the next delay
        w = _lemma_sinc(v - eps)  # the error weight g(v - eps) - g(v) + eps g'(v), in place
        w -= gv
        w += eps * gdv
        # w is real, so |syms @ w.T|^2 splits into two real products, squared and added in place
        p, q = re @ w.T, im @ w.T
        return float(np.mean(np.add(np.square(p, out=p), np.square(q, out=q), out=p)) / mean_power)
    return [power(eps) for eps in map(float, taus)]


def exact_delay_oracle(spec: SignalSpec, tau_over_T: float, trials: int = ORACLE_TRIALS) -> dict:
    """{"err_power": the lemma's error power at one delay}, bounded by
    0.075 (tau/T)^4: _error_powers on a fresh draw of `trials` samples."""
    return {"err_power": _error_powers(spec, [tau_over_T], trials)[0]}


def delay_error_powers(spec: SignalSpec, taus) -> list:
    """exact_delay_oracle's err_power at each delay of `taus`, bit for bit, from
    one draw: the offsets, g(v), g'(v) and the symbols are shared."""
    return _error_powers(spec, taus, ORACLE_TRIALS)


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
