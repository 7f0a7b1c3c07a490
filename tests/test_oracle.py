import ast
import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdsic import oracle
from fdsic.channel import fractional_delay
from fdsic.harness import LEMMA_SPEC, LEMMA_TAU_GRID
from fdsic.oracle import (FHAT0_CLOSED, ORACLE_SEED, POISSON_N_MAX, SYMBOL_HALF_WINDOW,
                          delay_error_powers, exact_delay_oracle,
                          kernel_fourier0_numeric, lemma_kernel, poisson_check,
                          resample_delay_reference)
from fdsic.signals import BasebandSignal, SignalSpec, draw_symbols, gen_frame
from reference import lemma_kernel_expanded

REPO = Path(__file__).resolve().parents[1]

RRC_SPEC = SignalSpec(kind="single-carrier", bandwidth_hz=1.0, oversampling=4,
                      num_symbols=8, pulse="rrc", rolloff=0.3, seed=1)


# Slow forms the oracle's vectorized paths replaced, kept as references.

def _gauss_blocks_loop(lo_block, hi_block, nodes=oracle.GAUSS_NODES):
    """Kernel integral over [lo_block*pi, hi_block*pi), one block at a time."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    edges = np.arange(lo_block, hi_block + 1) * np.pi
    for a, b in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (a + b) + 0.5 * (b - a) * gl_x
        total += 0.5 * (b - a) * np.dot(gl_w, lemma_kernel(xm))
    return total


def _delay_full_convolution(x, d):
    """Periodic-kernel delay by `d` samples: the full linear convolution of
    the doubled frame, cut to its middle N outputs."""
    n_len = len(x)
    u = np.arange(n_len, dtype=float) - d
    u = (u + n_len / 2.0) % n_len - n_len / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = (np.sin(np.pi * u) / (n_len * np.sin(np.pi * u / n_len))
                * np.exp(-1j * np.pi * u / n_len))
    kern = np.where(np.abs(u) < 1e-9, 1.0 + 0.0j, kern)
    return np.convolve(np.concatenate([x, x]), kern)[n_len:2 * n_len]


def _lemma_sinc_deriv2_two_sins(x):
    """_lemma_sinc_deriv2 with the closed form calling np.sin twice."""
    return oracle._series_or_closed(
        x, 0.1, lambda xs: -1.0 / 3.0 + xs**2 / 10.0 - xs**4 / 168.0 + xs**6 / 6480.0,
        lambda xl: (2.0 * np.sin(xl) / xl**3 - np.sin(xl) / xl
                    - 2.0 * np.cos(xl) / xl**2))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _err_power_complex_product(spec, tau, trials):
    """exact_delay_oracle's err_power from one complex product."""
    g, gd = oracle._lemma_sinc, oracle._lemma_sinc_deriv
    rng = np.random.default_rng(ORACLE_SEED)
    n_offsets = 256
    n_trials = max(1, int(np.ceil(trials / n_offsets)))
    n = np.arange(-SYMBOL_HALF_WINDOW, SYMBOL_HALF_WINDOW + 1)
    v = rng.uniform(0.0, 1.0, size=n_offsets)[:, None] - n[None, :]
    gv = g(v)
    mean_power = float(np.mean(np.sum(gv**2, axis=1)))
    syms = draw_symbols(rng, (n_trials, len(n)), spec.constellation)
    w = g(v - tau) - gv + tau * gd(v)
    return float(np.mean(np.abs(syms @ w.T) ** 2) / mean_power)


class TestLemmaKernel:
    def test_zero_limit(self):
        # series limit of the squared second derivative at the origin
        assert lemma_kernel(0.0) == pytest.approx(1.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("x", [1.0, 2.0, 5.0, 10.0])
    def test_bounded_by_inverse_square(self, x):
        assert lemma_kernel(x) <= 1.0 / x**2

    def test_two_evaluation_paths_agree(self):
        for x in (np.pi, 1.0, 2.5, 7.3, 100.0):
            assert abs(lemma_kernel(x) - lemma_kernel_expanded(x)) <= 1e-14

    def test_series_matches_direct_at_crossover(self):
        # series branch (|x| < 0.1) and direct formula agree at the seam
        for x in (0.0999, 0.1001):
            direct = (2 * np.sin(x) / x**3 - np.sin(x) / x - 2 * np.cos(x) / x**2) ** 2
            assert lemma_kernel(x) == pytest.approx(direct, rel=1e-10)

    def test_frozen_value(self, oracle_frozen):
        assert lemma_kernel(np.pi) == pytest.approx(oracle_frozen["kernel_at_pi"], rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.1, 1e4), st.floats(-1e4, -0.1)),
                    min_size=1, max_size=64))
    def test_deriv2_one_sin_matches_two_sins(self, xs):
        x = np.array(xs)
        assert np.array_equal(_bits(oracle._lemma_sinc_deriv2(x)),
                              _bits(_lemma_sinc_deriv2_two_sins(x)))

    def test_deriv2_one_sin_matches_two_sins_on_poisson_grid(self):
        # every point poisson_check evaluates in the poisson verify suite
        n = np.arange(-POISSON_N_MAX, POISSON_N_MAX + 1)
        x = np.linspace(0.0, 1.0, 100)[:, None] - n[None, :]
        assert np.array_equal(_bits(oracle._lemma_sinc_deriv2(x)),
                              _bits(_lemma_sinc_deriv2_two_sins(x)))


class TestKernelFourier:
    def test_numeric_matches_closed_form(self):
        assert abs(kernel_fourier0_numeric() - FHAT0_CLOSED) <= 1e-6

    def test_frozen_value(self, oracle_frozen):
        assert kernel_fourier0_numeric() == pytest.approx(
            oracle_frozen["fhat0_numeric"], abs=1e-12)

    @pytest.mark.parametrize("blocks", [(0, 1024), (1024, 2048), (2048, 4096)])
    def test_vectorized_blocks_match_block_loop(self, blocks):
        assert oracle._gauss_blocks(*blocks) == pytest.approx(
            _gauss_blocks_loop(*blocks), rel=1e-13)


class TestPoissonCheck:
    def test_closed_form_values(self):
        root = np.sqrt(np.pi / 2)
        assert poisson_check(0.0).closed_form == pytest.approx((0.2 + 2 / 60) * root, rel=1e-12)
        assert poisson_check(0.0).closed_form == pytest.approx(0.2924, abs=1e-4)
        assert poisson_check(0.25).closed_form == pytest.approx(0.2 * root, rel=1e-12)
        assert poisson_check(0.25).closed_form == pytest.approx(0.25066, abs=1e-5)

    def test_closed_form_supremum(self):
        grid = np.linspace(0.0, 1.0, 100)
        assert max(poisson_check(d).closed_form for d in grid) <= 0.3

    def test_direct_sum_constant_near_pi_over_5(self):
        # the kernel's transform vanishes beyond angular frequency 2, so its
        # unit-step periodization is flat at the mean integral pi/5 (the
        # |n| <= 1000 truncation accounts for the ~1e-3 deficit)
        vals = [poisson_check(d).direct_sum for d in (0.0, 0.17, 0.25, 0.5, 0.83)]
        assert max(vals) - min(vals) <= 1e-6
        assert vals[0] == pytest.approx(np.pi / 5, abs=2e-3)

    def test_direct_sum_does_not_match_closed_form(self):
        # documents the standing gap between the two quantities
        pc = poisson_check(0.25)
        assert pc.direct_sum - pc.closed_form > 0.3

    def test_frozen_values(self, oracle_frozen):
        for d in (0.0, 0.25, 0.5):
            assert poisson_check(d).direct_sum == pytest.approx(
                oracle_frozen[f"poisson_direct_sum_{d}"], rel=1e-12)


class TestExactDelayOracle:
    def test_zero_delay_zero_error(self):
        r = exact_delay_oracle(LEMMA_SPEC, 0.0, trials=10_000)
        assert r["err_power"] <= 1e-20

    def test_bound_at_working_point(self):
        r = exact_delay_oracle(LEMMA_SPEC, 0.01, trials=100_000)
        assert r["err_power"] <= 7.5e-10

    def test_reproducible_against_fixture(self, oracle_frozen):
        for tau in (0.001, 0.01, 0.1):
            r = exact_delay_oracle(LEMMA_SPEC, tau, trials=100_000)
            assert r["err_power"] == pytest.approx(
                oracle_frozen[f"lemma_err_power_tau_{tau}"], rel=1e-12)

    @pytest.mark.parametrize("tau", [0.01, 0.1])
    def test_real_split_matches_complex_product(self, tau):
        r = exact_delay_oracle(LEMMA_SPEC, tau, trials=20_000)
        assert r["err_power"] == pytest.approx(
            _err_power_complex_product(LEMMA_SPEC, tau, 20_000), rel=1e-12)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            exact_delay_oracle(LEMMA_SPEC, 0.01, trials=trials)

    def test_refuses_any_pulse_but_sinc(self):
        # the lemma bounds the sin(x)/x pulse train; no other pulse is drawn
        for oracle_fn in (lambda: exact_delay_oracle(RRC_SPEC, 0.01),
                          lambda: delay_error_powers(RRC_SPEC, LEMMA_TAU_GRID)):
            with pytest.raises(ValueError, match="^the Monte Carlo oracle evaluates the sinc "
                                                 "pulse only, not 'rrc'$"):
                oracle_fn()


class TestDelayErrorPowers:
    # the reversed grid repeats a delay and ends at 0, so a weight carried
    # over from one delay into the next changes a later power
    @pytest.mark.parametrize("taus", [
        pytest.param((0.0, *LEMMA_TAU_GRID), id="sinc"),
        pytest.param((0.1, 0.01, 0.01, 0.0), id="sinc-reversed"),
    ])
    def test_matches_per_tau_oracle_exactly(self, taus):
        expected = [exact_delay_oracle(LEMMA_SPEC, tau)["err_power"] for tau in taus]
        assert delay_error_powers(LEMMA_SPEC, taus) == expected

    def test_grid_peaks_as_high_as_one_delay(self):
        # each delay's weight and products are freed before the next delay's
        def peak_mb(taus):
            tracemalloc.start()
            try:
                delay_error_powers(LEMMA_SPEC, taus)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        one, grid = peak_mb(LEMMA_TAU_GRID[:1]), peak_mb(LEMMA_TAU_GRID)
        assert grid - one <= 0.1, (one, grid)

    def test_complex_draw_is_freed_before_the_weights(self, monkeypatch):
        # the two real planes hold the symbols; the complex draw kept beside them
        # would add 3 MB to the lemma suite's peak memory
        draws, alive = [], []
        sinc = oracle._lemma_sinc

        def draw(*args):
            syms = draw_symbols(*args)
            draws.append(weakref.ref(syms))
            return syms

        def traced_sinc(x):
            alive.extend(ref() is not None for ref in draws)
            return sinc(x)
        monkeypatch.setattr(oracle, "draw_symbols", draw)
        monkeypatch.setattr(oracle, "_lemma_sinc", traced_sinc)
        delay_error_powers(LEMMA_SPEC, LEMMA_TAU_GRID)
        assert len(draws) == 1 and alive == [False] * len(LEMMA_TAU_GRID)


class TestResampleDelayReference:
    def test_zero_delay_identity(self):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=2,
                                 ofdm_fft_size=256, ofdm_used_carriers=128, seed=2))
        y = resample_delay_reference(x, 0.0)
        assert np.max(np.abs(y.samples - x.samples)) <= 1e-12

    def test_integer_delay_exact_shift(self):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=2,
                                 ofdm_fft_size=256, ofdm_used_carriers=128, seed=3))
        shift = 7
        y = resample_delay_reference(x, shift / x.sample_rate_hz)
        assert np.max(np.abs(y.samples - np.roll(x.samples, shift))) <= 1e-9

    def test_off_grid_delay_rejected(self):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=1,
                                 ofdm_fft_size=256, ofdm_used_carriers=128, seed=4))
        with pytest.raises(ValueError, match="grid"):
            resample_delay_reference(x, 0.31 / (64 * x.sample_rate_hz))

    def test_cross_implementation_agreement(self):
        for i in range(3):
            x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=2,
                                     ofdm_fft_size=512, ofdm_used_carriers=300,
                                     seed=40 + i))
            tau = (11 + 7 * i) / (64 * x.sample_rate_hz)
            a = fractional_delay(x, tau)
            b = resample_delay_reference(x, tau)
            resid = np.mean(np.abs(a.samples - b.samples) ** 2) / x.mean_power
            assert 10 * np.log10(resid + 1e-300) <= -100.0

    @pytest.mark.parametrize("fft_size", [256, 512])
    @pytest.mark.parametrize("d_fine", [0, 64 * 7, 37])
    def test_kept_window_equals_full_convolution(self, fft_size, d_fine):
        x = gen_frame(SignalSpec(kind="ofdm", bandwidth_hz=20e6, num_symbols=1,
                                 ofdm_fft_size=fft_size,
                                 ofdm_used_carriers=fft_size // 2, seed=5))
        y = resample_delay_reference(x, d_fine / (64 * x.sample_rate_hz))
        assert np.array_equal(y.samples, _delay_full_convolution(x.samples, d_fine / 64))

    def test_odd_length_rejected(self):
        x = BasebandSignal(np.ones(255, dtype=complex), 1.0)
        with pytest.raises(ValueError, match="even"):
            resample_delay_reference(x, 0.0)


def test_freeze_script_reproduces_fixture():
    path = REPO / "scripts" / "freeze_oracle_values.py"
    module_spec = importlib.util.spec_from_file_location("freeze_oracle_values", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    assert module.render() == (REPO / "tests" / "data" / "oracle_frozen.txt").read_text()


def test_oracle_imports_nothing_it_checks():
    # the module docstring's independence claim: besides the signal
    # containers, only the symbol alphabets come from the checked modules,
    # no delay, pulse, filter or fit code
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fdsic")):
            module = (node.module or "").removeprefix("fdsic.")
            imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("fdsic") for a in node.names)
    assert imported == {"signals": {"BasebandSignal", "SignalSpec", "draw_symbols"}}
