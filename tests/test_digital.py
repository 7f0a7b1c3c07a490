from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdsic.digital import (D1_3TAP, D1_9TAP, D2_9TAP, EDGE_MARGIN, IllConditionedFitError,
                           LsEstimate, cancel, complexity, deriv_filter, design_columns,
                           filter_response, fit_orders, ls_fit, normal_equations, power_db)
from fdsic.signals import BasebandSignal

FS = 80e6


def bandlimited_noise(n, frac=0.08, seed=0):
    rng = np.random.default_rng(seed)
    freqs = np.fft.fftfreq(n)
    spectrum = np.zeros(n, dtype=complex)
    mask = np.abs(freqs) <= frac
    spectrum[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    x = np.fft.ifft(spectrum)
    return BasebandSignal(x / np.sqrt(np.mean(np.abs(x) ** 2)), FS)


class TestFilterTaps:
    def test_exact_rationals(self):
        # each float tap is the nearest double to its exact rational value
        exact = [(D1_3TAP, [Fraction(n) for n in (-1, 0, 1)]),
                 (D1_9TAP, [Fraction(n, 840) for n in (3, -32, 168, -672, 0, 672, -168, 32, -3)]),
                 (D2_9TAP, [Fraction(n, 64) for n in (1, 4, 4, -4, 10, -4, 4, 4, 1)])]
        for taps, fractions in exact:
            assert taps.dtype == np.float64
            assert taps.tolist() == [float(q) for q in fractions]

    def test_taps_are_read_only(self):
        for taps in (D1_3TAP, D1_9TAP, D2_9TAP):
            with pytest.raises(ValueError, match="read-only"):
                taps[0] = 0.0

    def test_first_derivative_antisymmetric(self):
        for taps in (D1_3TAP, D1_9TAP):
            assert np.allclose(taps, -taps[::-1])
            assert abs(taps.sum()) <= 1e-16

    def test_d2_dc_response_documented_value(self):
        # sum of taps is 20/64; the second-derivative filter passes DC
        assert np.sum(D2_9TAP) == pytest.approx(20 / 64)


class TestDerivFilter:
    def test_ramp_gives_two(self):
        x = BasebandSignal(np.arange(64, dtype=float) + 0j, FS)
        y = deriv_filter(x, D1_3TAP)
        assert np.allclose(y.samples[1:-1], 2.0)

    def test_dc_gives_zero(self):
        x = BasebandSignal(np.full(64, 3.3 + 0j), FS)
        for f in (D1_3TAP, D1_9TAP):
            y = deriv_filter(x, f)
            m = len(f) // 2
            assert np.max(np.abs(y.samples[m:-m])) <= 1e-13

    def test_tone_matches_dtft(self):
        nu = 0.1  # cycles/sample
        n = np.arange(2048)
        x = BasebandSignal(np.exp(2j * np.pi * nu * n), FS)
        y = deriv_filter(x, D1_9TAP)
        gain = filter_response(D1_9TAP, [nu])[0]
        expected = gain * x.samples
        assert np.max(np.abs(y.samples[8:-8] - expected[8:-8])) <= 1e-12

    def test_short_signal_rejected(self):
        x = BasebandSignal(np.ones(5, dtype=complex), FS)
        with pytest.raises(ValueError):
            deriv_filter(x, D1_9TAP)


class TestFilterResponse:
    def test_zero_frequency(self):
        for f in (D1_3TAP, D1_9TAP):
            assert abs(filter_response(f, [0.0])[0]) <= 1e-15

    def test_3tap_closed_form(self):
        grid = np.linspace(0.0, 0.5, 257)
        h = filter_response(D1_3TAP, grid)
        assert np.max(np.abs(h - 1j * 2 * np.sin(2 * np.pi * grid))) <= 1e-12

    def test_9tap_accuracy_to_nyquist_0p3(self):
        # "0.3 normalized" on a Nyquist axis = 0.15 cycles/sample
        grid = np.linspace(1e-4, 0.15, 1500)
        h = filter_response(D1_9TAP, grid)
        ideal = 1j * 2 * np.pi * grid
        assert np.max(np.abs(h - ideal) / np.abs(ideal)) <= 0.02

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            filter_response(D1_3TAP, [0.6])


class TestLsFit:
    def test_pure_scaling(self):
        x = bandlimited_noise(4096, seed=1)
        y = BasebandSignal(2.0 * x.samples, FS)
        est = ls_fit(y, x, order=1)
        assert est.a0 == pytest.approx(2.0, abs=1e-10)
        assert abs(est.c1) <= 1e-10

    def test_synthesis_recovery(self):
        x = bandlimited_noise(8192, seed=2)
        a0, c1 = 0.8 - 0.3j, 0.05 + 0.02j
        d1 = deriv_filter(x, D1_9TAP)
        y = BasebandSignal(a0 * x.samples - c1 * d1.samples, FS)
        est = ls_fit(y, x, order=1)
        assert abs(est.a0 - a0) / abs(a0) <= 1e-10
        assert abs(est.c1 - c1) / abs(c1) <= 1e-10
        assert est.residual_power_db <= -120.0

    def test_order2_synthesis_recovery(self):
        x = bandlimited_noise(8192, seed=3)
        a0, c1, c2 = 0.9 + 0.1j, 0.04 - 0.01j, 0.002 + 0.005j
        d1 = deriv_filter(x, D1_9TAP)
        d2 = deriv_filter(x, D2_9TAP)
        y = BasebandSignal(a0 * x.samples - c1 * d1.samples + c2 * d2.samples, FS)
        est = ls_fit(y, x, order=2)
        assert abs(est.a0 - a0) / abs(a0) <= 1e-10
        assert abs(est.c1 - c1) / abs(c1) <= 1e-10
        assert abs(est.c2 - c2) / abs(c2) <= 1e-10

    def test_order_is_read_from_the_terms(self):
        x = bandlimited_noise(4096, seed=9)
        for order in (1, 2):
            est = ls_fit(x, x, order=order)
            assert est.order == order == len(est.coef) - 1
        assert LsEstimate(a0=1.0, c1=0.0, residual_power_db=0.0).order == 1
        assert LsEstimate(a0=1.0, c1=0.0, residual_power_db=0.0, c2=0.0).order == 2

    def test_fractional_sample_delay_order2_beats_order1(self):
        from fdsic.channel import fractional_delay
        x = bandlimited_noise(16384, seed=4)
        y = fractional_delay(x, 0.05 / FS)
        e1 = ls_fit(y, x, order=1)
        e2 = ls_fit(y, x, order=2)
        assert e2.residual_power_db < e1.residual_power_db

    def test_singular_gram_distinct_error(self):
        x = BasebandSignal(np.ones(4096, dtype=complex), FS)  # x' = 0
        y = BasebandSignal(np.ones(4096, dtype=complex), FS)
        with pytest.raises(IllConditionedFitError):
            ls_fit(y, x, order=1)

    def test_short_input_rejected(self):
        x = bandlimited_noise(4096, seed=5)
        short = BasebandSignal(x.samples[:50], FS)
        with pytest.raises(ValueError):
            ls_fit(short, short, order=1)

    def test_order_validation(self):
        x = bandlimited_noise(512, seed=6)
        with pytest.raises(ValueError):
            ls_fit(x, x, order=3)

    def test_scale_equivariance(self):
        x = bandlimited_noise(8192, seed=7)
        d1 = deriv_filter(x, D1_9TAP)
        rng = np.random.default_rng(8)
        noise = 1e-3 * (rng.standard_normal(8192) + 1j * rng.standard_normal(8192))
        y = BasebandSignal(0.7 * x.samples - 0.03 * d1.samples + noise, FS)
        alpha = 3.0 - 4.0j
        ya = BasebandSignal(alpha * y.samples, FS)
        e = ls_fit(y, x, order=1)
        ea = ls_fit(ya, x, order=1)
        assert ea.a0 == pytest.approx(alpha * e.a0, rel=1e-9)
        assert ea.c1 == pytest.approx(alpha * e.c1, rel=1e-9)
        rel = ea.residual_power_db - 20 * np.log10(abs(alpha))
        assert rel == pytest.approx(e.residual_power_db, abs=1e-6)

    def test_ls_optimality_under_perturbation(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            x = bandlimited_noise(4096, seed=20 + trial)
            d1 = deriv_filter(x, D1_9TAP)
            noise = 0.01 * (rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
            a0 = 1.0 + 0.5j
            c1 = 0.3 - 0.2j
            y = BasebandSignal(a0 * x.samples - c1 * d1.samples + noise, FS)
            est = ls_fit(y, x, order=1)

            def resid_power(a, c):
                r = cancel(y, x, LsEstimate(a0=a, c1=c, residual_power_db=0.0))
                return np.mean(np.abs(r.samples[8:-8]) ** 2)

            base = resid_power(est.a0, est.c1)
            for bump in (1.01, 0.99):
                assert resid_power(est.a0 * bump, est.c1) > base
                assert resid_power(est.a0, est.c1 * bump) > base

    def test_shift_consistency(self):
        from fdsic.channel import fractional_delay
        x = bandlimited_noise(32768, seed=10)
        rng = np.random.default_rng(11)
        noise = 1e-4 * (rng.standard_normal(32768) + 1j * rng.standard_normal(32768))
        y_full = BasebandSignal(fractional_delay(x, 0.03 / FS).samples * 0.9 + noise, FS)
        half = 16384
        xa = BasebandSignal(x.samples[:half], FS)
        ya = BasebandSignal(y_full.samples[:half], FS)
        xb = BasebandSignal(x.samples[half:], FS)
        yb = BasebandSignal(y_full.samples[half:], FS)
        est = ls_fit(ya, xa, order=2)
        out = cancel(yb, xb, est)
        eval_db = 10 * np.log10(np.mean(np.abs(out.samples[8:-8]) ** 2))
        assert abs(eval_db - est.residual_power_db) <= 3.0


def delayed_pair(n, seed):
    """(y, x): x delayed by a twentieth of a sample, scaled, plus noise."""
    from fdsic.channel import fractional_delay
    x = bandlimited_noise(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    noise = 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return BasebandSignal(0.8j * fractional_delay(x, 0.05 / FS).samples + noise, FS), x


class TestNestedOrders:
    def test_both_filters_share_the_edge_margin(self):
        assert EDGE_MARGIN == len(D1_9TAP) // 2 == len(D2_9TAP) // 2 == 4

    def test_order1_system_is_leading_block_of_order2(self):
        y, x = delayed_pair(4096, seed=30)
        gram1, rhs1 = normal_equations(design_columns(x, 1), y.samples)
        gram2, rhs2 = normal_equations(design_columns(x, 2), y.samples)
        assert np.array_equal(gram2[:2, :2], gram1)
        assert np.array_equal(rhs2[:2], rhs1)

    def test_order1_from_order2_system_equals_ls_fit(self):
        y, x = delayed_pair(4096, seed=31)
        whole = slice(None)
        est = fit_orders(x, y, whole, whole, 2)[0][0]
        ref = ls_fit(y, x, 1)
        assert (est.a0, est.c1, est.c2) == (ref.a0, ref.c1, None)
        assert est.residual_power_db == ref.residual_power_db

    @pytest.mark.parametrize("order", [1, 2])
    def test_system_matches_matrix_product(self, order):
        # the BLAS matrix product the per-entry sums replaced, kept as their oracle
        y, x = delayed_pair(4096, seed=32)
        gram, rhs = normal_equations(design_columns(x, order), y.samples)
        sl = slice(EDGE_MARGIN, len(x) - EDGE_MARGIN)
        a = np.stack([c[sl] for c in design_columns(x, order)], axis=1)
        np.testing.assert_allclose(gram, a.conj().T @ a, rtol=1e-12)
        np.testing.assert_allclose(rhs, a.conj().T @ y.samples[sl], rtol=1e-12)

    def test_singular_leading_block_rejected(self):
        x = BasebandSignal(np.ones(4096, dtype=complex), FS)  # x' = 0
        whole = slice(None)
        with pytest.raises(IllConditionedFitError):
            fit_orders(x, x, whole, whole, 2)


class TestFitOrders:
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_lstsq_and_cancel_on_disjoint_slices(self, order):
        y, x = delayed_pair(8192, seed=33)
        train, ev = slice(64, 4160), slice(4160, 8128)
        estimates, residuals_db, canceled, eval_cols = fit_orders(x, y, train, ev, order)
        assert [est.order for est in estimates] == list(range(1, order + 1))
        assert len(residuals_db) == order
        x_tr, y_tr = (BasebandSignal(s.samples[train], FS) for s in (x, y))
        x_ev, y_ev = (BasebandSignal(s.samples[ev], FS) for s in (x, y))
        inner = slice(EDGE_MARGIN, len(x_ev) - EDGE_MARGIN)
        trim = slice(EDGE_MARGIN, len(x_tr) - EDGE_MARGIN)
        cols = design_columns(x_tr, order)
        for k, (est, res_db) in enumerate(zip(estimates, residuals_db), start=1):
            a = np.stack([c[trim] for c in cols[:k + 1]], axis=1)
            ref = np.linalg.lstsq(a, y_tr.samples[trim], rcond=None)[0]
            np.testing.assert_allclose(est.coef, ref, rtol=1e-9)
            out = cancel(y_ev, x_ev, est)
            assert res_db == power_db(out.samples[inner])
        assert np.array_equal(canceled, out.samples)
        assert all(np.array_equal(got, want)
                   for got, want in zip(eval_cols, design_columns(x_ev, order)))


class TestCancel:
    def test_exact_model_cancels(self):
        x = bandlimited_noise(8192, seed=12)
        d1 = deriv_filter(x, D1_9TAP)
        a0, c1 = 1.1 - 0.2j, 0.07 + 0.01j
        y = BasebandSignal(a0 * x.samples - c1 * d1.samples, FS)
        est = ls_fit(y, x, order=1)
        out = cancel(y, x, est)
        db = 10 * np.log10(np.mean(np.abs(out.samples[8:-8]) ** 2))
        assert db <= -120.0

    def test_zero_estimate_identity(self):
        x = bandlimited_noise(2048, seed=13)
        y = bandlimited_noise(2048, seed=14)
        est = LsEstimate(a0=0.0, c1=0.0, residual_power_db=0.0)
        out = cancel(y, x, est)
        assert np.array_equal(out.samples, y.samples)

    def test_reconstruct_matches_model(self):
        # the SI cancel subtracts is a0 x - c1 x' through the fit's filter
        x = bandlimited_noise(2048, seed=15)
        y = bandlimited_noise(2048, seed=16)
        est = LsEstimate(a0=2.0, c1=0.5, residual_power_db=0.0)
        si = y.samples - cancel(y, x, est).samples
        d1 = deriv_filter(x, D1_9TAP)
        expected = 2.0 * x.samples - 0.5 * d1.samples
        assert np.max(np.abs(si - expected)) <= 1e-12


class TestComplexity:
    def test_reference_values(self):
        assert complexity(1000, 9, 30)["proposed_with_filter"] == 22008
        assert complexity(1000, 9, 30)["tapline_ops"] == 61800

    def test_minimal(self):
        assert complexity(1, 9, 30)["proposed_ops"] == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity(0, 9, 30)


@given(n=st.integers(1, 10**6), L=st.integers(1, 99), K=st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_complexity_closed_forms(n, L, K):
    c = complexity(n, L, K)
    assert c["proposed_ops"] == 4 * n + 8
    assert c["proposed_with_filter"] == (2 * L + 4) * n + 8
    assert c["tapline_ops"] == 2 * K * n + 2 * K * K
