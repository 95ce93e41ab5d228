"""Adaptive Gauss-Kronrod integration and exponential-integral tail channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal.quadrature import (
    BudgetExceededError,
    QuadResult,
    cosine_tail,
    expint_en,
    integrate_adaptive,
    tail_channel,
)

# mpmath expint(n, z) at 50 digits.
EXPINT_TABLE = [
    (2, 3.0 + 0.0j, 0.010641925085272830742 + 0.0j),
    (3, 0.0 + 5.0j, 0.16376990868141082174 + 0.031120196801284597741j),
    (5, 2.0 - 7.0j, 0.00032232685010372375493 + 0.013678760792092572722j),
    (4, 0.5 + 0.5j, 0.12728585012400803661 - 0.099969775911247921262j),
    (7, 0.0 + 40.0j, -0.020804600328778758377 + 0.012997878796486664613j),
    (2, 0.0 + 0.3j, 0.57364880422924999641 - 0.49027208655268809138j),
]

# mpmath: integrate sinc(x)^2 over [-1000, 1000] at 50 digits.
SINC_SQ_1000 = 0.9998986788214906518


class TestIntegrateAdaptive:
    def test_constant(self):
        res = integrate_adaptive(lambda x: np.full_like(x, 3.0), 0.0, 2.0, 1e-12)
        assert res.value == pytest.approx(6.0, rel=1e-14)
        assert res.err_estimate < 1e-12 * 10

    def test_returns_quadresult(self):
        res = integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-10)
        assert isinstance(res, QuadResult)
        assert res.evaluations >= 15

    @pytest.mark.parametrize("deg", range(14))
    def test_polynomial_exactness(self, deg):
        # A single 15-point Kronrod panel integrates x^deg exactly for deg <= 13.
        res = integrate_adaptive(lambda x: x**deg, -1.0, 2.0, 1e-6)
        exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert res.value == pytest.approx(exact, rel=5e-15, abs=1e-14)

    def test_oscillatory_frozen_value(self):
        res = integrate_adaptive(
            lambda x: np.sinc(x) ** 2, -1000.0, 1000.0, 1e-10
        )
        assert res.value == pytest.approx(SINC_SQ_1000, abs=2e-12)

    def test_error_estimate_honest(self):
        # Refining by 100x should move the value by less than the coarse estimate.
        f = lambda x: np.exp(-x) * np.sin(7.0 * x)
        coarse = integrate_adaptive(f, 0.0, 10.0, 1e-6)
        fine = integrate_adaptive(f, 0.0, 10.0, 1e-12)
        assert abs(coarse.value - fine.value) <= max(coarse.err_estimate, 1e-14)

    def test_tolerance_refinement(self):
        f = lambda x: 1.0 / (1.0 + x**2)
        exact = math.atan(50.0) - math.atan(-50.0)
        for tol in (1e-4, 1e-8, 1e-12):
            res = integrate_adaptive(f, -50.0, 50.0, tol)
            assert abs(res.value - exact) < 50.0 * tol

    def test_deterministic(self):
        f = lambda x: np.cos(x**2)
        a = integrate_adaptive(f, 0.0, 20.0, 1e-10)
        b = integrate_adaptive(f, 0.0, 20.0, 1e-10)
        assert a.value == b.value and a.evaluations == b.evaluations

    def test_budget_error_payload(self):
        with pytest.raises(BudgetExceededError) as info:
            integrate_adaptive(lambda x: np.sin(1000.0 * x), 0.0, 1000.0, 1e-13, max_evals=600)
        err = info.value
        assert err.evaluations <= 600 + 15
        assert math.isfinite(err.value)
        assert err.err_estimate > 0.0

    def test_reversed_endpoints_flip_sign(self):
        fwd = integrate_adaptive(lambda x: x**2, 0.0, 2.0, 1e-10)
        rev = integrate_adaptive(lambda x: x**2, 2.0, 0.0, 1e-10)
        assert rev.value == pytest.approx(-fwd.value, rel=1e-14)

    def test_nonfinite_integrand_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            integrate_adaptive(lambda x: np.log(x), -1.0, 1.0, 1e-8)

    @given(
        st.floats(-4.0, 4.0),
        st.floats(0.1, 5.0),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_shifted_polynomials(self, a, width, deg):
        b = a + width
        res = integrate_adaptive(lambda x: (x - a) ** deg, a, b, 1e-9)
        exact = width ** (deg + 1) / (deg + 1)
        assert res.value == pytest.approx(exact, rel=1e-10, abs=1e-12)


class TestExpintEn:
    @pytest.mark.parametrize("n,z,expected", EXPINT_TABLE)
    def test_frozen_values(self, n, z, expected):
        got = expint_en(n, z)
        assert abs(got - expected) < 5e-15 * max(1.0, abs(expected))

    def test_at_zero(self):
        assert expint_en(3, 0.0) == pytest.approx(0.5, rel=1e-15)
        assert expint_en(5, 0.0) == pytest.approx(0.25, rel=1e-15)

    def test_recurrence_crosses_regimes(self):
        # n E_{n+1}(z) = exp(-z) - z E_n(z), checked where the two internal
        # evaluation branches meet (|z| near 10).
        for z in (9.5 + 0.0j, 0.0 + 9.5j, 7.0 + 7.0j, 0.0 + 10.5j, 10.5 + 0.0j):
            for n in (2, 4, 9):
                lhs = n * expint_en(n + 1, z)
                rhs = np.exp(-z) - z * expint_en(n, z)
                assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))

    @given(st.floats(0.05, 60.0), st.floats(-60.0, 60.0), st.integers(2, 12))
    @settings(max_examples=120, deadline=None)
    def test_property_recurrence(self, re, im, n):
        z = complex(re, im)
        lhs = n * expint_en(n + 1, z)
        rhs = np.exp(-z) - z * expint_en(n, z)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(np.exp(-z)), abs(z * expint_en(n, z)), 1e-30)

    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_array_matches_mpmath_across_branch_switch(self, n):
        # Rays through the |z| = 10 switch between the exp1 recurrence and
        # the continued fraction, on the axes and the diagonal.
        mpmath = pytest.importorskip("mpmath")
        radii = np.array([0.5, 3.0, 9.5, 9.99, 10.0, 10.01, 10.5, 12.0, 30.0, 200.0])
        z = np.concatenate([
            radii + 0j, 1j * radii, -1j * radii, radii * np.exp(0.25j * np.pi),
        ]).reshape(4, -1)
        got = expint_en(n, z)
        assert got.shape == z.shape
        with mpmath.workdps(30):
            ref = np.array([
                complex(mpmath.expint(n, mpmath.mpc(v.real, v.imag))) for v in z.ravel()
            ]).reshape(z.shape)
        # The upward recurrence loses ~1e-12 at n = 11 just below |z| = 10.
        assert np.all(np.abs(got - ref) <= 5e-12 * np.abs(ref))
        assert all(got.flat[i] == expint_en(n, v) for i, v in enumerate(z.flat))

    def test_orders_broadcast_against_z(self):
        orders = np.array([[1], [2], [7], [13]])
        z = np.array([0.3j, 4.0 + 1.0j, 9.99j, 10.01j, 350.0j])
        got = expint_en(orders, z)
        assert got.shape == (4, 5)
        for i, n in enumerate(orders.ravel()):
            assert np.array_equal(got[i], expint_en(int(n), z))

    def test_array_with_zero_entries(self):
        got = expint_en(3, np.array([0.0, 2.0j]))
        assert got[0] == 0.5 and got[1] == expint_en(3, 2.0j)
        with pytest.raises(ValueError):
            expint_en(1, np.array([1.0, 0.0]))


class TestTailChannel:
    def test_single_power_against_quadrature(self):
        # integral over [T, 2T] of x^-(j+2) e^{-2 pi i tau x} equals the
        # difference of two channel evaluations; the left side is computed
        # by the adaptive rule on real and imaginary parts.
        T, tau, j = 16.0, 0.7, 1
        coeffs = [0.0] * (j + 2)
        coeffs[j] = 1.0
        upper = tail_channel(coeffs, 2.0 * T, tau)
        lower = tail_channel(coeffs, T, tau)
        f_re = lambda x: x ** -(j + 2) * np.cos(2.0 * np.pi * tau * x)
        f_im = lambda x: -(x ** -(j + 2)) * np.sin(2.0 * np.pi * tau * x)
        re = integrate_adaptive(f_re, T, 2.0 * T, 1e-13).value
        im = integrate_adaptive(f_im, T, 2.0 * T, 1e-13).value
        assert abs((lower - upper) - complex(re, im)) < 1e-13

    def test_polynomial_combination(self):
        T, tau = 20.0, 0.31
        coeffs = [1.0, -2.0, 3.0, 0.5]
        upper = tail_channel(coeffs, 3.0 * T, tau)
        lower = tail_channel(coeffs, T, tau)

        def env(x):
            return sum(c * x ** -(j + 2) for j, c in enumerate(coeffs))

        re = integrate_adaptive(lambda x: env(x) * np.cos(2 * np.pi * tau * x), T, 3 * T, 1e-13).value
        im = integrate_adaptive(lambda x: -env(x) * np.sin(2 * np.pi * tau * x), T, 3 * T, 1e-13).value
        assert abs((lower - upper) - complex(re, im)) < 1e-13

    def test_zero_frequency_reduces_to_moments(self):
        # At tau = 0 each term is just integral of x^-(j+2) from T to infinity.
        T = 32.0
        coeffs = [2.0, 0.0, -1.0]
        expected = 2.0 / T - 1.0 / (3.0 * T**3)
        assert tail_channel(coeffs, T, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_cosine_tail_real_for_real_kernels(self):
        # (1 - cos 2 pi x) modulation at tau = 0: J(0) - J(-1)/2 - J(1)/2 is real.
        val = cosine_tail([1.0, 0.5, 0.25], 16.0, 0.0)
        assert abs(val.imag) < 1e-15

    def test_cosine_tail_against_quadrature(self):
        T, tau = 16.0, 0.42
        coeffs = [1.0, -1.0]

        def env(x):
            return (1.0 - np.cos(2.0 * np.pi * x)) * (x**-2 - x**-3)

        # Difference of two truncations isolates [T, 4T].
        upper = cosine_tail(coeffs, 4.0 * T, tau)
        lower = cosine_tail(coeffs, T, tau)
        re = integrate_adaptive(lambda x: env(x) * np.cos(2 * np.pi * tau * x), T, 4 * T, 1e-13).value
        im = integrate_adaptive(lambda x: -env(x) * np.sin(2 * np.pi * tau * x), T, 4 * T, 1e-13).value
        assert abs((lower - upper) - complex(re, im)) < 5e-13
