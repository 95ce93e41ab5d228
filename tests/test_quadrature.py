"""Adaptive Gauss-Kronrod integration and exponential-integral tail channels."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal import majorants, quadrature
from extremal.majorants import TAIL_CUTOFF, tail_transform
from extremal.quadrature import (
    QuadResult,
    ToleranceNotMetError,
    integrate_adaptive,
)
from extremal.specfun import expint_en

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

    def test_budget_error_payload(self, monkeypatch):
        # The first mesh of [0, 1000] costs 3750 evaluations: on a budget
        # of 600 it is refused before any evaluation, with no estimate.
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 600)
        with pytest.raises(ToleranceNotMetError) as info:
            integrate_adaptive(lambda x: np.sin(1000.0 * x), 0.0, 1000.0, 1e-13)
        err = info.value
        assert math.isnan(err.value)
        assert err.err_estimate == math.inf
        assert err.evaluations == 0

    def test_budget_error_payload_after_first_mesh(self, monkeypatch):
        # A budget that pays for the first mesh but not for its refinement
        # stops with the estimate reached, within the budget.
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 6000)
        with pytest.raises(ToleranceNotMetError) as info:
            integrate_adaptive(lambda x: np.sin(1000.0 * x), 0.0, 1000.0, 1e-13)
        err = info.value
        assert 3750 <= err.evaluations <= 6000
        assert math.isfinite(err.value)
        assert err.err_estimate > 1e-13

    @pytest.mark.parametrize("a,b", [(0.0, 4e7), (-1e300, 1e300), (-1.7e308, 1.7e308)])
    def test_first_mesh_over_budget_refused_at_once(self, a, b):
        # Spans whose first mesh the default budget cannot pay for, the last
        # one past the largest double: no mesh is built.
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotMetError) as info:
                integrate_adaptive(lambda x: np.exp(-x * x), a, b, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = info.value
        assert math.isnan(err.value)
        assert err.err_estimate == math.inf
        assert err.evaluations == 0
        assert peak < 1 << 20

    def test_reversed_endpoints_flip_sign(self):
        fwd = integrate_adaptive(lambda x: x**2, 0.0, 2.0, 1e-10)
        rev = integrate_adaptive(lambda x: x**2, 2.0, 0.0, 1e-10)
        assert rev.value == pytest.approx(-fwd.value, rel=1e-14)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_tol_validation(self, tol):
        with pytest.raises(ValueError, match="tol"):
            integrate_adaptive(lambda x: x, 0.0, 1.0, tol)

    def test_nonfinite_integrand_rejected(self):
        # One panel of width 2, whose centre node is 0: log warns of a
        # divide as well as of invalid values.
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
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
        # n E_{n+1}(z) = exp(-z) - z E_n(z), checked on both sides of the
        # series cut |z| = 2 and around |z| = 10.
        for z in (1.99 + 0.0j, 0.0 + 2.01j, 1.4 + 1.4j, 2.0 + 0.0j,
                  9.5 + 0.0j, 0.0 + 9.5j, 7.0 + 7.0j, 0.0 + 10.5j, 10.5 + 0.0j):
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
        # Rays through the series cut |z| = 2 and through |z| = 10, on the
        # axes and the diagonal.
        mpmath = pytest.importorskip("mpmath")
        radii = np.array([0.5, 1.99, 2.0, 2.01, 3.0, 9.5, 9.99, 10.0, 10.01,
                          10.5, 12.0, 30.0, 200.0])
        z = np.concatenate([
            radii + 0j, 1j * radii, -1j * radii, radii * np.exp(0.25j * np.pi),
        ]).reshape(4, -1)
        got = expint_en(n, z)
        assert got.shape == z.shape
        with mpmath.workdps(30):
            ref = np.array([
                complex(mpmath.expint(n, mpmath.mpc(v.real, v.imag))) for v in z.ravel()
            ]).reshape(z.shape)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
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


def channel(coeffs, T, tau):
    """integral_T^inf (sum_j c_j x^{-(j+2)}) exp(-2 pi i tau x) dx, term by
    term c_j T^{-(j+1)} E_{j+2}(2 pi i tau T)."""
    return sum(
        c * T ** -(j + 1) * expint_en(j + 2, 2j * math.pi * tau * T)
        for j, c in enumerate(coeffs)
    )


class TestTailChannel:
    """The E_n channels that every closed-form tail of
    ``majorants.tail_transform`` sums, checked against the adaptive rule."""

    def test_single_power_against_quadrature(self):
        # integral over [T, 2T] of x^-(j+2) e^{-2 pi i tau x} equals the
        # difference of two channel evaluations; the left side is computed
        # by the adaptive rule on real and imaginary parts.
        T, tau, j = 16.0, 0.7, 1
        coeffs = [0.0] * (j + 2)
        coeffs[j] = 1.0
        upper = channel(coeffs, 2.0 * T, tau)
        lower = channel(coeffs, T, tau)
        f_re = lambda x: x ** -(j + 2) * np.cos(2.0 * np.pi * tau * x)
        f_im = lambda x: -(x ** -(j + 2)) * np.sin(2.0 * np.pi * tau * x)
        re = integrate_adaptive(f_re, T, 2.0 * T, 1e-13).value
        im = integrate_adaptive(f_im, T, 2.0 * T, 1e-13).value
        assert abs((lower - upper) - complex(re, im)) < 1e-13

    def test_polynomial_combination(self):
        T, tau = 20.0, 0.31
        coeffs = [1.0, -2.0, 3.0, 0.5]
        upper = channel(coeffs, 3.0 * T, tau)
        lower = channel(coeffs, T, tau)

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
        assert channel(coeffs, T, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_modulated_tail_real_for_real_kernels(self):
        # (1 - cos 2 pi x) modulation at t = 0: P = -A real gives a real value.
        for kind in ("g", "H", "psi_beurling"):
            for side in ("right", "left"):
                coeffs = getattr(majorants._KINDS[kind], side)
                assert np.array_equal(coeffs[:, 1], -0.5 * coeffs[:, 0])
                val, _ = tail_transform(kind, TAIL_CUTOFF, 0.0, side)
                assert abs(val.imag) < 1e-15, (kind, side)

    def test_modulated_tail_against_quadrature(self):
        # The tails of g and H against (1 - cos 2 pi x) times the envelope
        # series of the table, not the kernels' closed forms.
        T, tau = TAIL_CUTOFF, 0.42
        for kind in ("g", "H"):
            entry = majorants._KINDS[kind]
            P = entry.right[:, 0].real

            def env(x):
                series = sum(c * x ** -(j + 2) for j, c in enumerate(P))
                return (1.0 - np.cos(2.0 * np.pi * x)) * series / entry.divisor

            # Difference of two truncations isolates [T, 4T].
            upper, _ = tail_transform(kind, 4.0 * T, tau, "right")
            lower, _ = tail_transform(kind, T, tau, "right")
            re = integrate_adaptive(lambda x: env(x) * np.cos(2 * np.pi * tau * x), T, 4 * T, 1e-13).value
            im = integrate_adaptive(lambda x: -env(x) * np.sin(2 * np.pi * tau * x), T, 4 * T, 1e-13).value
            assert abs((lower - upper) - complex(re, im)) < 5e-13, kind

    @pytest.mark.parametrize("t", [0.0, 0.42, -1.0, 1.3])
    def test_complex_phase_series_against_quadrature(self, t):
        # Every kind's tail is [P + Re(e^{2 pi i x} A)] / divisor: channels
        # at t, t - 1 and t + 1.  The kernels' A is -P (real); psi's A is
        # complex and one term longer than its P.  tail(T) - tail(4T)
        # isolates [T, 4T] (on the left, [-4T, -T]), integrated here from
        # the kind's closed form.
        T = TAIL_CUTOFF
        for kind, entry in majorants._KINDS.items():
            for side, sign in (("right", 1.0), ("left", -1.0)):
                near, _ = tail_transform(kind, T, t, side)
                far, _ = tail_transform(kind, 4.0 * T, t, side)
                a, b = sorted((sign * T, sign * 4.0 * T))
                re = integrate_adaptive(
                    lambda x: entry.closed(x) * np.cos(2 * np.pi * t * x), a, b, 1e-13
                ).value
                im = integrate_adaptive(
                    lambda x: -entry.closed(x) * np.sin(2 * np.pi * t * x), a, b, 1e-13
                ).value
                assert abs((near - far) - complex(re, im)) < 2e-14, (kind, side)
                if t == 0.0:
                    # The plain tail integral of a real function is real.
                    assert abs(near.imag) < 1e-15, (kind, side)
