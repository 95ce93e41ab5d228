"""Extremal majorants of sgn and the Heaviside step: kernels, closed forms,
quadrature evaluation, and deficit functions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal import majorants
from extremal.majorants import (
    G_closed,
    M_closed,
    TAIL_CUTOFF,
    ToleranceNotMetError,
    beurling_b,
    closed_columns,
    eval_G,
    eval_deficit,
    eval_kernel,
    eval_majorant,
    g_minus_heaviside_closed,
    heaviside_upper,
    kernel_H,
    kernel_g,
    kernel_h,
    line_integral,
    phi_closed,
    psi_beurling_closed,
    psi_closed,
    sgn,
)

# mpmath closed form at 40 digits.
G_TABLE = {
    0.0: 1.0749046303372997195,
    0.5: 1.0243961648376699565,
    -0.5: 0.88684750495140809223,
    1.0: 1.0092518523524289845,
    -1.0: 0.37650703645284059392,
    2.3: 1.0032488028710003445,
    -3.7: 0.002539890039303037645,
    10.0: 1.0002226642157919931,
    -64.5: 6.2169751160967573897e-6,
    80.0: 1.0000038927189177428,
}

# mpmath partial-fraction series at 50 digits.
B_TABLE = {
    0.5: 1.2158542037080532573,
    -0.5: -0.40528473456935108578,
    1.25: 1.0245876973008264081,
    -2.75: -0.99250882902617590697,
    3.6: 1.0064262768008151255,
    0.1: 1.1657710086426265693,
}


def G_reference(x, mpmath):
    """G(x) from mpmath's Si and Ci through the closed form of G_closed."""
    x = mpmath.mpf(float(x))
    x1 = x + 1
    tp = 2 * mpmath.pi

    def cin(z):
        z = abs(z)
        return z if z == 0 else mpmath.euler + mpmath.log(z) - mpmath.ci(z)

    sinc2 = 1 if x1 == 0 else (mpmath.sin(mpmath.pi * x1) / (mpmath.pi * x1)) ** 2
    return (mpmath.mpf(1) / 2 - (cin(tp * x) - cin(tp * x1)) / (2 * mpmath.pi**2)
            - x1 * sinc2 + mpmath.si(tp * x1) / mpmath.pi)


nonpole_floats = st.floats(-40.0, 40.0).filter(
    lambda u: min(abs(u), abs(u + 1.0)) > 1e-3
)


class TestSignFunctions:
    def test_sgn(self):
        assert sgn(3.2) == 1.0
        assert sgn(-0.001) == -1.0
        assert sgn(0.0) == 0.0

    def test_heaviside_upper(self):
        assert heaviside_upper(2.0) == 1.0
        assert heaviside_upper(0.0) == 1.0  # upper semicontinuous choice
        assert heaviside_upper(-2.0) == 0.0


class TestKernels:
    def test_g_examples(self):
        assert eval_kernel("g", 0.0) == 0.0
        assert eval_kernel("g", -1.0) == 1.0
        assert eval_kernel("g", -0.5) == pytest.approx(8.0 / math.pi**2, rel=1e-15)
        assert eval_kernel("g", 1.0) == 0.0
        assert eval_kernel("g", -2.0) == 0.0

    def test_H_examples(self):
        assert eval_kernel("H", -1.0) == 1.0
        assert eval_kernel("H", 0.0) == 0.0
        assert eval_kernel("H", 3.0) == 0.0
        assert eval_kernel("H", -0.5) == pytest.approx(4.0 / math.pi**2, rel=1e-15)

    def test_h_examples(self):
        assert eval_kernel("h", -1.0) == 1.0  # removable singularity, positive root
        assert eval_kernel("h", 0.0) == 1.0
        assert eval_kernel("h", 0.5) == pytest.approx((2.0 / math.pi) / 1.5, rel=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            eval_kernel("q", 0.0)

    def test_g_near_origin_linear(self):
        # g(u) = -u (1 - 2u + O(u^2)) near 0.
        for u in (1e-6, -1e-6, 1e-9):
            assert eval_kernel("g", u) == pytest.approx(-u, rel=3.0 * abs(u) + 1e-12)

    def test_sign_pattern(self):
        u = np.linspace(-50.0, 50.0, 100_001)
        g = kernel_g(u)
        assert np.all(g[u < 0.0] >= 0.0)
        assert np.all(g[u > 0.0] <= 0.0)

    def test_H_nonnegative_and_normalized_peak(self):
        u = np.linspace(-30.0, 30.0, 50_001)
        H = kernel_H(u)
        assert np.all(H >= 0.0)
        assert np.all(H <= 1.0)
        assert kernel_H(-1.0) == 1.0  # the peak value, attained at u = -1

    @given(nonpole_floats)
    @settings(max_examples=300)
    def test_property_H_is_minus_u_g(self, u):
        assert kernel_H(u) == pytest.approx(-u * kernel_g(u), rel=1e-12, abs=1e-15)

    @given(nonpole_floats)
    @settings(max_examples=300)
    def test_property_g_is_minus_u_h_squared(self, u):
        assert kernel_g(u) == pytest.approx(-u * kernel_h(u) ** 2, rel=1e-12, abs=1e-15)

    @given(st.floats(-30.0, 30.0))
    def test_property_H_symmetric_about_minus_one(self, u):
        # H(u) = sinc^2(u+1) is even about u = -1; reflecting crosses the
        # internal branch point of the algebraic form at u = -1/2.
        assert kernel_H(-2.0 - u) == pytest.approx(kernel_H(u), rel=1e-13, abs=1e-16)

    def test_H_symmetry_grid(self):
        u = np.linspace(-0.4999, 3.0, 2000)
        np.testing.assert_allclose(kernel_H(-2.0 - u), kernel_H(u), rtol=1e-13, atol=1e-16)


class TestGClosedForm:
    @pytest.mark.parametrize("x,expected", sorted(G_TABLE.items()))
    def test_frozen_values(self, x, expected):
        # Absolute floor: far in the left tail the closed form cancels to
        # ~1e-16 absolute accuracy, which dominates the relative error.
        assert G_closed(x) == pytest.approx(expected, rel=2e-14, abs=2e-16)

    def test_matches_mpmath_sweep(self):
        # The bound G_closed documents, on a seeded sweep plus the points
        # where the closed form cancels (x = -1, 0 and next to them).
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        x = np.concatenate([
            rng.uniform(-3.0, 3.0, 400), rng.uniform(-100.0, 100.0, 400),
            rng.uniform(-1e4, 1e4, 200), [-1.0, -0.5, 0.0, 1e-9, -1.0 + 1e-9],
        ])
        with mpmath.workdps(40):
            ref = np.array([float(G_reference(v, mpmath)) for v in x])
        assert np.max(np.abs(G_closed(x) - ref)) <= 1e-15

    @pytest.mark.parametrize("X", [64.0, 128.0, 512.0, 4096.0])
    def test_psi_edge_error_within_budget(self, X):
        # psi_closed at the window edge and beyond, where psi = 2 G - 2 is
        # a few ulp of 1 away from the cancelling terms.
        mpmath = pytest.importorskip("mpmath")
        for x in (X, -X):
            with mpmath.workdps(40):
                ref = 2 * G_reference(x, mpmath) - 1 - mpmath.sign(x)
            assert abs(psi_closed(x) - ref) <= 1e-15

    def test_far_tails(self):
        assert abs(G_closed(-1e6)) < 1e-12
        assert abs(G_closed(1e6) - 1.0) < 1e-12

    @pytest.mark.parametrize("x", [1e60, -1e60, 1e200, -1e300])
    def test_huge_arguments_are_quiet(self, x):
        # No overflow warning from the discarded branches; G is the step.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert G_closed(x) == (1.0 if x > 0 else 0.0)
            assert beurling_b(x) == math.copysign(1.0, x)

    def test_largest_arguments_are_quiet(self):
        # 2 pi x overflows past 2.9e307; G is the step there.
        xs = np.array([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert G_closed(1e308) == 1.0 and G_closed(-1e308) == 0.0
            assert list(G_closed(xs)) == [1.0, 0.0, 1.0, 0.0]
            assert list(psi_closed(xs)) == [0.0, 0.0, 0.0, 0.0]

    def test_vectorized(self):
        xs = np.array(sorted(G_TABLE))
        np.testing.assert_allclose(
            G_closed(xs), [G_TABLE[x] for x in xs], rtol=2e-14, atol=2e-16
        )

    def test_derivative_is_kernel(self):
        # d/dx G = g(x), central differences.
        for x in (0.3, -0.7, 2.2, -4.4):
            h = 1e-5
            num = (G_closed(x + h) - G_closed(x - h)) / (2.0 * h)
            assert num == pytest.approx(kernel_g(x), abs=5e-10)


class TestEvalG:
    @pytest.mark.parametrize("x", [0.0, 0.5, -1.0, 2.3, -3.7, 10.0, -64.5, 80.0])
    def test_quadrature_matches_closed_form(self, x):
        got = eval_G(x, tol=1e-10)
        assert got == pytest.approx(G_TABLE[x], rel=1e-9, abs=1e-12)

    def test_default_tolerance(self):
        assert eval_G(1.3) == pytest.approx(G_closed(1.3), abs=1e-8)

    def test_cost_follows_tol(self, monkeypatch):
        evaluations = []
        original = majorants.integrate_adaptive

        def counted(*args, **kwargs):
            res = original(*args, **kwargs)
            evaluations.append(res.evaluations)
            return res

        monkeypatch.setattr(majorants, "integrate_adaptive", counted)
        eval_G(0.0, tol=1e-6)
        eval_G(0.0, tol=1e-10)
        cheap, tight = evaluations
        assert cheap < tight

    @pytest.mark.parametrize("tol", [1e-13, 1e-3, 0.0, -1.0, math.nan])
    def test_tolerance_validation(self, tol):
        with pytest.raises(ValueError):
            eval_G(0.0, tol=tol)

    def test_budget_failure_reported(self):
        with pytest.raises(ToleranceNotMetError):
            eval_G(0.0, tol=1e-12, max_evals=200)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eval_G(math.nan)


T = TAIL_CUTOFF
# Interval ends inside, outside and on the window [-64, 64].
ENDS = [-1e3, -80.0, -T, -10.0, 0.0, 3.3, T, 90.0, 1e4]


class TestLineIntegral:
    @pytest.mark.parametrize("x", ENDS)
    def test_halves_of_g_sum_to_one(self, x):
        left = line_integral("g", -math.inf, x, 1e-10)
        right = line_integral("g", x, math.inf, 1e-10)
        assert left.value + right.value == pytest.approx(1.0, abs=2e-10)
        assert left.value == pytest.approx(G_closed(x), abs=1e-10)

    @pytest.mark.parametrize("a,b", [
        (a, b) for a in [-math.inf] + ENDS for b in ENDS + [math.inf] if a < b
    ])
    def test_matches_closed_antiderivative(self, a, b):
        exact = (1.0 if b == math.inf else G_closed(b)) - (
            0.0 if a == -math.inf else G_closed(a)
        )
        res = line_integral("g", a, b, 1e-10)
        assert res.err_estimate <= 1e-10
        assert res.value == pytest.approx(exact, abs=1e-10)

    def test_window_outside_costs_nothing(self):
        assert line_integral("g", 70.0, 200.0, 1e-10).evaluations == 0
        assert line_integral("psi", -math.inf, -T, 1e-10).evaluations == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            line_integral("h", 0.0, 1.0, 1e-8)


class TestMajorantSurface:
    def test_M_is_affine_in_G(self):
        for x in (-2.0, 0.0, 1.5):
            assert M_closed(x) == pytest.approx(2.0 * G_closed(x) - 1.0, rel=1e-15)

    def test_eval_majorant_dispatch(self):
        assert eval_majorant("G", 0.5) == pytest.approx(G_TABLE[0.5], rel=1e-9)
        assert eval_majorant("M", 0.0) == pytest.approx(2.0 * G_TABLE[0.0] - 1.0, rel=1e-9)
        # M needs G to tol/2, below the least tol eval_G accepts.
        assert eval_majorant("M", 0.0, 1e-12) == pytest.approx(
            2.0 * G_TABLE[0.0] - 1.0, abs=1e-12
        )
        assert eval_majorant("BeurlingB", 0.5) == pytest.approx(B_TABLE[0.5], rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            eval_majorant("Z", 0.0)

    def test_minorant_reflection(self):
        for x in (-1.3, 0.0, 0.4, 2.0):
            lo = eval_majorant("MinorantOfSgn", x)
            assert lo == pytest.approx(-eval_majorant("M", -x), rel=1e-12)
            assert lo <= sgn(x) + 1e-9

    def test_majorant_property_dense_grid(self):
        x = np.linspace(-50.0, 50.0, 100_001)
        m = M_closed(x)
        s = np.sign(x)
        assert np.all(m - s >= -1e-9)

    def test_one_sided_monotonicity(self):
        # Non-decreasing left of the origin, non-increasing right of it.
        xn = np.linspace(-50.0, -1e-9, 50_001)
        xp = np.linspace(1e-9, 50.0, 50_001)
        assert np.all(np.diff(M_closed(xn)) >= -1e-9)
        assert np.all(np.diff(M_closed(xp)) <= 1e-9)

    def test_G_majorizes_heaviside(self):
        x = np.linspace(-50.0, 50.0, 100_001)
        assert np.all(G_closed(x) - heaviside_upper(x) >= -1e-9)
        # and at the jump point, against the upper value 1
        assert G_closed(0.0) >= 1.0


class TestBeurling:
    @pytest.mark.parametrize("x,expected", sorted(B_TABLE.items()))
    def test_frozen_values(self, x, expected):
        assert beurling_b(x) == pytest.approx(expected, rel=5e-15)

    def test_integer_interpolation(self):
        n = np.arange(-20, 21).astype(float)
        vals = beurling_b(n)
        expected = np.where(n >= 0.0, 1.0, -1.0)
        np.testing.assert_array_equal(vals, expected)

    def test_majorant_property(self):
        x = np.linspace(-40.0, 40.0, 80_001)
        assert np.all(beurling_b(x) - np.sign(x) >= -1e-9)

    @given(st.floats(-25.0, 25.0))
    @settings(max_examples=300)
    def test_property_reflection_identity(self, x):
        # B(x) + B(-x) = 2 sinc^2(x): the odd part of B is exactly sgn-like.
        lhs = beurling_b(x) + beurling_b(-x)
        rhs = 2.0 * np.sinc(x) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_series_oracle(self):
        # Brute partial fractions, 200k terms plus integral tail correction.
        def brute(x):
            n = np.arange(0, 200_000)
            s1 = np.sum((x - n) ** -2.0)
            m = np.arange(1, 200_000)
            s2 = np.sum((x + m) ** -2.0)
            # tail: sum_{n>=N} (x-n)^-2 - (x+n)^-2 ~ int corrections
            N = 200_000
            s1 += 1.0 / (N - x) + 0.5 / (N - x) ** 2
            s2 += 1.0 / (N + x) + 0.5 / (N + x) ** 2
            return (math.sin(math.pi * x) / math.pi) ** 2 * (s1 - s2 + 2.0 / x)

        for x in (0.5, 1.25, -2.75, 3.6):
            assert beurling_b(x) == pytest.approx(brute(x), abs=1e-10)

    def test_near_zero_series_branch(self):
        # B(x) = 1 + 2x + O(x^2); the reflection formula is numerically
        # unusable here (overflowing trigamma against underflowing sin^2).
        for x in (1e-13, -1e-13, 4.2e-259, -4.2e-259):
            assert beurling_b(x) == 1.0 + 2.0 * x
        assert math.isfinite(beurling_b(-1e-200))

    def test_touches_sgn_at_origin_unlike_monotone_majorant(self):
        # B interpolates the value 1 at 0 while M sits strictly above it;
        # pointwise domination fails elsewhere (e.g. B(0.2) > M(0.2)), the
        # saving is in the integral, not pointwise.
        assert beurling_b(0.0) == 1.0
        assert M_closed(0.0) > beurling_b(0.0)


class TestDeficits:
    def test_psi_phi_reflection(self):
        for x in (0.0, 0.7, -1.9, 3.3):
            assert psi_closed(x) == pytest.approx(phi_closed(-x), rel=1e-15)

    def test_psi_is_M_minus_sgn(self):
        for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert psi_closed(x) == pytest.approx(M_closed(x) - sgn(x), rel=1e-14)

    def test_eval_deficit_dispatch(self):
        assert eval_deficit("psi", 0.5) == pytest.approx(psi_closed(0.5), abs=1e-9)
        assert eval_deficit("phi", 0.5) == pytest.approx(phi_closed(0.5), abs=1e-9)
        with pytest.raises(ValueError):
            eval_deficit("chi", 0.5)

    def test_nonnegative(self):
        x = np.linspace(-50.0, 50.0, 40_001)
        assert np.all(psi_closed(x) >= -1e-12)
        assert np.all(psi_beurling_closed(x) >= -1e-12)

    def test_closed_columns_bitwise(self):
        # eval's columns share one Si/Cin call for G(x) and G(-x); each must
        # be bit for bit the function's own value, at the cancellation and
        # series-cut points as well as far out and at signed zeros.
        cut = 4.0 / (2.0 * np.pi)
        edges = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0, 5e-324, -1e-300,
                 1e-12, -1e-9, cut, -cut, cut - 1.0, 1.0 - cut, np.nextafter(-1.0, 0.0),
                 1e4, -1e4, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
        rng = np.random.default_rng(9)
        x = np.concatenate([edges, rng.uniform(-60.0, 60.0, 5000),
                            rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.uniform(-12, 4, 1000)])
        columns = closed_columns(x)
        for got, f in zip(columns, (G_closed, M_closed, beurling_b, psi_closed, phi_closed)):
            assert got.tobytes() == f(x).tobytes(), f.__name__
        # The reflected pair of G_closed, also for a scalar.
        for v in (0.3, -2.5, 0.0):
            assert G_closed(v, reflect=True) == (G_closed(v), G_closed(-v))

    def test_g_minus_heaviside(self):
        for x in (-1.0, 0.0, 1.0, 2.5):
            assert g_minus_heaviside_closed(x) == pytest.approx(
                G_closed(x) - heaviside_upper(x), rel=1e-14, abs=1e-16
            )

    def test_beurling_deficit_examples(self):
        # sgn(0) = 0 by convention, so the deficit at the origin is B(0) = 1.
        assert psi_beurling_closed(0.0) == 1.0
        assert psi_beurling_closed(0.5) == pytest.approx(B_TABLE[0.5] - 1.0, rel=1e-13)
        assert psi_beurling_closed(-0.5) == pytest.approx(B_TABLE[-0.5] + 1.0, rel=1e-13)
