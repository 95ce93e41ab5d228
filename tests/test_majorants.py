"""Extremal majorants of sgn and the Heaviside step: kernels, closed forms,
the quadrature cross-check of G, and deficit functions."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal import majorants, quadrature
from extremal.fourier import numeric_ft
from extremal.majorants import (
    G_closed,
    M_closed,
    TAIL_CUTOFF,
    ToleranceNotMetError,
    beurling_b,
    closed_columns,
    kernel_H,
    kernel_g,
    kernel_h,
    line_integral,
    psi_beurling_closed,
    psi_closed,
    tail_transform,
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


def G_quadrature(x, tol):
    """G(x) by the second route, the quadrature of g over (-inf, x]."""
    return line_integral("g", -math.inf, x, tol).value


def phi_closed(x):
    """phi(x) = psi(-x), the reflected deficit."""
    return psi_closed(-np.asarray(x, dtype=float))


nonpole_floats = st.floats(-40.0, 40.0).filter(
    lambda u: min(abs(u), abs(u + 1.0)) > 1e-3
)


class TestSignFunctions:
    # The conventions: sgn in the deficit psi = M - sgn, and the upper
    # Heaviside step x_+^0 under its majorant G.
    def test_sgn(self):
        assert psi_closed(3.2) == M_closed(3.2) - 1.0
        assert psi_closed(-0.001) == M_closed(-0.001) + 1.0
        assert psi_closed(0.0) == M_closed(0.0)  # sgn(0) = 0

    def test_heaviside_upper(self):
        # upper semicontinuous choice, x_+^0(0) = 1, which G majorizes as
        # well; there G - x_+^0 is psi / 2 - 1/2, as sgn(0) = 0 halves
        # the jump.
        assert G_closed(0.0) >= 1.0
        assert G_closed(0.0) - 1.0 == psi_closed(0.0) / 2.0 - 0.5


class TestKernels:
    def test_g_examples(self):
        assert kernel_g(0.0) == 0.0
        assert kernel_g(-1.0) == 1.0
        assert kernel_g(-0.5) == pytest.approx(8.0 / math.pi**2, rel=1e-15)
        assert kernel_g(1.0) == 0.0
        assert kernel_g(-2.0) == 0.0

    def test_H_examples(self):
        assert kernel_H(-1.0) == 1.0
        assert kernel_H(0.0) == 0.0
        assert kernel_H(3.0) == 0.0
        assert kernel_H(-0.5) == pytest.approx(4.0 / math.pi**2, rel=1e-15)

    def test_h_examples(self):
        assert kernel_h(-1.0) == 1.0  # removable singularity, positive root
        assert kernel_h(0.0) == 1.0
        assert kernel_h(0.5) == pytest.approx((2.0 / math.pi) / 1.5, rel=1e-15)

    def test_g_near_origin_linear(self):
        # g(u) = -u (1 - 2u + O(u^2)) near 0.
        for u in (1e-6, -1e-6, 1e-9):
            assert kernel_g(u) == pytest.approx(-u, rel=3.0 * abs(u) + 1e-12)

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
        got = G_quadrature(x, 1e-10)
        assert got == pytest.approx(G_TABLE[x], rel=1e-9, abs=1e-12)

    def test_default_tolerance(self):
        assert G_quadrature(1.3, 1e-8) == pytest.approx(G_closed(1.3), abs=1e-8)

    def test_cost_follows_tol(self, monkeypatch):
        evaluations = []
        original = majorants.integrate_adaptive

        def counted(*args, **kwargs):
            res = original(*args, **kwargs)
            evaluations.append(res.evaluations)
            return res

        monkeypatch.setattr(majorants, "integrate_adaptive", counted)
        G_quadrature(0.0, 1e-6)
        G_quadrature(0.0, 1e-10)
        cheap, tight = evaluations
        assert cheap < tight

    def test_budget_failure_reported(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 200)
        with pytest.raises(ToleranceNotMetError):
            G_quadrature(0.0, 1e-12)


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
        # One check for line_integral and tail_transform, naming the kinds.
        with pytest.raises(ValueError, match="unknown kind 'h'"):
            line_integral("h", 0.0, 1.0, 1e-8)
        with pytest.raises(ValueError, match="unknown kind 'h'"):
            tail_transform("h", T, 0.0, "right")

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, [0.5, math.inf]])
    def test_tail_transform_rejects_nonfinite_t(self, t):
        # As numeric_ft does: an infinite frequency has no tail value.
        with pytest.raises(ValueError, match="t must be finite"):
            tail_transform("g", T, t, "right")

    @pytest.mark.parametrize("X", [math.inf, math.nan, T - 1.0])
    def test_tail_transform_rejects_nonfinite_cutoff(self, X):
        # An infinite cutoff has no tail to sum: a ValueError, not a NaN
        # value with a zero error bound.
        with pytest.raises(ValueError, match="tail cutoff must be finite"):
            tail_transform("g", X, 0.0, "right")

    def test_refusal_memory_is_small(self, monkeypatch):
        # Each quadrature generation evaluates all of its pending panels in
        # one psi_closed call; the closed forms' blocks bound that call's
        # temporaries, so a full-precision request traces little beyond the
        # panels' own arrays before the budget refuses it.
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 600_000)
        line_integral("psi", -1.0, 1.0, 1e-8)  # anything loaded on first use
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotMetError, match="budget exhausted"):
                line_integral("psi", -math.inf, math.inf, 1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12_000_000

    def test_every_kind_resolves_in_one_table(self):
        # The integral over the line of each kind; h has no tail series.
        totals = {"g": 1.0, "H": 1.0, "psi": 2.0, "psi_beurling": 1.0}
        assert list(majorants._KINDS) == list(totals)
        for kind, total in totals.items():
            res = line_integral(kind, -math.inf, math.inf, 1e-10)
            assert res.value == pytest.approx(total, abs=1e-10), kind
            for side in ("right", "left"):
                value, err = tail_transform(kind, T, 0.0, side)
                assert isinstance(value, complex) and 0.0 < err < 1e-15
        transformed = []
        for kind in totals:
            try:
                numeric_ft(kind, 0.5)
            except ValueError:
                continue
            transformed.append(kind)
        assert transformed == ["g", "psi", "psi_beurling"]

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    @pytest.mark.parametrize("a,b", [
        (-math.inf, math.inf), (100.0, 200.0), (-math.inf, -T),
    ])
    def test_tol_checked_on_every_interval(self, a, b, tol):
        # Also where no quadrature runs and only the tails are summed.
        with pytest.raises(ValueError, match="tol"):
            line_integral("g", a, b, tol)

    @pytest.mark.parametrize("a,b", [
        (-math.inf, math.nan), (math.nan, 1.0), (2.0, 1.0), (1.0, 1.0),
    ])
    def test_empty_or_nan_interval_rejected(self, a, b):
        with pytest.raises(ValueError, match="a < b"):
            line_integral("g", a, b, 1e-8)


class TestMajorantSurface:
    def test_M_is_affine_in_G(self):
        for x in (-2.0, 0.0, 1.5):
            assert M_closed(x) == pytest.approx(2.0 * G_closed(x) - 1.0, rel=1e-15)

    def test_eval_majorant_dispatch(self):
        assert G_quadrature(0.5, 1e-8) == pytest.approx(G_TABLE[0.5], rel=1e-9)
        # M = 2G - 1 to tol takes G to tol / 2.
        assert 2.0 * G_quadrature(0.0, 5e-9) - 1.0 == pytest.approx(
            2.0 * G_TABLE[0.0] - 1.0, rel=1e-9
        )
        assert 2.0 * G_quadrature(0.0, 5e-13) - 1.0 == pytest.approx(
            2.0 * G_TABLE[0.0] - 1.0, abs=1e-12
        )
        assert beurling_b(0.5) == pytest.approx(B_TABLE[0.5], rel=1e-12)

    def test_minorant_reflection(self):
        # The minorant -M(-x) of sgn, M by quadrature to 1e-8.
        for x in (-1.3, 0.0, 0.4, 2.0):
            lo = 1.0 - 2.0 * G_quadrature(-x, 5e-9)
            assert lo == pytest.approx(-M_closed(-x), abs=1e-8)
            assert lo <= np.sign(x) + 1e-9

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
        assert np.all(G_closed(x) - np.where(x >= 0.0, 1.0, 0.0) >= -1e-9)
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
        # eval's phi column, from G(-x) of the reflected G_closed call.
        x = np.array([0.0, 0.7, -1.9, 3.3])
        phi = closed_columns(-x)[4]
        np.testing.assert_allclose(psi_closed(x), phi, rtol=1e-15)

    def test_psi_is_M_minus_sgn(self):
        for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert psi_closed(x) == pytest.approx(M_closed(x) - np.sign(x), rel=1e-14)

    def test_eval_deficit_dispatch(self):
        # psi = M - sgn and phi(x) = psi(-x), M by quadrature to 1e-8.
        psi = 2.0 * G_quadrature(0.5, 5e-9) - 1.0 - 1.0
        phi = 2.0 * G_quadrature(-0.5, 5e-9) - 1.0 + 1.0
        assert psi == pytest.approx(psi_closed(0.5), abs=1e-9)
        assert phi == pytest.approx(phi_closed(0.5), abs=1e-9)

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

    def test_step_deficit_is_half_psi(self):
        # G - x_+^0 = psi / 2 off the origin, bit for bit, so integrals of
        # the Heaviside deficit are integrals of psi halved.
        rng = np.random.default_rng(26)
        x = np.concatenate([
            np.linspace(-60.0, 60.0, 120_002),
            rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300, 4, 20_000),
        ])
        assert np.all(x != 0.0)
        step = G_closed(x) - (x >= 0.0)
        assert step.tobytes() == (psi_closed(x) / 2.0).tobytes()

    def test_beurling_deficit_examples(self):
        # sgn(0) = 0 by convention, so the deficit at the origin is B(0) = 1.
        assert psi_beurling_closed(0.0) == 1.0
        assert psi_beurling_closed(0.5) == pytest.approx(B_TABLE[0.5] - 1.0, rel=1e-13)
        assert psi_beurling_closed(-0.5) == pytest.approx(B_TABLE[-0.5] + 1.0, rel=1e-13)
