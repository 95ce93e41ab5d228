"""Fourier transforms: closed forms for the kernel and the deficit, the
oscillatory-quadrature engine, and the band-limit identity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal.fourier import (
    _FT_CUTOFF,
    _filon_central,
    band_limit_check,
    g_hat,
    numeric_ft,
    psi_hat,
    psi_hat_scaled,
)
from extremal.majorants import tail_transform
from extremal.specfun import triangle


def full_transform(kind, t):
    """Central Filon panel plus both channel tails (internal assembly,
    usable for kinds not exposed through numeric_ft)."""
    central, _, _ = _filon_central(kind, t)
    right, _ = tail_transform(kind, _FT_CUTOFF, t, "right")
    left, _ = tail_transform(kind, _FT_CUTOFF, t, "left")
    return central + left + right


class TestGHat:
    def test_normalization(self):
        assert g_hat(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_half(self):
        # -1/2 + i/pi
        expected = -0.5 + 1j / math.pi
        assert abs(g_hat(0.5) - expected) < 1e-15

    def test_compact_support(self):
        for t in (1.0, -1.0, 1.5, -2.0, 10.0):
            assert g_hat(t) == 0.0

    def test_continuity_at_band_edge(self):
        eps = 1e-9
        assert abs(g_hat(1.0 - eps)) < 1e-7
        assert abs(g_hat(-1.0 + eps)) < 1e-7

    def test_hermitian_symmetry(self):
        t = np.linspace(-0.999, 0.999, 301)
        vals = g_hat(t)
        np.testing.assert_allclose(vals[::-1], np.conj(vals), rtol=0, atol=1e-15)

    @given(st.floats(-0.995, 0.995).filter(lambda t: abs(t) > 1e-3))
    @settings(max_examples=200)
    def test_property_derivative(self, t):
        # d/dt g_hat = 2 pi i e^{2 pi i t} triangle(t) inside the band.
        h = 1e-6
        num = (g_hat(t + h) - g_hat(t - h)) / (2.0 * h)
        exact = 2j * math.pi * cmath.exp(2j * math.pi * t) * triangle(t)
        assert abs(num - exact) < 5e-7

    def test_real_part_at_minus_half(self):
        # g_hat(-t) = conj(g_hat(t)) pins the -1/2 value too.
        assert abs(g_hat(-0.5) - (-0.5 - 1j / math.pi)) < 1e-15

    def test_vectorized_matches_scalar(self):
        ts = np.array([-1.5, -0.7, 0.0, 0.3, 0.999, 2.0])
        vec = g_hat(ts)
        for i, t in enumerate(ts):
            assert vec[i] == g_hat(float(t))


class TestPsiHat:
    def test_value_at_zero_is_deficit_integral(self):
        assert psi_hat(0.0) == 2.0

    def test_band_identity_exact(self):
        for t in (1.0, -1.0, 2.5, -7.0, 100.0):
            assert psi_hat(t) == 1j / (math.pi * t)

    def test_consistency_with_g_hat(self):
        for t in (0.3, -0.45, 0.87, 0.999):
            expected = (g_hat(t) - 1.0) / (1j * math.pi * t)
            assert abs(psi_hat(t) - expected) < 1e-13

    def test_taylor_branch_continuity(self):
        # Below the handover the generic quotient cancels catastrophically
        # (|g_hat(t) - 1| ~ pi|t| against 1e-16 roundoff), so the comparison
        # tolerance is the quotient's own noise floor, not the series'.
        for t in (1e-5 * (1 - 1e-9), 1e-5 * (1 + 1e-9), -1e-5, 3e-6, -9.99e-6):
            series = psi_hat(t)
            generic = (g_hat(t) - 1.0) / (1j * math.pi * t)
            assert abs(series - generic) < 5e-16 / (math.pi * abs(t)) + 1e-12

    def test_hermitian_symmetry(self):
        for t in (0.2, 0.9, 1.3, 4.0, 1e-6):
            assert abs(psi_hat(-t) - np.conj(psi_hat(t))) < 1e-15

    def test_real_part_even_positive_near_zero(self):
        # Re psi_hat(t) = 2 - |t| - (4 pi^2 / 3) t^2 + O(t^3) near 0.
        for t in (1e-6, -1e-6, 1e-4, -1e-4):
            quadratic = (4.0 * math.pi**2 / 3.0) * t * t
            assert psi_hat(t).real == pytest.approx(
                2.0 - abs(t) - quadratic, abs=30.0 * abs(t) ** 3 + 1e-14
            )


class TestPsiHatScaled:
    def test_scaling_law(self):
        for delta in (0.5, 1.0, 2.0, 7.3):
            for t in (0.0, 0.3, 1.1, -2.2):
                got = psi_hat_scaled(delta, t)
                assert abs(got - psi_hat(t / delta) / delta) < 1e-15

    def test_zero_frequency(self):
        assert psi_hat_scaled(4.0, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_band_shrinks_with_delta(self):
        # Once |t| >= delta the transform is pinned to i/(pi t).
        delta = 0.25
        for t in (0.25, 0.3, 1.0):
            assert psi_hat_scaled(delta, t) == 1j / (math.pi * t)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_delta_validation(self, bad):
        with pytest.raises(ValueError):
            psi_hat_scaled(bad, 0.5)


class TestNumericFT:
    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, -0.75, 0.999, 1.0, 1.5, -3.0])
    def test_g_matches_closed_form(self, t):
        assert abs(numeric_ft("g", t) - g_hat(t)) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.3, 0.9999, -1.2, 2.0, -3.5])
    def test_psi_matches_closed_form(self, t):
        assert abs(numeric_ft("psi", t) - psi_hat(t)) < 1e-11

    def test_beurling_deficit_integral(self):
        # The interpolating majorant has half the deficit of the monotone one.
        assert abs(numeric_ft("psi_beurling", 0.0) - 1.0) < 1e-10

    def test_beurling_band_identity(self):
        for t in (1.25, -2.0, 3.5):
            assert abs(numeric_ft("psi_beurling", t) + 1.0 / (1j * math.pi * t)) < 1e-10

    def test_hermitian_symmetry(self):
        for kind in ("g", "psi", "psi_beurling"):
            v = numeric_ft(kind, 0.37)
            w = numeric_ft(kind, -0.37)
            assert abs(w - np.conj(v)) < 1e-12

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            numeric_ft("H", 0.0)  # internal-only kind
        with pytest.raises(ValueError):
            numeric_ft("sgn", 0.0)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            numeric_ft("g", 0.0, tol=1e-9)
        with pytest.raises(ValueError):
            numeric_ft("g", math.inf)

    def test_H_transform_internal(self):
        # H(u) = sinc^2(u+1), so its transform is e^{2 pi i t} triangle(t).
        for t in (0.0, 0.4, -0.6, 0.95, 1.5, -2.0):
            expected = cmath.exp(2j * math.pi * t) * triangle(t)
            assert abs(full_transform("H", t) - expected) < 1e-11


# Frequencies for the array path: the origin, the band edge, tiny |t| (the
# psi tail switches branch at 1e-12), both sides of the |omega| = 8 switch
# of the Filon moments (|t| = 32 / pi ~ 10.19) and |t| up to 300.
ARRAY_TS = np.array([
    0.0, 1.0, -1.0, 1e-7, -1e-7, 0.37, -2.5,
    10.18, 10.19, 10.2, -10.18, -10.2, 57.3, 300.0, -300.0,
])


class TestNumericFTArray:
    @pytest.mark.parametrize("kind", ["g", "psi", "psi_beurling"])
    def test_matches_elementwise_scalar(self, kind):
        got = numeric_ft(kind, ARRAY_TS)
        for t, value in zip(ARRAY_TS, got):
            ref = numeric_ft(kind, float(t))
            assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_moment_switch_is_on_the_grid(self):
        omega = 2.0 * math.pi * np.abs(ARRAY_TS) * 0.125
        assert np.any((omega > 7.99) & (omega <= 8.0))
        assert np.any((omega > 8.0) & (omega < 8.01))

    def test_shape_preserved(self):
        t = ARRAY_TS[:12].reshape(3, 4)
        got = numeric_ft("psi_beurling", t)
        assert got.shape == (3, 4) and got.dtype == complex
        assert np.array_equal(got.ravel(), numeric_ft("psi_beurling", t.ravel()))

    def test_scalar_returns_python_complex(self):
        assert type(numeric_ft("g", 0.3)) is complex
        assert type(numeric_ft("g", np.float64(0.3))) is complex

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entry_rejected(self, bad):
        with pytest.raises(ValueError):
            numeric_ft("psi", np.array([0.5, bad, 2.0]))


class TestBandLimitCheck:
    def test_psi_residual_small(self):
        worst = band_limit_check("psi", [1.25, 2.0, 3.5, 5.0, 10.0, -1.25, -2.0])
        assert worst < 1e-12

    def test_beurling_residual_small(self):
        worst = band_limit_check("psi_beurling", [1.25, 2.0, 3.5, 5.0, 10.0])
        assert worst < 1e-10

    def test_inside_band_rejected(self):
        with pytest.raises(ValueError):
            band_limit_check("psi", [0.5, 2.0])

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            band_limit_check("g", [2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            band_limit_check("psi", [])
