"""Fourier transforms: closed forms for the kernel and the deficits, the
oscillatory-quadrature engine, and the band-limit identity."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extremal.fourier as fourier
from extremal.fourier import (
    _filon_central,
    g_hat,
    numeric_ft,
    psi_beurling_hat,
    psi_hat,
)
from extremal.hilbert import _deficit_hat_matrix
from extremal.majorants import TAIL_CUTOFF, kernel_H, tail_transform
from extremal.quadrature import ToleranceNotMetError
from test_specfun import triangle


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

    def test_matches_mpmath(self):
        # (g_hat - 1)/(pi i t) at 40 digits, on log-spaced |t| down to 1e-12
        # where the quotient cancels in double precision, plus points around
        # |t| = 1e-5, where an earlier Taylor branch handed over.
        mpmath = pytest.importorskip("mpmath")
        mags = np.logspace(-12, 0, 241, endpoint=False)
        near = [1e-5 * (1 - 1e-9), 1e-5 * (1 + 1e-9), -1e-5, 3e-6, -9.99e-6]
        ts = np.concatenate([mags, -mags, near])
        with mpmath.workdps(40):
            ref = []
            for t in ts:
                tm = mpmath.mpf(float(t))
                e = mpmath.expj(2 * mpmath.pi * tm)
                g = (1 - abs(tm)) * e + mpmath.sign(tm) * (e - 1) / (2j * mpmath.pi)
                ref.append(complex((g - 1) / (1j * mpmath.pi * tm)))
        assert np.max(np.abs(psi_hat(ts) - np.array(ref))) <= 2e-15


# Frequencies near the origin, the series handover at 0.05, the reflection
# at 1/2 and the band edge, on both sides of 0.
_BEURLING_MAGS = np.concatenate([
    np.logspace(-12, -1, 45),
    [0.0499999, 0.05, 0.0500001, 0.25, 0.37, 0.4999999, 0.5, 0.5000001, 0.8],
    1.0 - np.logspace(-14, -2, 13),
])
BEURLING_TS = np.concatenate([_BEURLING_MAGS, -_BEURLING_MAGS])


class TestPsiBeurlingHat:
    def test_matches_numeric_ft(self):
        ts = np.concatenate([BEURLING_TS, np.linspace(-3.0, 3.0, 601)])
        got = psi_beurling_hat(ts)
        assert np.max(np.abs(got - numeric_ft("psi_beurling", ts))) <= 1e-13

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = []
            for t in BEURLING_TS:
                tm = mpmath.mpf(float(t))
                h = mpmath.cot(mpmath.pi * tm) - 1 / (mpmath.pi * tm)
                ref.append(complex((1 - abs(tm)) * (1 - 1j * h)))
        got = psi_beurling_hat(BEURLING_TS)
        assert np.max(np.abs(got - np.array(ref))) <= 5e-15

    def test_deficit_integral_at_zero(self):
        assert psi_beurling_hat(0.0) == 1.0

    def test_band_identity_exact(self):
        for t in (1.0, -1.0, 1.25, -2.0, 3.5, 100.0):
            assert psi_beurling_hat(t) == 1j / (math.pi * t)

    def test_hermitian_symmetry_exact(self):
        ts = np.concatenate([BEURLING_TS, [1.0, 1.5, 7.0]])
        assert np.array_equal(psi_beurling_hat(-ts), np.conj(psi_beurling_hat(ts)))

    def test_scalar_and_shape(self):
        assert type(psi_beurling_hat(0.3)) is complex
        assert type(psi_beurling_hat(np.float64(-1.5))) is complex
        t = BEURLING_TS[:12].reshape(3, 4)
        got = psi_beurling_hat(t)
        assert got.shape == (3, 4) and got.dtype == complex
        assert np.array_equal(got.ravel(), psi_beurling_hat(t.ravel()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            psi_beurling_hat(np.array([0.5, bad]))
        with pytest.raises(ValueError):
            psi_beurling_hat(bad)


class TestPsiHatScaled:
    """The rescaled deficit transform delta^{-1} psi_hat(t / delta), the
    kernel of the telescoping sum."""

    @staticmethod
    def scaled(delta, t):
        return _deficit_hat_matrix("M", delta, np.asarray(t, dtype=float))

    def test_scaling_law(self):
        # Elementwise over a delta column broadcast against a t row.
        deltas = np.array([0.5, 1.0, 2.0, 7.3])
        ts = np.array([0.0, 0.3, 1.1, -2.2])
        got = self.scaled(deltas[:, None], ts[None, :])
        for i, delta in enumerate(deltas):
            for j, t in enumerate(ts):
                assert abs(got[i, j] - psi_hat(t / delta) / delta) < 1e-15

    def test_zero_frequency(self):
        assert self.scaled(4.0, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_band_shrinks_with_delta(self):
        # Once |t| >= delta the transform is pinned to i/(pi t).
        delta = 0.25
        for t in (0.25, 0.3, 1.0):
            assert self.scaled(delta, t) == 1j / (math.pi * t)


class TestNumericFT:
    def test_monomial_basis_change_is_cheb2poly(self):
        # The integer Chebyshev recurrence gives numpy's cheb2poly exactly.
        from numpy.polynomial.chebyshev import cheb2poly

        npts = fourier._FT_DEGREE + 1
        want = np.zeros((npts, npts))
        for j in range(npts):
            want[: j + 1, j] = cheb2poly(np.eye(npts)[j])[: j + 1]
        assert fourier._CHEB_C2P.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, -0.75, 0.999, 1.0, 1.5, -3.0])
    def test_g_matches_closed_form(self, t):
        assert abs(numeric_ft("g", t) - g_hat(t)) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.3, 0.9999, -1.2, 2.0, -3.5])
    def test_psi_matches_closed_form(self, t):
        assert abs(numeric_ft("psi", t) - psi_hat(t)) < 1e-11

    @pytest.mark.parametrize("tol", [1e-8, 1e-7])
    @pytest.mark.parametrize("t", [-1e-11, 1e-11, 1e-10, 1e-9, 1e-8])
    def test_psi_tiny_frequency_bound_honest(self, t, tol, monkeypatch):
        # Whatever comes back near t = 0, value or refusal against the
        # module's tolerance, its reported accuracy must cover the true
        # error, and a value is within the tightest tolerance 1e-8.
        monkeypatch.setattr(fourier, "_FT_TOL", tol)
        try:
            value = numeric_ft("psi", t)
        except ToleranceNotMetError as exc:
            assert exc.err_estimate >= abs(exc.value - psi_hat(t))
        else:
            assert abs(value - psi_hat(t)) <= 1e-8

    def test_refusal_payload(self, monkeypatch):
        # A Filon estimate above _FT_TOL is refused with the values, the
        # estimate and the kernel evaluations behind them.
        panel_data = fourier._panel_data

        def coarse(kind):
            mono, _, evaluations = panel_data(kind)
            return mono, 1e-3, evaluations

        t = np.array([0.3, 2.0])
        want = numeric_ft("g", t)
        monkeypatch.setattr(fourier, "_panel_data", coarse)
        with pytest.raises(ToleranceNotMetError) as info:
            numeric_ft("g", t)
        err = info.value
        assert np.array_equal(err.value, want)
        assert err.err_estimate > 1e-3
        assert err.evaluations == 5632  # 512 panels of 11 Chebyshev nodes

    def test_psi_small_frequencies_meet_tight_tol(self):
        # The tightest tolerance, 1e-8, holds down to t = 0.
        t = np.geomspace(1e-12, 1e-6, 61)
        for ts in (t, -t):
            assert np.all(np.abs(numeric_ft("psi", ts) - psi_hat(ts)) <= 1e-8)

    def test_psi_matches_closed_form_near_zero_and_band_edge(self):
        # Down to |t| = 1e-14, and next to |t| = 1, where the phase
        # channels of the tail sit at frequency ~0.  numeric_ft's estimate,
        # reassembled from its parts, bounds the error.
        t = np.concatenate([
            np.geomspace(1e-14, 5.0, 111), [1e-7, 1.0 - 1e-9, 1.0 + 1e-9],
        ])
        t = np.concatenate([t, -t])
        err = np.abs(numeric_ft("psi", t) - psi_hat(t))
        assert np.max(err) <= 1e-13
        _, est, _ = _filon_central("psi", t)
        _, err_r = tail_transform("psi", TAIL_CUTOFF, t, "right")
        _, err_l = tail_transform("psi", TAIL_CUTOFF, t, "left")
        assert np.all(err <= est + err_r + err_l)

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
            numeric_ft("H", 0.0)  # a kernel, not a transform kind
        with pytest.raises(ValueError):
            numeric_ft("sgn", 0.0)

    def test_tol_validation(self):
        # The scheme is fixed: it takes no tol, and every t must be finite.
        with pytest.raises(TypeError):
            numeric_ft("g", 0.0, tol=1e-7)
        with pytest.raises(ValueError):
            numeric_ft("g", math.inf)

    def test_H_transform_internal(self, monkeypatch):
        # H(u) = sinc^2(u+1), so its transform is e^{2 pi i t} triangle(t);
        # H has channel tails, so only its kernel needs adding to the engine.
        monkeypatch.setitem(fourier._FT_KERNELS, "H", kernel_H)
        for t in (0.0, 0.4, -0.6, 0.95, 1.5, -2.0):
            expected = cmath.exp(2j * math.pi * t) * triangle(t)
            assert abs(numeric_ft("H", t) - expected) < 1e-11

    @pytest.mark.parametrize("kind", ["g", "psi", "psi_beurling"])
    def test_panels_built_in_blocks_match_one_call(self, kind, monkeypatch):
        # The kernel points go to the kernel in several blocks; the values
        # and the panel coefficients are those of one whole-array call.
        kernel = fourier._FT_KERNELS[kind]
        calls = []

        def recording(x):
            calls.append((x.copy(), kernel(x)))
            return calls[-1][1]

        monkeypatch.setitem(fourier._FT_KERNELS, kind, recording)
        mono, _, evaluations = fourier._panel_data(kind)
        xs = np.concatenate([x for x, _ in calls])
        blockwise = np.concatenate([v for _, v in calls])
        assert len(calls) > 1 and xs.size == evaluations
        nodes = fourier._CENTERS[:, None] + 0.5 * fourier._FT_PANEL * fourier._CHEB_NODES
        assert (xs == nodes.ravel()).all()
        whole = kernel(xs)
        assert (blockwise == whole).all()
        vals = whole.reshape(nodes.shape)
        assert (mono == vals @ fourier._CHEB_V.T @ fourier._CHEB_C2P.T).all()

    def test_transform_memory_is_small(self):
        # Built in blocks, the panels of the costliest kernel take half a
        # megabyte at most, not the 1.3 MB of one 5,632-point call.
        numeric_ft("psi", 0.0)  # anything loaded on first use
        tracemalloc.start()
        try:
            numeric_ft("psi", 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 500_000


# Frequencies for the array path: the origin, the band edge, tiny |t|, both
# sides of the |omega| = 8 switch of the Filon moments (|t| = 32 / pi ~
# 10.19) and |t| up to 300.
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
    # On |t| >= 1 both closed forms are -1/(pi i t); the Filon engine must
    # agree there.
    def test_psi_residual_small(self):
        ts = np.array([1.25, 2.0, 3.5, 5.0, 10.0, -1.25, -2.0])
        worst = np.max(np.abs(numeric_ft("psi", ts) - psi_hat(ts)))
        assert worst < 1e-12

    def test_beurling_residual_small(self):
        ts = np.array([1.25, 2.0, 3.5, 5.0, 10.0])
        worst = np.max(np.abs(numeric_ft("psi_beurling", ts) - psi_beurling_hat(ts)))
        assert worst < 1e-10
