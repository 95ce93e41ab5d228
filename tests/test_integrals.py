"""Whole-line integrals with analytic tail channels, Poisson summation, and
the half-line moment identities."""

import math

import pytest

from extremal.integrals import half_line_moments, integrate_with_tails, poisson_check
from extremal.quadrature import ToleranceNotMetError

EXACT_INTEGRALS = {
    "g": 1.0,
    "psi": 2.0,
    "G_minus_heaviside": 1.0,
    "H": 1.0,
}


class TestIntegrateWithTails:
    @pytest.mark.parametrize("kind,exact", sorted(EXACT_INTEGRALS.items()))
    def test_exact_values(self, kind, exact):
        res = integrate_with_tails(kind, tol=1e-10)
        assert res.value == pytest.approx(exact, abs=1e-11)
        assert res.err_estimate < 1e-9

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("kind", sorted(EXACT_INTEGRALS))
    def test_error_estimate_honest(self, kind, tol):
        res = integrate_with_tails(kind, tol=tol)
        assert abs(res.value - EXACT_INTEGRALS[kind]) <= res.err_estimate + 1e-13

    @pytest.mark.parametrize("kind", sorted(EXACT_INTEGRALS))
    def test_window_sized_by_tail_budget(self, kind):
        # The closed-form tails are exact beyond |x| = 64, so the numerical
        # window stays there at any tolerance (a tol-dependent window of
        # 31,623 cost psi 1.9 M evaluations at tol 1e-9).
        assert integrate_with_tails(kind, tol=1e-9).evaluations <= 10_000

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            integrate_with_tails("sgn")

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            integrate_with_tails("g", tol=1e-11)
        with pytest.raises(ValueError):
            integrate_with_tails("g", tol=math.nan)
        with pytest.raises(ValueError):
            half_line_moments(tol=math.nan)

    def test_budget_failure_reported(self):
        with pytest.raises(ToleranceNotMetError) as info:
            integrate_with_tails("g", 1e-10, max_evals=200)
        assert info.value.err_estimate > 1e-10
        assert math.isfinite(info.value.value)

    def test_looser_tolerance_cheaper(self):
        cheap = integrate_with_tails("g", tol=1e-6)
        tight = integrate_with_tails("g", tol=1e-10)
        assert cheap.evaluations < tight.evaluations
        assert cheap.value == pytest.approx(1.0, abs=2e-6)


class TestPoissonCheck:
    @pytest.mark.parametrize("kind", ["g", "H"])
    def test_sum_exactly_one(self, kind):
        total, integral = poisson_check(kind, truncation=50)
        # Only the n = -1 lattice point contributes; all other integer
        # values vanish identically, so the sum is exact.
        assert total == 1.0
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            poisson_check("g", truncation=5)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            poisson_check("psi", truncation=50)

    def test_truncation_independent(self):
        a, _ = poisson_check("g", truncation=10)
        b, _ = poisson_check("g", truncation=500)
        assert a == b == 1.0


class TestHalfLineMoments:
    def test_moment_identities(self):
        rep = half_line_moments(tol=1e-9)
        # integral of G over (-inf, 0] equals integral of H there, and the
        # same on [0, inf) after removing the step.
        assert rep["negative_axis_G_integral"] == pytest.approx(
            rep["negative_axis_moment"], abs=1e-8
        )
        assert rep["positive_axis_G_integral"] == pytest.approx(
            rep["positive_axis_moment"], abs=1e-8
        )

    def test_halves_sum_to_deficit(self):
        rep = half_line_moments(tol=1e-9)
        total = rep["negative_axis_G_integral"] + rep["positive_axis_G_integral"]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_error_estimate_present(self):
        rep = half_line_moments()
        assert rep["err_estimate"] < 1e-6
