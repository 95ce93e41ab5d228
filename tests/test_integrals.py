"""Whole-line integrals with analytic tail channels, Poisson summation, and
the half-line moment identities, all through ``line_integral``."""

import math

import numpy as np
import pytest

from extremal import quadrature
from extremal.majorants import kernel_g, kernel_H, line_integral
from extremal.quadrature import ToleranceNotMetError

EXACT_INTEGRALS = {
    "g": 1.0,
    "psi": 2.0,
    "H": 1.0,
}


def whole_line(kind, tol):
    return line_integral(kind, -math.inf, math.inf, tol)


class TestIntegrateWithTails:
    @pytest.mark.parametrize("kind,exact", sorted(EXACT_INTEGRALS.items()))
    def test_exact_values(self, kind, exact):
        res = whole_line(kind, 1e-10)
        assert res.value == pytest.approx(exact, abs=1e-11)
        assert res.err_estimate < 1e-9

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("kind", sorted(EXACT_INTEGRALS))
    def test_error_estimate_honest(self, kind, tol):
        res = whole_line(kind, tol)
        assert abs(res.value - EXACT_INTEGRALS[kind]) <= res.err_estimate + 1e-13

    @pytest.mark.parametrize("kind", sorted(EXACT_INTEGRALS))
    def test_window_sized_by_tail_budget(self, kind):
        # The closed-form tails are exact beyond |x| = 64, so the numerical
        # window stays there at any tolerance (a tol-dependent window of
        # 31,623 cost psi 1.9 M evaluations at tol 1e-9).
        assert whole_line(kind, 1e-9).evaluations <= 10_000

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            whole_line("sgn", 1e-8)

    def test_tol_floor(self):
        for tol in (math.nan, -1.0, 0.0):
            with pytest.raises(ValueError):
                whole_line("g", tol)
            with pytest.raises(ValueError):
                line_integral("H", 0.0, math.inf, tol)

    def test_budget_failure_reported(self, monkeypatch):
        # 200 evaluations cannot pay for the window's first mesh (480): the
        # refusal carries no estimate.
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 200)
        with pytest.raises(ToleranceNotMetError) as info:
            whole_line("g", 1e-10)
        assert math.isnan(info.value.value)
        assert info.value.err_estimate == math.inf
        assert info.value.evaluations == 0

    def test_looser_tolerance_cheaper(self):
        cheap = whole_line("g", 1e-6)
        tight = whole_line("g", 1e-10)
        assert cheap.evaluations < tight.evaluations
        assert cheap.value == pytest.approx(1.0, abs=2e-6)


def lattice_sum(kernel, truncation):
    """The sum of ``kernel`` over the integers |n| <= truncation."""
    n = np.arange(-truncation, truncation + 1, dtype=float)
    return math.fsum(kernel(n).tolist())


class TestPoissonCheck:
    @pytest.mark.parametrize("kind", ["g", "H"])
    def test_sum_exactly_one(self, kind):
        # Only the n = -1 lattice point contributes; all other integer
        # values vanish identically, so the sum is exact.
        kernel = {"g": kernel_g, "H": kernel_H}[kind]
        assert lattice_sum(kernel, 50) == 1.0
        assert whole_line(kind, 1e-9).value == pytest.approx(1.0, abs=1e-8)

    def test_truncation_independent(self):
        assert lattice_sum(kernel_g, 10) == lattice_sum(kernel_g, 500) == 1.0


def half_line_parts(tol):
    """Both sides of the half-line exchange identities tying G to the first
    moment of g (H = -u g), each integral to ``tol``:

        integral_{-inf}^{0} G(x) dx      = integral_{-inf}^{0} H(u) du
        integral_{0}^{inf} (G(x)-1) dx   = integral_{0}^{inf} H(u) du

    Off the origin G - x_+^0 is psi / 2, so the left sides are halves of
    the integrals of psi returned here.
    """
    parts = {
        "negative_axis_psi_integral": ("psi", -math.inf, 0.0),
        "negative_axis_moment": ("H", -math.inf, 0.0),
        "positive_axis_psi_integral": ("psi", 0.0, math.inf),
        "positive_axis_moment": ("H", 0.0, math.inf),
    }
    return {name: line_integral(kind, a, b, tol)
            for name, (kind, a, b) in parts.items()}


class TestHalfLineMoments:
    def test_moment_identities(self):
        rep = {k: r.value for k, r in half_line_parts(5e-10).items()}
        # integral of G over (-inf, 0] equals integral of H there, and the
        # same on [0, inf) after removing the step.
        for axis in ("negative", "positive"):
            assert rep[f"{axis}_axis_psi_integral"] / 2.0 == pytest.approx(
                rep[f"{axis}_axis_moment"], abs=1e-8
            )

    def test_halves_sum_to_deficit(self):
        rep = {k: r.value for k, r in half_line_parts(5e-10).items()}
        total = rep["negative_axis_psi_integral"] + rep["positive_axis_psi_integral"]
        # integral (G - x_+^0) = 1, that is integral psi = 2
        assert total / 2.0 == pytest.approx(1.0, abs=1e-8)

    def test_error_estimate_present(self):
        parts = half_line_parts(5e-9)
        assert sum(r.err_estimate for r in parts.values()) < 1e-6
