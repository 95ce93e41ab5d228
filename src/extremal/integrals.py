"""Full-line integrals of the kernels and Poisson-summation checks.

``integrate_with_tails`` and ``half_line_moments`` are calls of
:func:`extremal.majorants.line_integral`: adaptive quadrature on the part
of the range inside [-T, T], T = :data:`extremal.majorants.TAIL_CUTOFF` =
64, plus the closed-form channel tails beyond it.  The tails are exact to
far below any admissible tolerance at that T, so T does not depend on
``tol``; the cost follows ``tol`` through the adaptive refinement.  Both
take ``tol >= 1e-10`` and raise
:class:`extremal.quadrature.ToleranceNotMetError`, carrying the value, the
estimate and the integrand evaluations, when the budget runs out or the
error estimate exceeds the tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .majorants import eval_kernel, line_integral
from .quadrature import check_tol

__all__ = ["integrate_with_tails", "poisson_check", "half_line_moments"]


def integrate_with_tails(kernel_kind, tol=1e-8, max_evals=10_000_000):
    """Full-line integral of g, H, psi or G - x_+^0 with certified tails."""
    return line_integral(
        kernel_kind, -math.inf, math.inf, check_tol(tol, 1e-10), max_evals
    )


def poisson_check(kernel_kind, truncation):
    """(sum of kernel over integers |n| <= truncation, full-line integral).

    For both g and H the integer sum is exactly 1: only n = -1 contributes,
    every other integer hits an exact zero of the reduced-argument sinc.
    """
    if kernel_kind not in ("g", "H"):
        raise ValueError("poisson_check expects kernel kind 'g' or 'H'")
    truncation = int(truncation)
    if truncation < 10:
        raise ValueError("truncation must be >= 10")
    n = np.arange(-truncation, truncation + 1, dtype=float)
    values = eval_kernel(kernel_kind, n)
    total = math.fsum(values.tolist())
    integral = integrate_with_tails(kernel_kind, tol=1e-9)
    return total, integral.value


def half_line_moments(tol=1e-8):
    """The two half-line exchange identities tying G to the first moment of g.

    Returns a dict with both sides of

        integral_{-inf}^{0} G(x) dx      = integral_{-inf}^{0} H(u) du
        integral_{0}^{inf} (G(x)-1) dx   = integral_{0}^{inf} H(u) du

    (H = -u g, so the right-hand sides are the half-line first moments of
    -g), and the summed ``err_estimate`` of the four integrals, each taken
    to ``tol / 2``.  Used by the verification suite.
    """
    tol = 0.5 * check_tol(tol, 1e-10)
    parts = {
        "negative_axis_G_integral": ("G_minus_heaviside", -math.inf, 0.0),
        "negative_axis_moment": ("H", -math.inf, 0.0),
        "positive_axis_G_integral": ("G_minus_heaviside", 0.0, math.inf),
        "positive_axis_moment": ("H", 0.0, math.inf),
    }
    results = {name: line_integral(kind, a, b, tol)
               for name, (kind, a, b) in parts.items()}
    report = {name: res.value for name, res in results.items()}
    report["err_estimate"] = sum(res.err_estimate for res in results.values())
    return report
