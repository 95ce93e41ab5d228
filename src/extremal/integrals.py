"""Full-line integrals of the kernels and Poisson-summation checks.

``integrate_with_tails`` combines the adaptive panel scheme on the finite
window [-T, T], T = :data:`extremal.majorants.TAIL_CUTOFF` = 64, with the
closed-form channel tails of :mod:`extremal.majorants`.  The tails are
exact to far below any admissible tolerance at that T, so T does not
depend on ``tol``; the cost follows ``tol`` through the adaptive
refinement, which starts from panels of width 4.
"""

from __future__ import annotations

import math

import numpy as np

from .majorants import (
    TAIL_CUTOFF,
    eval_kernel,
    g_minus_heaviside_closed,
    kernel_H,
    kernel_g,
    psi_closed,
    tail_transform,
)
from .quadrature import QuadResult, integrate_adaptive

__all__ = ["integrate_with_tails", "poisson_check", "half_line_moments"]

_INTEGRANDS = {
    "g": kernel_g,
    "H": kernel_H,
    "psi": psi_closed,
    "G_minus_heaviside": g_minus_heaviside_closed,
}

# Starting panel width of the adaptive scheme.  At the default 0.5 the
# initial mesh of [-64, 64] already meets every admissible tol, so the cost
# would not follow tol; width 4 lets the refinement do that.
_PANEL_WIDTH = 4.0


def integrate_with_tails(kernel_kind, tol=1e-8, max_evals=10_000_000):
    """Full-line integral of g, H, psi or G - x_+^0 with certified tails."""
    if kernel_kind not in _INTEGRANDS:
        raise ValueError(
            f"unknown kernel kind {kernel_kind!r}; "
            f"expected one of {tuple(_INTEGRANDS)}"
        )
    tol = float(tol)
    if tol < 1e-10:
        raise ValueError("tol must be >= 1e-10")
    T = TAIL_CUTOFF
    f = _INTEGRANDS[kernel_kind]
    central = integrate_adaptive(
        f, -T, T, tol=0.5 * tol, max_evals=max_evals,
        initial_panel_width=_PANEL_WIDTH,
    )
    right, err_r = tail_transform(kernel_kind, T, 0.0, "right")
    left, err_l = tail_transform(kernel_kind, T, 0.0, "left")
    value = central.value + right.real + left.real
    err = central.err_estimate + err_r + err_l
    return QuadResult(value, err, central.evaluations)


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
    -g).  Used by the verification suite; both pairs agree to ~tol.
    """
    tol = float(tol)
    if tol < 1e-10:
        raise ValueError("tol must be >= 1e-10")
    T = TAIL_CUTOFF

    def half(f, a, b):
        return integrate_adaptive(
            f, a, b, 0.25 * tol, initial_panel_width=_PANEL_WIDTH
        )

    lhs_left = half(g_minus_heaviside_closed, -T, 0.0)
    tail_ll, err_ll = tail_transform("G_minus_heaviside", T, 0.0, "left")
    rhs_left = half(kernel_H, -T, 0.0)
    tail_rl, err_rl = tail_transform("H", T, 0.0, "left")

    lhs_right = half(g_minus_heaviside_closed, 0.0, T)
    tail_lr, err_lr = tail_transform("G_minus_heaviside", T, 0.0, "right")
    rhs_right = half(kernel_H, 0.0, T)
    tail_rr, err_rr = tail_transform("H", T, 0.0, "right")

    return {
        "negative_axis_G_integral": lhs_left.value + tail_ll.real,
        "negative_axis_moment": rhs_left.value + tail_rl.real,
        "positive_axis_G_integral": lhs_right.value + tail_lr.real,
        "positive_axis_moment": rhs_right.value + tail_rr.real,
        "err_estimate": (
            lhs_left.err_estimate
            + rhs_left.err_estimate
            + lhs_right.err_estimate
            + rhs_right.err_estimate
            + err_ll
            + err_rl
            + err_lr
            + err_rr
        ),
    }
