"""Adaptive Gauss-Kronrod quadrature.

The central tool is :func:`integrate_adaptive`, a deterministic bisection
scheme built on the 7-point Gauss / 15-point Kronrod pair, vectorized so
that every pending panel is evaluated in one call to the integrand.

Every certified routine of the package that takes a ``tol`` (this
quadrature, the line integrals built on it, the sharp-constant solve)
checks its range through :func:`check_tol`.  Each of them, and the fixed
Filon transform, refuses through :class:`ToleranceNotMetError`; budgets
(here ``_MAX_EVALS``) and the Filon tolerance are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadResult",
    "ToleranceNotMetError",
    "check_tol",
    "integrate_adaptive",
]

# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 nodes and weights (positive half; the rule is symmetric).

_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# Full 15-point rule, nodes ascending.
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_W_K = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
# Gauss weights aligned with the 15-node layout (zero where Kronrod-only).
_W_G = np.zeros(15)
_W_G[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])

# The least positive double: a tol of at least this is a tol > 0.
_LEAST_POSITIVE = math.ulp(0.0)

# Starting panel width.  At 0.5 the initial mesh of the line integrals'
# window [-64, 64] would already meet every admissible tol, so the cost
# would not follow tol; at 4 the refinement sets it.
_PANEL_WIDTH = 4.0
# Integrand evaluations one call may spend.
_MAX_EVALS = 10_000_000


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and integrand-evaluation count of a quadrature."""

    value: float
    err_estimate: float
    evaluations: int


class ToleranceNotMetError(RuntimeError):
    """Raised when a certified routine cannot meet its ``tol`` within its
    budget: adaptive or fixed quadrature, a Fourier transform, a spectral
    solve.

    Carries the best ``value`` reached, its ``err_estimate`` and the
    ``evaluations`` spent on it (integrand evaluations or products with
    the coupling matrix).
    """

    def __init__(self, message, value, err_estimate, evaluations):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.evaluations = evaluations


def check_tol(tol, least, most=math.inf):
    """``tol`` as a float, or ValueError unless ``least <= tol <= most``
    (NaN fails every range)."""
    tol = float(tol)
    if not least <= tol <= most:
        bound = f"lie in [{least:g}, {most:g}]" if most < math.inf else f"be >= {least:g}"
        raise ValueError(f"tol must {bound}, got {tol!r}")
    return tol


def _kronrod(f, left, right):
    """K15 values and |K15 - G7| error estimates of ``f`` on the panels
    [left, right], all evaluated in one call of ``f``."""
    centers = 0.5 * (left + right)
    half = 0.5 * (right - left)
    x = (centers[:, None] + half[:, None] * _NODES[None, :]).ravel()
    fx = np.asarray(f(x), dtype=float).reshape(left.size, 15)
    if not np.all(np.isfinite(fx)):
        raise ValueError("integrand returned a non-finite value")
    k15 = half * (fx @ _W_K)
    return k15, np.abs(k15 - half * (fx @ _W_G))


def integrate_adaptive(f, a, b, tol=1e-10):
    """Adaptive G7/K15 integration of a vectorized ``f`` over [a, b].

    The initial mesh has panels of width at most 4.  Panels whose
    Kronrod-Gauss discrepancy exceeds their proportional share
    ``tol * width / (b - a)`` are bisected; all pending panels are
    evaluated together, so ``f`` must accept an ndarray.  The result is
    deterministic (fixed node order, correctly rounded final summation).

    Raises :class:`ToleranceNotMetError` once more than ``_MAX_EVALS``
    integrand evaluations would be needed, carrying the best estimate; if
    the first mesh alone would need more, at once with (NaN, inf, 0).
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_adaptive requires finite endpoints")
    tol = check_tol(tol, _LEAST_POSITIVE)
    if b == a:
        return QuadResult(0.0, 0.0, 0)
    if b < a:
        res = integrate_adaptive(f, b, a, tol=tol)
        return QuadResult(-res.value, res.err_estimate, res.evaluations)

    span = b - a
    # Counted in floats, so that a span past the largest double is inf panels.
    panels = max(1.0, np.ceil(span / _PANEL_WIDTH))
    if 15.0 * panels > _MAX_EVALS:
        message = f"first mesh on [{a}, {b}] exceeds evaluation budget {_MAX_EVALS}"
        raise ToleranceNotMetError(message, math.nan, math.inf, 0)
    edges = np.linspace(a, b, int(panels) + 1)
    left = edges[:-1]
    right = edges[1:]

    # k15 and err of the accepted panels, one array per generation: fsum is
    # correctly rounded, so the order of the panels cannot change a bit.
    k15_done, err_done = [], []
    evaluations = 0
    min_width = 1e-14 * max(abs(a), abs(b), 1.0)

    while left.size:
        cost = 15 * left.size
        if evaluations + cost > _MAX_EVALS:
            raise ToleranceNotMetError(
                f"evaluation budget {_MAX_EVALS} exhausted on [{a}, {b}]",
                math.fsum(np.concatenate(k15_done + [pending[0]])),
                math.fsum(np.concatenate(err_done + [pending[1]])),
                evaluations,
            )
        evaluations += cost

        k15, err = _kronrod(f, left, right)
        width = right - left
        accept = (err <= tol * width / span) | (width <= min_width)
        k15_done.append(k15[accept])
        err_done.append(err[accept])

        keep = ~accept
        # The pending regions as their parents estimated them: a budget stop
        # reports these without spending further evaluations.
        pending = k15[keep], err[keep]
        l_k = left[keep]
        r_k = right[keep]
        mid = 0.5 * (l_k + r_k)
        left = np.concatenate([l_k, mid])
        right = np.concatenate([mid, r_k])

    k15 = np.concatenate(k15_done)
    value = math.fsum(k15)
    err_total = math.fsum(np.concatenate(err_done))
    err_total += 5e-16 * math.fsum(np.abs(k15))
    return QuadResult(value, err_total, evaluations)

