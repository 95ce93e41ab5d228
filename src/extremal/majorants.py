"""The extremal monotone majorant of sgn and its relatives.

Core objects:

* the kernel triple ``g``, ``H``, ``h`` (``H = -u g``, ``g = -u h^2``) with
  all removable singularities handled by exact algebraic rearrangement,
* the antiderivative ``G`` in closed form (``G_closed``),
* the monotone majorant ``M = 2G - 1``, the interpolating majorant ``B``
  built from trigamma, the minorant ``-M(-x)``, and the deficit functions
  ``psi = M - sgn`` and ``phi(x) = psi(-x)``,
* closed-form tail machinery: beyond the window every kind here is
  ``P(x) + Re(exp(2 pi i x) A(x))`` with inverse-power series P and A
  (the kernels are ``(1 - cos 2 pi x) * envelope``, psi adds its
  integration by parts), so integrals and Fourier transforms of tails
  reduce to :func:`extremal.quadrature.modulated_tail`,
* :func:`line_integral`, the one routine that integrates g, H, psi or
  ``G - x_+^0`` over any interval: adaptive quadrature on the window
  ``[-TAIL_CUTOFF, TAIL_CUTOFF]`` plus closed-form tails beyond it, with a
  checked error estimate.

Conventions: ``sgn(0) = 0`` and the upper Heaviside ``x_+^0(0) = 1``.

The vectorized closed forms (``G_closed`` etc.) are the bulk path used for
grids and Fourier node tables.  ``eval_G`` (and ``eval_majorant`` and
``eval_deficit`` on top of it) is the auditable quadrature route of G
through :func:`line_integral`; it validates its tolerance and the two
routes are tested against each other.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import (
    QuadResult,
    ToleranceNotMetError,
    check_tol,
    integrate_adaptive,
    modulated_tail,
)
from .specfun import _as_array, si_cin, sinc, trigamma

__all__ = [
    "sgn",
    "heaviside_upper",
    "eval_kernel",
    "kernel_g",
    "kernel_H",
    "kernel_h",
    "G_closed",
    "M_closed",
    "closed_columns",
    "beurling_b",
    "psi_closed",
    "phi_closed",
    "psi_beurling_closed",
    "g_minus_heaviside_closed",
    "eval_G",
    "eval_majorant",
    "eval_deficit",
    "tail_transform",
    "TAIL_KINDS",
    "TAIL_CUTOFF",
    "ToleranceNotMetError",
]

_TOL_MIN = 1e-12
_TOL_MAX = 1e-4


def sgn(x):
    """Sign function with sgn(0) = 0."""
    arr, scalar = _as_array(x)
    out = np.sign(arr)
    return float(out) if scalar else out


def heaviside_upper(x):
    """Upper semicontinuous Heaviside: 1 for x >= 0, else 0."""
    arr, scalar = _as_array(x)
    out = np.where(arr >= 0.0, 1.0, 0.0)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Kernels.  The naive forms have removable singularities at u = 0 and u = -1;
# writing sin(pi u) = -sin(pi (u+1)) swaps the problem point between the two
# factorizations, so branching at u = -1/2 keeps every evaluation exact.

def kernel_g(u):
    """g(u) = -sin^2(pi u) / (pi^2 u (u+1)^2), singularities removed.

    Nonnegative on (-inf, 0), nonpositive on (0, inf); g(-1) = 1, g(0) = 0.
    """
    arr, scalar = _as_array(u)
    right = arr >= -0.5
    out = np.empty_like(arr)
    a = arr[right]
    out[right] = -a * sinc(a) ** 2 / (a + 1.0) ** 2
    b = arr[~right]
    out[~right] = -sinc(b + 1.0) ** 2 / b
    return float(out) if scalar else out


def kernel_H(u):
    """H(u) = -u g(u) = sinc^2(u+1); the Fejer-type profile peaking at -1."""
    arr, scalar = _as_array(u)
    out = sinc(arr + 1.0) ** 2
    return float(out) if scalar else out


def kernel_h(u):
    """h(u) = sinc(u)/(u+1), with h(-1) = +1 (the sign is a free choice)."""
    arr, scalar = _as_array(u)
    right = arr >= -0.5
    out = np.empty_like(arr)
    a = arr[right]
    out[right] = sinc(a) / (a + 1.0)
    b = arr[~right]
    out[~right] = -sinc(b + 1.0) / b
    return float(out) if scalar else out


_KERNELS = {"g": kernel_g, "H": kernel_H, "h": kernel_h}


def eval_kernel(kind, u):
    """Evaluate one of the kernels g, H, h at a finite real u."""
    try:
        fn = _KERNELS[kind]
    except KeyError:
        raise ValueError(f"unknown kernel kind {kind!r}; expected g, H or h")
    if not np.all(np.isfinite(u)):
        raise ValueError("kernel argument must be finite")
    return fn(u)


# ---------------------------------------------------------------------------
# Closed form for G(x) = integral_{-inf}^x g.
#
# From the partial fractions 1/(u(u+1)^2) = 1/u - 1/(u+1) - 1/(u+1)^2 the
# antiderivative assembles from Cin and Si:
#
#   G(x) = 1/2 - [Cin(2 pi x) - Cin(2 pi (x+1))] / (2 pi^2)
#          - (x+1) sinc^2(x+1) + Si(2 pi (x+1)) / pi .
#
# (Checked against the quadrature route and by differentiating back to g.)

def G_closed(x, reflect=False):
    """Vectorized closed form of G, within 1e-15 absolute of mpmath.

    The bound is the one tests/test_majorants.py enforces on a seeded sweep
    of [-1e4, 1e4] and at the points where the closed form cancels.
    Si and Cin are evaluated once per argument, 2 pi x and 2 pi (x + 1),
    in one :func:`~extremal.specfun.si_cin` call.  With ``reflect`` the
    result is the pair (G(x), G(-x)): the call takes the third row
    2 pi (1 - x), and Cin(-2 pi x) is Cin(2 pi x) bit for bit since Cin is
    even and computed from |x|.
    """
    arr, scalar = _as_array(x)
    x1 = arr + 1.0
    rows = [arr, x1, 1.0 - arr] if reflect else [arr, x1]
    # G is at its limits 0 and 1 long before |x| = 1e300; capping there
    # keeps 2 pi x finite up to the largest double.
    si, cin = si_cin((2.0 * np.pi) * np.clip(np.stack(rows), -1e300, 1e300))
    out = tuple(
        0.5
        - (cin[0] - cin[k]) / (2.0 * np.pi**2)
        - rows[k] * sinc(rows[k]) ** 2
        + si[k] / np.pi
        for k in range(1, len(rows))
    )
    if scalar:
        out = tuple(float(v) for v in out)
    return out if reflect else out[0]


def _majorant(G):
    """M = 2G - 1 from values of G."""
    return 2.0 * G - 1.0


def _deficit(x, M):
    """psi = M - sgn at the points x from the values M(x)."""
    return M - np.sign(x)


def M_closed(x):
    """Vectorized closed form of the monotone majorant M = 2G - 1."""
    arr, scalar = _as_array(x)
    out = _majorant(G_closed(arr))
    return float(out) if scalar else out


def psi_closed(x):
    """Deficit psi(x) = M(x) - sgn(x) (closed form)."""
    arr, scalar = _as_array(x)
    out = _deficit(arr, M_closed(arr))
    return float(out) if scalar else out


def phi_closed(x):
    """Reflected deficit phi(x) = psi(-x) = sgn(x) + M(-x) (closed form)."""
    arr, scalar = _as_array(x)
    out = psi_closed(-arr)
    return float(out) if scalar else out


def closed_columns(x):
    """G, M, B, psi and phi at the points of the array ``x``: the columns of
    ``extremal eval``, bit for bit ``G_closed(x)``, ``M_closed(x)``,
    ``beurling_b(x)``, ``psi_closed(x)`` and ``phi_closed(x)``, with G(x)
    and G(-x) from one ``G_closed(x, reflect=True)`` call.
    """
    x = np.asarray(x, dtype=float)
    G, G_reflected = G_closed(x, reflect=True)
    M = _majorant(G)
    phi = _deficit(-x, _majorant(G_reflected))
    return G, M, beurling_b(x), _deficit(x, M), phi


def g_minus_heaviside_closed(x):
    """G(x) - x_+^0(x); integrable with integral 1."""
    arr, scalar = _as_array(x)
    out = G_closed(arr) - np.where(arr >= 0.0, 1.0, 0.0)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# The interpolating majorant B via trigamma.
#
# For x > 0:  B(x) = 1 - (2 sin^2(pi x)/pi^2) (trigamma(x+1) - 1/x)
# For x < 0:  B(x) = -1 + (2 sin^2(pi x)/pi^2) (trigamma(-x) + 1/x)
#
# Both one-sided lattice series sum to trigamma, and the reflection keeps
# every trigamma argument strictly positive, so there are no pole lines to
# dodge; at exact integers the sin^2 factor vanishes and the limit value
# sgn(n) (resp. 1 at n = 0) is returned directly.

def beurling_b(x):
    """Vectorized interpolating majorant B of sgn (B(n) = sgn(n), B(0) = 1)."""
    arr, scalar = _as_array(x)
    flat = arr.reshape(-1)
    n = np.round(flat)
    r = flat - n
    out = np.empty_like(flat)

    exact = r == 0.0
    out[exact] = np.where(n[exact] >= 0.0, 1.0, -1.0)

    # Taylor branch about the origin, B(x) = 1 + 2x + O(x^2): keeps tiny
    # negative arguments off the reflection formula, where 1/x^2-sized
    # trigamma values overflow against an underflowing sin^2 prefactor.
    tiny = ~exact & (np.abs(flat) < 1e-12)
    out[tiny] = 1.0 + 2.0 * flat[tiny]

    rest = ~exact & ~tiny
    xm = flat[rest]
    s2 = np.sin(np.pi * r[rest]) ** 2
    coef = 2.0 * s2 / np.pi**2
    val = np.empty_like(xm)
    pos = xm > 0.0
    xp = xm[pos]
    val[pos] = 1.0 - coef[pos] * (trigamma(xp + 1.0) - 1.0 / xp)
    xn = xm[~pos]
    val[~pos] = -1.0 + coef[~pos] * (trigamma(-xn) + 1.0 / xn)
    out[rest] = val

    out = out.reshape(arr.shape)
    return float(out) if scalar else out


def psi_beurling_closed(x):
    """Deficit of the interpolating majorant: B(x) - sgn(x)."""
    arr, scalar = _as_array(x)
    out = beurling_b(arr) - np.sign(arr)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Tail series.  For x >= X (X well above 1) each kind is
# [P(x) + Re(e^{2 pi i x} A(x))] / divisor, and likewise at -x for the left
# tail, with P and A series in the basis x^{-(j+2)}, exactly as consumed by
# quadrature.modulated_tail.  The kernels are (1 - cos 2 pi x) * envelope,
# that is P = envelope and A = -envelope.

_J_POLY = 14

# 1/(x (x+1)^2) = sum_{k>=0} (-1)^k (k+1) x^{-(k+3)}
_RHO_RIGHT = tuple(
    0.0 if j == 0 else float((-1) ** (j - 1) * j) for j in range(_J_POLY)
)
# 1/(x (x-1)^2) = sum_{k>=0} (k+1) x^{-(k+3)}
_RHO_LEFT = tuple(0.0 if j == 0 else float(j) for j in range(_J_POLY))
# (x+1)^{-2} = sum_j (-1)^j (j+1) x^{-(j+2)}
_Q_RIGHT = tuple(float((-1) ** j * (j + 1)) for j in range(_J_POLY))
# (x-1)^{-2} = sum_j (j+1) x^{-(j+2)}
_Q_LEFT = tuple(float(j + 1) for j in range(_J_POLY))
# r(x) = 1/x - trigamma(x+1): asymptotic (Bernoulli) series
_R_RIGHT = (0.5, -1.0 / 6.0, 0.0, 1.0 / 30.0, 0.0, -1.0 / 42.0,
            0.0, 1.0 / 30.0, 0.0, -5.0 / 66.0)
# s(y) = trigamma(y) - 1/y
_S_LEFT = (0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0,
           0.0, -1.0 / 30.0, 0.0, 5.0 / 66.0)

# psi on x >= X is pi^-2 integral_x^inf (1 - cos 2 pi u) rho(u) du with
# rho = _RHO_RIGHT (on the left, psi(-x) with rho = _RHO_LEFT).  The
# term-by-term integral of rho gives P_j = rho_{j+1} / (j+2).  Integrating
# integral_x^inf e^{2 pi i u} u^{-k} du by parts M times gives
# -e^{2 pi i x} sum_{m < M} (k)_m (2 pi i)^{-(m+1)} x^{-(k+m)} plus a
# remainder of modulus at most (k)_M (2 pi)^-M x^{1-k-M} / (k+M-1), so
# A_{j+m} = rho_j (k)_m (2 pi i)^{-(m+1)} with k = j + 2.  Each term is
# taken to the last power of the basis, k + M = _J_POLY + 2.

def _psi_series(rho):
    P = tuple(rho[j + 1] / (j + 2) for j in range(len(rho) - 1))
    A = np.zeros(len(rho), dtype=complex)
    for j, r in enumerate(rho):
        term = r / (2j * math.pi)
        for i in range(j, len(rho)):
            A[i] += term
            term *= (i + 2) / (2j * math.pi)
    return P, A


def _cosine(envelope):
    P = np.asarray(envelope)
    return P, -P


# The one window [-X, X] of every quadrature, Filon sum and tail split.
# Beyond it the closed-form tails are exact up to series truncation:
# 45 * 64^-15 = 3.6e-26 for the polynomial envelopes,
# 0.26 * 64^-12 = 5.5e-23 for the Bernoulli series of B and
# 45 * 64^-14 + 1e-24 = 3.3e-24 for psi, all far below the 2e-13-relative
# E_n budget and the 1e-10 tolerance floor, so a wider window only adds
# integrand evaluations.
TAIL_CUTOFF = 64.0


def _poly_trunc(X):
    # remainder of the degree-_J_POLY polynomial-type envelopes
    return 3.0 * (_J_POLY + 1) * X ** (-(_J_POLY + 1))


def _bernoulli_trunc(X):
    # first omitted Bernoulli term of the r/s series: |B_12|/2730-ish * x^-13
    return 0.26 * X ** (-12)


def _psi_trunc(X):
    # The rho remainder integrated twice, plus the by-parts remainders
    # integrated over x >= X (|rho_j| = j on both sides).
    K = _J_POLY + 2
    parts = math.fsum(
        abs(r) * math.prod(range(j + 2, K)) * (2.0 * math.pi) ** (j + 2 - K)
        for j, r in enumerate(_RHO_RIGHT)
    )
    return X * _poly_trunc(X) + parts * X ** (2 - K) / ((K - 1) * (K - 2))


_PSI_RIGHT = _psi_series(_RHO_RIGHT)
_PSI_LEFT = _psi_series(_RHO_LEFT)

# kind: ((P, A) right, (P, A) left, divisor, truncation bound at X); g is
# -(1 - cos 2 pi x) rho / (2 pi^2) on the right and +(...) on the left.
_TAILS = {
    "g": (_cosine(-np.array(_RHO_RIGHT)), _cosine(_RHO_LEFT), 2.0 * np.pi**2,
          _poly_trunc),
    "H": (_cosine(_Q_RIGHT), _cosine(_Q_LEFT), 2.0 * np.pi**2, _poly_trunc),
    "psi": (_PSI_RIGHT, _PSI_LEFT, np.pi**2, _psi_trunc),
    "G_minus_heaviside": (_PSI_RIGHT, _PSI_LEFT, 2.0 * np.pi**2, _psi_trunc),
    "psi_beurling": (_cosine(_R_RIGHT), _cosine(_S_LEFT), np.pi**2,
                     _bernoulli_trunc),
}

TAIL_KINDS = tuple(_TAILS)


def _series_scale(coeffs, X):
    return math.fsum(abs(c) * X ** (-(j + 1)) for j, c in enumerate(coeffs))


def tail_transform(kind, X, t, side):
    """Closed-form tail integral_{|x| >= X, chosen side} f(x) e^{-2 pi i t x} dx.

    ``side`` is "right" for [X, inf) or "left" for (-inf, -X]; ``t = 0``
    gives the plain tail integral.  One route for every kind and frequency:
    :func:`extremal.quadrature.modulated_tail` on the kind's series, the
    left tail being the mirrored series at -t.  Returns
    ``(value, err_bound)`` with the bound covering series truncation (for
    psi, the by-parts remainder as well) and the E_n evaluation accuracy.
    Requires ``X >= TAIL_CUTOFF`` so the inverse-power envelopes have
    converged to the quoted truncation bound.
    An array ``t`` gives arrays of its shape for both; a scalar ``t`` gives
    a Python ``complex`` and ``float``.
    """
    if kind not in TAIL_KINDS:
        raise ValueError(f"unknown tail kind {kind!r}")
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if not X >= TAIL_CUTOFF:
        raise ValueError(f"tail cutoff must be >= {TAIL_CUTOFF}")
    X = float(X)
    t = np.asarray(t, dtype=float)
    right, left, div, trunc = _TAILS[kind]
    (P, A), t = (right, t) if side == "right" else (left, -t)
    val = modulated_tail(P, A, X, t) / div
    err = (trunc(X) + 2e-13 * (_series_scale(P, X) + _series_scale(A, X))) / div
    return val, (err if t.ndim == 0 else np.full(t.shape, err))


# ---------------------------------------------------------------------------
# Line integrals: the one place that splits an integral into the adaptive
# window and the closed-form tails.

_LINE_INTEGRANDS = {
    "g": kernel_g,
    "H": kernel_H,
    "psi": psi_closed,
    "G_minus_heaviside": g_minus_heaviside_closed,
}

# Starting panel width of the adaptive scheme.  At the default 0.5 the
# initial mesh of [-64, 64] already meets every admissible tol, so the cost
# would not follow tol; width 4 lets the refinement do that.
_PANEL_WIDTH = 4.0


def line_integral(kind, a, b, tol, max_evals=10_000_000):
    """integral_a^b of g, H, psi or G - x_+^0, for -inf <= a < b <= inf.

    The part of [a, b] inside [-T, T], T = TAIL_CUTOFF, is integrated
    adaptively to ``tol / 2``; each part outside is the closed-form
    difference tail(X_near) - tail(X_far), with the far term dropped at an
    infinite end.  Returns a :class:`QuadResult` whose estimate sums the
    quadrature and tail bounds.  Raises :class:`ToleranceNotMetError`,
    carrying the value, the estimate and the integrand evaluations, when
    the evaluation budget runs out or the estimate exceeds ``tol``.
    """
    if kind not in _LINE_INTEGRANDS:
        raise ValueError(
            f"unknown kernel kind {kind!r}; "
            f"expected one of {tuple(_LINE_INTEGRANDS)}"
        )
    T = TAIL_CUTOFF
    lo, hi = max(a, -T), min(b, T)
    exhausted = None
    quad = QuadResult(0.0, 0.0, 0)
    if lo < hi:
        try:
            quad = integrate_adaptive(
                _LINE_INTEGRANDS[kind], lo, hi, 0.5 * tol, max_evals,
                initial_panel_width=_PANEL_WIDTH,
            )
        except ToleranceNotMetError as exc:
            quad = exhausted = exc
    value, est = quad.value, quad.err_estimate
    # Each side as a range of |x|: [near, far] with near >= T.
    for side, near, far in (("right", max(a, T), b), ("left", max(-b, T), -a)):
        if near < far:
            tail, err = tail_transform(kind, near, 0.0, side)
            if far < math.inf:
                far_tail, far_err = tail_transform(kind, far, 0.0, side)
                tail, err = tail - far_tail, err + far_err
            value += tail.real
            est += err
    if exhausted is not None or est > tol:
        reason = "quadrature budget exhausted" if exhausted else "tolerance not met"
        raise ToleranceNotMetError(
            f"{reason}: achieved {est:g}, requested {tol:g}",
            value, est, quad.evaluations,
        ) from exhausted
    return QuadResult(value, est, quad.evaluations)


# ---------------------------------------------------------------------------
# Scalar evaluators with tolerance contracts.

def _check_x(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return x


def eval_G(x, tol=1e-8, max_evals=10_000_000):
    """G(x) = integral_{-inf}^x g to absolute accuracy ``tol``.

    The auditable quadrature route through :func:`line_integral`; the
    Cin/Si antiderivative :func:`G_closed` is the other route, and the two
    agree to ~1e-13.  Raises :class:`ToleranceNotMetError` (carrying the
    achieved estimate) if the budget runs out before the tolerance is met.
    """
    return line_integral(
        "g", -math.inf, _check_x(x), check_tol(tol, _TOL_MIN, _TOL_MAX),
        max_evals,
    ).value


def eval_majorant(kind, x, tol=1e-8):
    """Evaluate one of {G, M, BeurlingB, MinorantOfSgn} at scalar x."""
    x = _check_x(x)
    tol = check_tol(tol, _TOL_MIN, _TOL_MAX)
    if kind == "G":
        return eval_G(x, tol)
    if kind == "M":
        # G to tol/2 may lie below the least tol eval_G accepts.
        return 2.0 * line_integral("g", -math.inf, x, 0.5 * tol).value - 1.0
    if kind == "BeurlingB":
        return beurling_b(x)
    if kind == "MinorantOfSgn":
        return -eval_majorant("M", -x, tol)
    raise ValueError(
        f"unknown majorant kind {kind!r}; expected G, M, BeurlingB or "
        "MinorantOfSgn"
    )


def eval_deficit(which, x, tol=1e-8):
    """Deficit psi(x) = M(x) - sgn(x) or phi(x) = psi(-x) at scalar x."""
    x = _check_x(x)
    if which == "psi":
        return eval_majorant("M", x, tol) - sgn(x)
    if which == "phi":
        return eval_deficit("psi", -x, tol)
    raise ValueError(f"unknown deficit {which!r}; expected 'psi' or 'phi'")
