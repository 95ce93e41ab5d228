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
  reduce to E_n channels summed by :func:`tail_transform`,
* :func:`line_integral`, the one routine that integrates g, H, psi or
  ``B - sgn`` over any interval: adaptive quadrature on the window
  ``[-TAIL_CUTOFF, TAIL_CUTOFF]`` plus closed-form tails beyond it, with a
  checked error estimate.

Conventions: ``sgn(0) = 0`` and the upper Heaviside ``x_+^0(0) = 1``.
Since M = 2G - 1, the Heaviside deficit ``G - x_+^0`` is psi / 2 off the
origin, bit for bit, so its integrals are those of psi halved.

The vectorized closed forms (``G_closed`` etc.) are the one route to G, M,
psi and phi used for grids and Fourier node tables; the tests check
``G_closed`` against mpmath and against ``line_integral("g", -inf, x)``.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .quadrature import (
    QuadResult,
    ToleranceNotMetError,
    check_tol,
    integrate_adaptive,
)
from .specfun import (
    _BERNOULLI, _elementwise, _finite, expint_en, si_cin, sinc, trigamma,
)

__all__ = [
    "kernel_g",
    "kernel_H",
    "kernel_h",
    "G_closed",
    "M_closed",
    "closed_columns",
    "beurling_b",
    "psi_closed",
    "psi_beurling_closed",
    "tail_transform",
    "line_integral",
    "TAIL_CUTOFF",
    "ToleranceNotMetError",
]


# ---------------------------------------------------------------------------
# Kernels.  The naive forms have removable singularities at u = 0 and u = -1;
# writing sin(pi u) = -sin(pi (u+1)) swaps the problem point between the two
# factorizations, so branching at u = -1/2 keeps every evaluation exact.

@_elementwise
def kernel_g(u):
    """g(u) = -sin^2(pi u) / (pi^2 u (u+1)^2), singularities removed.

    Nonnegative on (-inf, 0), nonpositive on (0, inf); g(-1) = 1, g(0) = 0.
    """
    right = u >= -0.5
    out = np.empty_like(u)
    a = u[right]
    out[right] = -a * sinc(a) ** 2 / (a + 1.0) ** 2
    b = u[~right]
    out[~right] = -sinc(b + 1.0) ** 2 / b
    return out


@_elementwise
def kernel_H(u):
    """H(u) = -u g(u) = sinc^2(u+1); the Fejer-type profile peaking at -1."""
    return sinc(u + 1.0) ** 2


@_elementwise
def kernel_h(u):
    """h(u) = sinc(u)/(u+1), with h(-1) = +1 (the sign is a free choice)."""
    right = u >= -0.5
    out = np.empty_like(u)
    a = u[right]
    out[right] = sinc(a) / (a + 1.0)
    b = u[~right]
    out[~right] = -sinc(b + 1.0) / b
    return out


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

@_elementwise
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
    rows = [x, x + 1.0, 1.0 - x] if reflect else [x, x + 1.0]
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
    return out if reflect else out[0]


def _majorant(G):
    """M = 2G - 1 from values of G."""
    return 2.0 * G - 1.0


def _deficit(x, M):
    """psi = M - sgn at the points x from the values M(x)."""
    return M - np.sign(x)


@_elementwise
def M_closed(x):
    """Vectorized closed form of the monotone majorant M = 2G - 1."""
    return _majorant(G_closed(x))


@_elementwise
def psi_closed(x):
    """Deficit psi(x) = M(x) - sgn(x) (closed form)."""
    return _deficit(x, M_closed(x))


@_elementwise
def closed_columns(x):
    """G, M, B, psi and phi at the points ``x``: the columns of
    ``extremal eval``, bit for bit ``G_closed(x)``, ``M_closed(x)``,
    ``beurling_b(x)``, ``psi_closed(x)`` and phi(x) = ``psi_closed(-x)``,
    with G(x) and G(-x) from one ``G_closed(x, reflect=True)`` call.
    """
    G, G_reflected = G_closed(x, reflect=True)
    M = _majorant(G)
    phi = _deficit(-x, _majorant(G_reflected))
    return G, M, beurling_b(x), _deficit(x, M), phi


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

@_elementwise
def beurling_b(x):
    """Vectorized interpolating majorant B of sgn (B(n) = sgn(n), B(0) = 1)."""
    n = np.round(x)
    r = x - n
    out = np.empty_like(x)

    exact = r == 0.0
    out[exact] = np.where(n[exact] >= 0.0, 1.0, -1.0)

    # Taylor branch about the origin, B(x) = 1 + 2x + O(x^2): keeps tiny
    # negative arguments off the reflection formula, where 1/x^2-sized
    # trigamma values overflow against an underflowing sin^2 prefactor.
    tiny = ~exact & (np.abs(x) < 1e-12)
    out[tiny] = 1.0 + 2.0 * x[tiny]

    rest = ~exact & ~tiny
    xm = x[rest]
    s2 = np.sin(np.pi * r[rest]) ** 2
    coef = 2.0 * s2 / np.pi**2
    val = np.empty_like(xm)
    pos = xm > 0.0
    xp = xm[pos]
    val[pos] = 1.0 - coef[pos] * (trigamma(xp + 1.0) - 1.0 / xp)
    xn = xm[~pos]
    val[~pos] = -1.0 + coef[~pos] * (trigamma(-xn) + 1.0 / xn)
    out[rest] = val
    return out


@_elementwise
def psi_beurling_closed(x):
    """Deficit of the interpolating majorant: B(x) - sgn(x)."""
    return beurling_b(x) - np.sign(x)


# ---------------------------------------------------------------------------
# Tail series.  For x >= X (X well above 1) each kind is
# [P(x) + Re(e^{2 pi i x} A(x))] / divisor, and likewise at -x for the left
# tail, with P and A series in the basis x^{-(j+2)}, exactly as consumed by
# tail_transform.  The kernels are (1 - cos 2 pi x) * envelope, that is
# P = envelope and A = -envelope.

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
# s(y) = trigamma(y) - 1/y = 1/(2 y^2) + sum_k B_2k y^{-(2k+1)} and
# r(x) = 1/x - trigamma(x+1), the same with -B_2k, both to B_10.
_S_LEFT = (0.5,) + tuple(v for p, q in _BERNOULLI[:5] for v in (p / q, 0.0))[:-1]
_R_RIGHT = (0.5,) + tuple(v for p, q in _BERNOULLI[:5] for v in (-p / q, 0.0))[:-1]


def _channels(P, A):
    """The series (P, A) of one side, packed for :func:`tail_transform`.

    Since Re(e^{2 pi i x} A) = (e^{2 pi i x} A + e^{-2 pi i x} conj(A)) / 2,
    a tail is the channel of P at t plus half-weight channels of A at t - 1
    and of conj(A) at t + 1: the columns of the returned coefficient
    matrix.
    """
    coeffs = np.zeros((max(len(P), len(A)), 3), dtype=complex)
    coeffs[: len(P), 0] = P
    coeffs[: len(A), 1] = 0.5 * np.asarray(A)
    coeffs[:, 2] = np.conj(coeffs[:, 1])
    return coeffs


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
    return _channels(P, A)


def _cosine(envelope):
    P = np.asarray(envelope)
    return _channels(P, -P)


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


# Every kind that line_integral and tail_transform take (numeric_ft takes
# g, psi and psi_beurling), in one table: its closed form, its right and
# left tail channels, the divisor of its tail series and their truncation
# bound at X.  g is -(1 - cos 2 pi x) rho / (2 pi^2) on the right and
# +(...) on the left.
_Kind = namedtuple("_Kind", "closed right left divisor trunc")
_KINDS = {
    "g": _Kind(kernel_g, _cosine(-np.array(_RHO_RIGHT)), _cosine(_RHO_LEFT),
               2.0 * np.pi**2, _poly_trunc),
    "H": _Kind(kernel_H, _cosine(_Q_RIGHT), _cosine(_Q_LEFT), 2.0 * np.pi**2,
               _poly_trunc),
    "psi": _Kind(psi_closed, _psi_series(_RHO_RIGHT), _psi_series(_RHO_LEFT),
                 np.pi**2, _psi_trunc),
    "psi_beurling": _Kind(psi_beurling_closed, _cosine(_R_RIGHT),
                          _cosine(_S_LEFT), np.pi**2, _bernoulli_trunc),
}


def _kind(kind):
    """The table entry of ``kind``, or ValueError naming the known kinds."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown kind {kind!r}; expected one of {tuple(_KINDS)}"
        ) from None


def _series_scale(coeffs, X):
    return math.fsum(abs(c) * X ** (-(j + 1)) for j, c in enumerate(coeffs))


def tail_transform(kind, X, t, side):
    """Closed-form tail integral_{|x| >= X, chosen side} f(x) e^{-2 pi i t x} dx.

    ``side`` is "right" for [X, inf) or "left" for (-inf, -X]; ``t = 0``
    gives the plain tail integral.  One route for every kind and frequency:
    each power x^{-(j+2)} of the kind's series contributes
    c_j X^{-(j+1)} E_{j+2}(2 pi i tau X) at the channel frequencies tau =
    t, t - 1 and t + 1 (see :func:`_channels`), all orders in one
    ``expint_en`` call; the left tail is the mirrored series at -t.  Returns
    ``(value, err_bound)`` with the bound covering series truncation (for
    psi, the by-parts remainder as well) and the E_n evaluation accuracy.
    Requires a finite ``X >= TAIL_CUTOFF`` so the inverse-power envelopes
    have converged to the quoted truncation bound.
    An array ``t`` gives a value array of its shape, a scalar ``t`` a Python
    ``complex``; the bound does not depend on ``t`` and is one ``float``.
    """
    _, right, left, div, trunc = _kind(kind)
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if not TAIL_CUTOFF <= X < math.inf:
        raise ValueError(f"tail cutoff must be finite and >= {TAIL_CUTOFF}")
    X = float(X)
    t = _finite(np.asarray(t, dtype=float), "t")
    coeffs, t = (right, t) if side == "right" else (left, -t)
    tau = np.stack([t, t - 1.0, t + 1.0], axis=-1)
    orders = np.arange(2, len(coeffs) + 2).reshape((-1,) + (1,) * tau.ndim)
    total = np.zeros(tau.shape, dtype=complex)
    Xp = 1.0 / X
    for c, e in zip(coeffs, expint_en(orders, 2j * math.pi * tau * X)):
        total = total + (c * Xp) * e
        Xp /= X
    val = total[..., 0] + total[..., 1] + total[..., 2]
    val = (complex(val) if t.ndim == 0 else val) / div
    P, A = coeffs[:, 0], 2.0 * coeffs[:, 1]
    err = (trunc(X) + 2e-13 * (_series_scale(P, X) + _series_scale(A, X))) / div
    return val, err


# ---------------------------------------------------------------------------
# Line integrals: the one place that splits an integral into the adaptive
# window and the closed-form tails.

def line_integral(kind, a, b, tol):
    """integral_a^b of g, H, psi or B - sgn, -inf <= a < b <= inf.

    The part of [a, b] inside [-T, T], T = TAIL_CUTOFF, is integrated
    adaptively to ``tol / 2``; each part outside is the closed-form
    difference tail(X_near) - tail(X_far), with the far term dropped at an
    infinite end.  Returns a :class:`QuadResult` whose estimate sums the
    quadrature and tail bounds.  Raises :class:`ToleranceNotMetError`,
    carrying the value, the estimate and the integrand evaluations, when
    the quadrature's evaluation budget ``quadrature._MAX_EVALS`` runs out
    or the estimate exceeds ``tol``, and
    ``ValueError`` for a ``tol`` that is NaN or below the least subnormal.
    """
    tol = check_tol(tol, math.ulp(0.0))
    closed = _kind(kind).closed
    if not a < b:
        raise ValueError(f"need a < b, got a = {a!r}, b = {b!r}")
    T = TAIL_CUTOFF
    lo, hi = max(a, -T), min(b, T)
    exhausted = None
    quad = QuadResult(0.0, 0.0, 0)
    if lo < hi:
        try:
            quad = integrate_adaptive(closed, lo, hi, 0.5 * tol)
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
