"""The extremal monotone majorant of sgn and its relatives.

Core objects:

* the kernel triple ``g``, ``H``, ``h`` (``H = -u g``, ``g = -u h^2``) with
  all removable singularities handled by exact algebraic rearrangement,
* the antiderivative ``G`` (closed form and auditable quadrature route),
* the monotone majorant ``M = 2G - 1``, the interpolating majorant ``B``
  built from trigamma, the minorant ``-M(-x)``, and the deficit functions
  ``psi = M - sgn`` and ``phi(x) = psi(-x)``,
* closed-form tail machinery: every kernel here decays like
  ``(1 - cos 2 pi x) * (inverse-power envelope)``, so integrals and Fourier
  transforms of tails reduce to :func:`extremal.quadrature.cosine_tail`.

Conventions: ``sgn(0) = 0`` and the upper Heaviside ``x_+^0(0) = 1``.

Scalar entry points (``eval_G``, ``eval_majorant``, ``eval_deficit``)
validate tolerances and report honest error estimates; the vectorized
closed forms (``G_closed`` etc.) are the bulk path used for grids and
Fourier node tables and are tested against the quadrature route.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import sici

from .quadrature import (
    ToleranceNotMetError,
    BudgetExceededError,
    cosine_tail,
    integrate_adaptive,
)
from .specfun import sinc, trigamma

__all__ = [
    "sgn",
    "heaviside_upper",
    "eval_kernel",
    "kernel_g",
    "kernel_H",
    "kernel_h",
    "G_closed",
    "M_closed",
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
    "ToleranceNotMetError",
]

_EULER_GAMMA = 0.5772156649015329

_TOL_MIN = 1e-12
_TOL_MAX = 1e-4

# Cutoff for the quadrature route of G; tails beyond are closed-form channels.
_G_CUTOFF = 64.0


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


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

def _cin(z):
    """Entire cosine integral Cin(z) = gamma + log|z| - Ci(|z|), even in z."""
    arr, scalar = _as_array(z)
    az = np.abs(arr)
    small = az < 0.25
    azs = np.where(small, 1.0, az)  # placate log/Ci on the small branch
    ci = sici(azs)[1]
    direct = _EULER_GAMMA + np.log(azs) - ci
    z2 = arr * arr
    series = (z2 / 4.0) * (
        1.0 - (z2 / 24.0) * (1.0 - (z2 / 45.0) * (1.0 - 3.0 * z2 / 224.0))
    )
    out = np.where(small, series, direct)
    return float(out) if scalar else out


def _si(z):
    """Sine integral Si(z), odd in z."""
    arr, scalar = _as_array(z)
    out = np.sign(arr) * sici(np.abs(arr))[0]
    return float(out) if scalar else out


def G_closed(x):
    """Vectorized closed form of G (accurate to ~1e-14 absolute)."""
    arr, scalar = _as_array(x)
    x1 = arr + 1.0
    tp = 2.0 * np.pi
    out = (
        0.5
        - (_cin(tp * arr) - _cin(tp * x1)) / (2.0 * np.pi**2)
        - x1 * sinc(x1) ** 2
        + _si(tp * x1) / np.pi
    )
    return float(out) if scalar else out


def M_closed(x):
    """Vectorized closed form of the monotone majorant M = 2G - 1."""
    arr, scalar = _as_array(x)
    out = 2.0 * G_closed(arr) - 1.0
    return float(out) if scalar else out


def psi_closed(x):
    """Deficit psi(x) = M(x) - sgn(x) (closed form)."""
    arr, scalar = _as_array(x)
    out = M_closed(arr) - np.sign(arr)
    return float(out) if scalar else out


def phi_closed(x):
    """Reflected deficit phi(x) = psi(-x) = sgn(x) + M(-x) (closed form)."""
    arr, scalar = _as_array(x)
    out = psi_closed(-arr)
    return float(out) if scalar else out


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
    if xp.size:
        val[pos] = 1.0 - coef[pos] * (trigamma(xp + 1.0) - 1.0 / xp)
    xn = xm[~pos]
    if xn.size:
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
# Tail envelopes.  For x ≥ X (X well above 1) each kernel equals
# (1 - cos 2 pi x) * (series in 1/x) * prefactor, and similarly at -x for the
# left tail; the series below are in the basis x^{-(j+2)}, exactly as
# consumed by quadrature.cosine_tail.

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

TAIL_KINDS = ("g", "H", "psi", "G_minus_heaviside", "psi_beurling")

_TAIL_MIN_X = 16.0


def _poly_trunc(X):
    # remainder of the degree-_J_POLY polynomial-type envelopes
    return 3.0 * (_J_POLY + 1) * X ** (-(_J_POLY + 1))


def _bernoulli_trunc(X):
    # first omitted Bernoulli term of the r/s series: |B_12|/2730-ish * x^-13
    return 0.26 * X ** (-12)


def _series_scale(coeffs, X):
    return math.fsum(abs(c) * X ** (-(j + 1)) for j, c in enumerate(coeffs))


def _cosine_tail_err(coeffs, X, bernoulli=False):
    trunc = _bernoulli_trunc(X) if bernoulli else _poly_trunc(X)
    return trunc + 2e-13 * _series_scale(coeffs, X)


def tail_transform(kind, X, t, side):
    """Closed-form tail integral_{|x| >= X, chosen side} f(x) e^{-2 pi i t x} dx.

    ``side`` is "right" for [X, inf) or "left" for (-inf, -X]; ``t = 0``
    gives the plain tail integral.  Returns ``(value, err_bound)`` with the
    bound covering series truncation and the E_n evaluation accuracy.
    Requires ``X >= 16`` so the inverse-power envelopes have converged.
    An array ``t`` gives arrays of its shape for both; a scalar ``t`` gives
    a Python ``complex`` and ``float``.
    """
    if kind not in TAIL_KINDS:
        raise ValueError(f"unknown tail kind {kind!r}")
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if not X >= _TAIL_MIN_X:
        raise ValueError(f"tail cutoff must be >= {_TAIL_MIN_X}")
    arr = np.asarray(t, dtype=float)
    val, err = _tail(kind, float(X), arr.ravel(), side)
    if arr.ndim == 0:
        return complex(val[0]), float(err[0])
    return val.reshape(arr.shape), err.reshape(arr.shape)


def _tail(kind, X, t, side):
    """tail_transform on a 1-d frequency array; returns two 1-d arrays."""
    pi2 = np.pi**2

    def channel(right, left, div, sign=1.0, bernoulli=False):
        if side == "right":
            val = sign * cosine_tail(right, X, t) / div
            err = _cosine_tail_err(right, X, bernoulli) / div
        else:
            val = cosine_tail(left, X, -t) / div
            err = _cosine_tail_err(left, X, bernoulli) / div
        return val, np.full(t.shape, err)

    if kind == "g":
        return channel(_RHO_RIGHT, _RHO_LEFT, 2.0 * pi2, sign=-1.0)
    if kind == "H":
        return channel(_Q_RIGHT, _Q_LEFT, 2.0 * pi2)
    if kind == "psi_beurling":
        return channel(_R_RIGHT, _S_LEFT, pi2, bernoulli=True)
    if kind == "G_minus_heaviside":
        val, err = _tail("psi", X, t, side)
        return 0.5 * val, 0.5 * err

    # psi.
    val = np.empty(t.shape, dtype=complex)
    err = np.empty(t.shape)
    low = np.abs(t) < 1e-12
    if np.any(low):
        # Fubini: integral_X^inf psi = 2 integral_X^inf (u - X)(-g)(u) du,
        # and u * rho(u) collapses to (u+-1)^{-2}; same at the left tail.
        q, rho = (_Q_RIGHT, _RHO_RIGHT) if side == "right" else (_Q_LEFT, _RHO_LEFT)
        val[low] = (cosine_tail(q, X, 0.0) - X * cosine_tail(rho, X, 0.0)) / pi2
        e = np.full(np.count_nonzero(low), (
            _cosine_tail_err(q, X) + X * _cosine_tail_err(rho, X)
        ) / pi2)
        tl = np.abs(t[low])
        moving = tl != 0.0
        if np.any(moving):
            # phase-variation bound for the neglected e^{-2 pi i t x} factor
            tm = tl[moving]
            xstar = 1.0 / (2.0 * np.pi * tm)
            e[moving] += (tm / np.pi) * np.maximum(
                0.0, np.log(np.maximum(xstar / X, 1.0))
            )
            e[moving] += 1.0 / (pi2 * np.maximum(X, xstar))
        err[low] = e

    high = ~low
    if np.any(high):
        # Integration by parts (psi' = 2g away from 0):
        #   integral_X^inf psi e^{-2 pi i t x} dx
        #     = psi(X) e^{-2 pi i X t}/(2 pi i t) + (pi i t)^{-1} * g-tail.
        th = t[high]
        denom = 2j * np.pi * th
        gval, gerr = _tail("g", X, th, side)
        if side == "right":
            edge = psi_closed(X)
            boundary = edge * np.exp(-denom * X) / denom
        else:
            edge = psi_closed(-X)
            boundary = -edge * np.exp(denom * X) / denom
        val[high] = boundary + 2.0 * gval / denom
        err[high] = (1e-13 * edge + 2.0 * gerr) / np.abs(denom)
    return val, err


# ---------------------------------------------------------------------------
# Scalar evaluators with tolerance contracts.

def _check_tol(tol):
    tol = float(tol)
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}]")
    return tol


def _check_x(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return x


def eval_G(x, tol=1e-8, strategy="quadrature", max_evals=10_000_000):
    """G(x) to absolute accuracy ``tol``.

    ``strategy="quadrature"`` (default) integrates the kernel adaptively on
    the finite window and adds closed-form channel tails, keeping a fully
    auditable error budget; ``strategy="closed_form"`` uses the Cin/Si
    antiderivative directly.  Both routes agree to ~1e-13 and are tested
    against each other.  Raises :class:`ToleranceNotMetError` (carrying the
    achieved estimate) if the budget runs out before the tolerance is met.
    """
    x = _check_x(x)
    tol = _check_tol(tol)

    if strategy == "closed_form":
        return G_closed(x)
    if strategy != "quadrature":
        raise ValueError("strategy must be 'quadrature' or 'closed_form'")

    T = _G_CUTOFF
    if x <= -T:
        val, err = tail_transform("g", -x, 0.0, "left")
        # integral_{-inf}^{x} g = left tail beyond |x|
        value, est = val.real, err
        if est > tol:
            raise ToleranceNotMetError(
                f"achieved {est:g} > requested {tol:g}", value, est
            )
        return value

    left_val, left_err = tail_transform("g", T, 0.0, "left")
    upper = min(x, T)
    try:
        quad = integrate_adaptive(
            kernel_g, -T, upper, tol=0.5 * tol, max_evals=max_evals
        )
    except BudgetExceededError as exc:
        raise ToleranceNotMetError(
            f"quadrature budget exhausted: achieved {exc.err_estimate:g} "
            f"> requested {tol:g}",
            left_val.real + exc.value,
            left_err + exc.err_estimate,
        ) from exc
    value = left_val.real + quad.value
    est = left_err + quad.err_estimate

    if x > T:
        near, err_near = tail_transform("g", T, 0.0, "right")
        far, err_far = tail_transform("g", x, 0.0, "right")
        value += near.real - far.real
        est += err_near + err_far

    if est > tol:
        raise ToleranceNotMetError(
            f"achieved {est:g} > requested {tol:g}", value, est
        )
    return value


def eval_majorant(kind, x, tol=1e-8, strategy="quadrature"):
    """Evaluate one of {G, M, BeurlingB, MinorantOfSgn} at scalar x."""
    x = _check_x(x)
    tol = _check_tol(tol)
    if kind == "G":
        return eval_G(x, tol, strategy=strategy)
    if kind == "M":
        return 2.0 * eval_G(x, 0.5 * tol, strategy=strategy) - 1.0
    if kind == "BeurlingB":
        return beurling_b(x)
    if kind == "MinorantOfSgn":
        return -eval_majorant("M", -x, tol, strategy=strategy)
    raise ValueError(
        f"unknown majorant kind {kind!r}; expected G, M, BeurlingB or "
        "MinorantOfSgn"
    )


def eval_deficit(which, x, tol=1e-8, strategy="quadrature"):
    """Deficit psi(x) = M(x) - sgn(x) or phi(x) = psi(-x) at scalar x."""
    x = _check_x(x)
    if which == "psi":
        return eval_majorant("M", x, tol, strategy=strategy) - sgn(x)
    if which == "phi":
        return eval_deficit("psi", -x, tol, strategy=strategy)
    raise ValueError(f"unknown deficit {which!r}; expected 'psi' or 'phi'")
