"""Fourier transforms of the kernel and the deficit functions.

Convention: f_hat(t) = integral f(x) exp(-2 pi i x t) dx.

Closed forms: ``g_hat`` (piecewise elementary, supported on [-1, 1]),
``psi_hat`` = (g_hat - 1)/(pi i t) with a Taylor branch near 0, and the
scaling law ``psi_hat_scaled``.  The numerical route ``numeric_ft`` is a
Filon scheme: interpolate the (non-oscillatory) kernel by Chebyshev
polynomials on fixed panels of width 1/4 over [-512, 512], integrate each
polynomial against exp(-2 pi i x t) exactly via monomial moments, and add
the closed-form channel tails from :mod:`extremal.majorants`.  The kernel
interpolation is built once per kind; ``numeric_ft`` takes an array of
frequencies and evaluates them together, in fixed-size blocks, so the
cost is one matrix product per block rather than one Python call per
frequency.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .majorants import (
    kernel_g,
    psi_beurling_closed,
    psi_closed,
    kernel_H,
    tail_transform,
)
from .quadrature import BudgetExceededError

__all__ = [
    "g_hat",
    "psi_hat",
    "psi_hat_scaled",
    "numeric_ft",
    "band_limit_check",
]

_TWO_PI = 2.0 * np.pi


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, (arr.ndim == 0)


# ---------------------------------------------------------------------------
# Closed forms.

def g_hat(t):
    """Closed-form transform of the kernel g; supported exactly on [-1, 1].

    On [-1, 0]:  (1+t) e^{2 pi i t} + (i/2pi)(e^{2 pi i t} - 1)
    On [0, 1]:   (1-t) e^{2 pi i t} - (i/2pi)(e^{2 pi i t} - 1)

    These are the elementary antiderivatives of 2 pi i e^{2 pi i s}(1-|s|),
    anchored at g_hat(-1) = 0; the derivative identity is covered by tests.
    """
    arr, scalar = _as_array(t)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    e = np.exp(2j * np.pi * arr)
    corr = (0.5j / np.pi) * (e - 1.0)
    left = (1.0 + arr) * e + corr
    right = (1.0 - arr) * e - corr
    out = np.where(arr < 0.0, left, right)
    out = np.where(np.abs(arr) >= 1.0, 0.0, out)
    return complex(out) if scalar else out


def psi_hat(t):
    """Closed-form transform of the deficit psi = M - sgn.

    psi_hat(t) = (g_hat(t) - 1)/(pi i t) for t != 0, psi_hat(0) = 2; equals
    -1/(pi i t) exactly on |t| >= 1 (band identity).  |t| < 1e-5 uses the
    second-order Taylor branch to dodge the 0/0 cancellation.
    """
    arr, scalar = _as_array(t)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    at = np.abs(arr)
    safe = np.where(arr == 0.0, 1.0, arr)

    band = 1j / (np.pi * safe)
    with np.errstate(invalid="ignore"):
        generic = (g_hat(np.clip(arr, -1.0, 1.0)) - 1.0) / (1j * np.pi * safe)
    taylor = (
        2.0
        - at
        + 2j * np.pi * arr
        - (4.0 * np.pi**2 / 3.0) * arr * arr
        - (4j * np.pi / 3.0) * arr * at
    )

    out = np.where(at < 1e-5, taylor, np.where(at >= 1.0, band, generic))
    out = np.where(arr == 0.0, 2.0 + 0.0j, out)
    return complex(out) if scalar else out


def psi_hat_scaled(delta, t):
    """Transform of the delta-rescaled deficit: delta^{-1} psi_hat(t/delta)."""
    delta = float(delta)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError("delta must be a positive finite real")
    arr, scalar = _as_array(t)
    out = psi_hat(arr / delta) / delta
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# Filon engine.

_FT_CUTOFF = 512.0
_FT_PANEL = 0.25
_FT_DEGREE = 10  # Chebyshev interpolation degree per panel

_FT_KERNELS = {
    "g": kernel_g,
    "psi": psi_closed,
    "psi_beurling": psi_beurling_closed,
    # H participates in internal consistency tests only.
    "H": kernel_H,
}

_PUBLIC_FT_KINDS = ("g", "psi", "psi_beurling")


def _chebyshev_setup():
    npts = _FT_DEGREE + 1
    k = np.arange(npts)
    theta = (2.0 * k + 1.0) * np.pi / (2.0 * npts)
    nodes = np.cos(theta)
    # a_j = (2/n) sum_k f(x_k) cos(j theta_k), halved for j = 0
    V = (2.0 / npts) * np.cos(np.outer(np.arange(npts), theta))
    V[0] *= 0.5
    # Chebyshev -> monomial basis change
    C2P = np.zeros((npts, npts))
    for j in range(npts):
        unit = np.zeros(npts)
        unit[j] = 1.0
        C2P[: j + 1, j] = _cheb.cheb2poly(unit)[: j + 1]
    return nodes, V, C2P


_CHEB_NODES, _CHEB_V, _CHEB_C2P = _chebyshev_setup()

_EDGES = np.arange(-_FT_CUTOFF, _FT_CUTOFF + 0.5 * _FT_PANEL, _FT_PANEL)
_CENTERS = 0.5 * (_EDGES[:-1] + _EDGES[1:])

# Panel phases factor through groups of _FT_GROUP neighbours: with group
# offsets C_j = j * _FT_GROUP * h and in-group centers s_b,
#   exp(-2 pi i (C_j + s_b) t) = exp(-2 pi i C_j t) * exp(-2 pi i s_b t),
# so a frequency needs about 2 * _FT_GROUP exponentials instead of one per
# panel.  Group j = 0 straddles the origin (C_0 = 0), so the panels that
# carry most of each kernel keep phase arguments as small as the unfactored
# sum; half a group of empty panels pads each end of [-T, T].
_FT_GROUP = 64
_N_GROUPS = _CENTERS.size // _FT_GROUP + 1
_GROUP_OFFSETS = _FT_GROUP * _FT_PANEL * (np.arange(_N_GROUPS) - _N_GROUPS // 2)
_GROUP_CENTERS = _FT_PANEL * (np.arange(_FT_GROUP) - 0.5 * (_FT_GROUP - 1))
_PAD = _FT_GROUP // 2
# Frequencies per block: bounds the working set at ~1.5 MB for any input size.
_FT_BLOCK = 128

_panel_cache: dict = {}


def _panel_data(kind):
    """Cached per-panel monomial coefficients and interpolation-error bound.

    The coefficients come grouped for the factored phase sum: row j holds
    the (in-group panel b, degree l) coefficients of group j, flattened.
    """
    cached = _panel_cache.get(kind)
    if cached is not None:
        return cached
    f = _FT_KERNELS[kind]
    half = 0.5 * _FT_PANEL
    xs = _CENTERS[:, None] + half * _CHEB_NODES[None, :]
    vals = f(xs.ravel()).reshape(xs.shape)
    cheb_coeffs = vals @ _CHEB_V.T
    mono = cheb_coeffs @ _CHEB_C2P.T
    # Interpolation error per panel ~ size of the trailing coefficients;
    # integrating |T_j(s)| against any unimodular phase is at most 2*(h/2).
    est = 1.5 * _FT_PANEL * float(
        np.sum(np.abs(cheb_coeffs[:, -2]) + np.abs(cheb_coeffs[:, -1]))
    )
    n_evals = xs.size
    padded = np.zeros((_N_GROUPS * _FT_GROUP, _FT_DEGREE + 1))
    padded[_PAD : _PAD + _CENTERS.size] = mono
    grouped = padded.reshape(_N_GROUPS, -1)
    _panel_cache[kind] = (grouped, est, n_evals)
    return _panel_cache[kind]


def _moments(omega):
    """m_l(omega) = integral_{-1}^{1} s^l exp(-i omega s) ds, l = 0.._FT_DEGREE.

    ``omega`` is 1-d; the result has shape (_FT_DEGREE + 1, omega.size).
    """
    m = np.empty((_FT_DEGREE + 1, omega.size), dtype=complex)
    small = np.abs(omega) <= 8.0
    if np.any(small):
        # Taylor series in omega, term r contributes to parity-matching l;
        # each entry stops once its terms drop below 1e-18 (after r = 4).
        w = omega[small]
        term = np.ones(w.shape, dtype=complex)
        total = np.zeros((_FT_DEGREE + 1, w.size), dtype=complex)
        r = 0
        while True:
            for l in range(r % 2, _FT_DEGREE + 1, 2):
                total[l] += term * (2.0 / (l + r + 1))
            r += 1
            term = term * (-1j * w / r)
            if r > 4:
                term[np.abs(term) < 1e-18] = 0.0
                if not np.any(term):
                    break
        m[:, small] = total
    if not np.all(small):
        w = omega[~small]
        em = np.exp(-1j * w)
        ep = np.exp(1j * w)
        big = np.empty((_FT_DEGREE + 1, w.size), dtype=complex)
        big[0] = 2.0 * np.sin(w) / w
        for l in range(1, _FT_DEGREE + 1):
            sign = -1.0 if l % 2 else 1.0
            big[l] = (em - sign * ep) / (-1j * w) + (l / (1j * w)) * big[l - 1]
        m[:, ~small] = big
    return m


def _filon_block(mono, t):
    """Central Filon sum for a 1-d block of at most _FT_BLOCK frequencies."""
    half = 0.5 * _FT_PANEL
    m = _moments(_TWO_PI * t * half)
    inner = np.exp(-2j * np.pi * _GROUP_CENTERS[:, None] * t)
    outer = np.exp(-2j * np.pi * _GROUP_OFFSETS[:, None] * t)
    # w[(b, l), f] = in-group phase b times moment l; the sum over (b, l) is
    # one real matrix product on the interleaved real/imaginary parts.
    w = (inner[:, None, :] * m[None, :, :]).reshape(-1, t.size)
    per_group = (mono @ w.view(float)).view(complex)
    return half * np.sum(outer * per_group, axis=0)


def _filon_central(kind, t):
    """integral_{-T}^{T} kernel(x) exp(-2 pi i x t) dx via cached panels.

    Returns ``(value, err_estimate, evaluations)``; ``value`` has the shape
    of ``t`` (a Python ``complex`` for a scalar).
    """
    mono, est, n_evals = _panel_data(kind)
    arr = np.asarray(t, dtype=float)
    flat = arr.ravel()
    value = np.empty(flat.shape, dtype=complex)
    for start in range(0, flat.size, _FT_BLOCK):
        block = slice(start, start + _FT_BLOCK)
        value[block] = _filon_block(mono, flat[block])
    value = complex(value[0]) if arr.ndim == 0 else value.reshape(arr.shape)
    return value, est, n_evals


def numeric_ft(function_kind, t, tol=1e-7):
    """Oscillatory-quadrature Fourier transform of g, psi or psi_beurling.

    Filon panels on [-512, 512] plus closed-form channel tails.  ``t`` may
    be a scalar (returns a Python ``complex``) or an array of frequencies
    (returns a complex array of the same shape); every entry must be
    finite.  Raises :class:`extremal.quadrature.BudgetExceededError` if the
    fixed scheme cannot certify ``tol`` at some frequency (the scheme's
    estimate is ~1e-10, so this only triggers for adversarial tolerances
    below the 1e-8 floor).
    """
    if function_kind not in _PUBLIC_FT_KINDS:
        raise ValueError(
            f"unknown transform kind {function_kind!r}; "
            f"expected one of {_PUBLIC_FT_KINDS}"
        )
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    tol = float(tol)
    if tol < 1e-8:
        raise ValueError("tol must be >= 1e-8")

    central, est, n_evals = _filon_central(function_kind, arr)
    right, err_r = tail_transform(function_kind, _FT_CUTOFF, arr, "right")
    left, err_l = tail_transform(function_kind, _FT_CUTOFF, arr, "left")
    value = central + right + left
    est_total = float(np.max(est + err_r + err_l + 1e-15 * np.abs(value), initial=0.0))
    if est_total > tol:
        raise BudgetExceededError(
            f"fixed Filon scheme achieves {est_total:g} > requested {tol:g}",
            value=value,
            err_estimate=est_total,
            evaluations=n_evals,
        )
    return value


def band_limit_check(function_kind, t_samples):
    """Max residual of the band identity f_hat(t) = -1/(pi i t), |t| >= 1."""
    if function_kind not in ("psi", "psi_beurling"):
        raise ValueError("band_limit_check expects 'psi' or 'psi_beurling'")
    samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if samples.size == 0:
        raise ValueError("t_samples must be nonempty")
    if np.any(np.abs(samples) < 1.0):
        raise ValueError("band samples must satisfy |t| >= 1")
    residual = numeric_ft(function_kind, samples) + 1.0 / (1j * np.pi * samples)
    return float(np.max(np.abs(residual)))
