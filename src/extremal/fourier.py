"""Fourier transforms of the kernel and the deficit functions.

Convention: f_hat(t) = integral f(x) exp(-2 pi i x t) dx.

Closed forms: ``g_hat`` (piecewise elementary, supported on [-1, 1]), the
deficit transforms ``psi_hat`` (of M) and ``psi_beurling_hat`` (of B), both
-1/(pi i t) on |t| >= 1 and the kernels of the telescoping sum.
``numeric_ft``, the independent check of those closed forms, is a Filon
scheme: interpolate the (non-oscillatory)
kernel by Chebyshev polynomials on fixed panels of width 1/4 over [-T, T]
with T = :data:`extremal.majorants.TAIL_CUTOFF` = 64, integrate each
polynomial against exp(-2 pi i x t) exactly via monomial moments, and add
the closed-form channel tails from :mod:`extremal.majorants` beyond T,
which come from inverse-power series alone, for every kind and frequency.
The panels (5,632 kernel evaluations) are built on each call, their kernel
points in fixed-size blocks; each block of frequencies then gets its Filon
sum, both tails and its share of the estimate together.
"""

from __future__ import annotations

import math

import numpy as np

from .majorants import _KINDS, TAIL_CUTOFF, tail_transform
from .quadrature import ToleranceNotMetError
from .specfun import _BERNOULLI, _elementwise, _finite, _horner, sinc

__all__ = [
    "g_hat",
    "psi_hat",
    "psi_beurling_hat",
    "numeric_ft",
]

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Closed forms.

@_elementwise
def g_hat(t):
    """Closed-form transform of the kernel g; supported exactly on [-1, 1].

    On [-1, 0]:  (1+t) e^{2 pi i t} + (i/2pi)(e^{2 pi i t} - 1)
    On [0, 1]:   (1-t) e^{2 pi i t} - (i/2pi)(e^{2 pi i t} - 1)

    These are the elementary antiderivatives of 2 pi i e^{2 pi i s}(1-|s|),
    anchored at g_hat(-1) = 0; the derivative identity is covered by tests.
    """
    _finite(t, "t")
    e = np.exp(2j * np.pi * t)
    corr = (0.5j / np.pi) * (e - 1.0)
    left = (1.0 + t) * e + corr
    right = (1.0 - t) * e - corr
    out = np.where(t < 0.0, left, right)
    return np.where(np.abs(t) >= 1.0, 0.0, out)


def _band(arr):
    """-1/(pi i t) elementwise, with a placeholder at t = 0."""
    return 1j / (np.pi * np.where(arr == 0.0, 1.0, arr))


@_elementwise
def psi_hat(t):
    """Closed-form transform of the deficit psi = M - sgn.

    psi_hat(t) = (g_hat(t) - 1)/(pi i t), written for |t| < 1 without the
    0/0 as 2 e^{i pi t} sinc(t) (1 - |t| - i sgn(t)/(2 pi)) + i sgn(t)/pi
    (psi_hat(0) = 2); -1/(pi i t) exactly on |t| >= 1 (band identity).
    """
    _finite(t, "t")
    sgn = np.sign(t)
    inside = (
        2.0 * np.exp(1j * np.pi * t) * sinc(t)
        * (1.0 - np.abs(t) - (0.5j / np.pi) * sgn)
        + (1j / np.pi) * sgn
    )
    return np.where(np.abs(t) >= 1.0, _band(t), inside)


# cot x - 1/x = sum_k c_k x^(2k+1), c_k = (-4)^(k+1) B_(2k+2) / (2k+2)!;
# the omitted terms are < 3e-20 at 0.05 pi.
_COT_SERIES = tuple((-4) ** k * p / (q * math.factorial(2 * k))
                    for k, (p, q) in enumerate(_BERNOULLI, start=1))


@_elementwise
def psi_beurling_hat(t):
    """Closed-form transform of the deficit B - sgn of the interpolating
    majorant (Vaaler, Bull. AMS 12, 1985): 1 at t = 0 (the deficit
    integral), (1 - |t|) [1 - i (cot(pi t) - 1/(pi t))] for 0 < |t| < 1,
    and -1/(pi i t) exactly on |t| >= 1 (band identity); exactly Hermitian.

    Below |t| = 0.05, cot x - 1/x cancels, so its series is summed; above
    1/2, cot(pi |t|) = -1/tan(pi (1 - |t|)), because 1 - |t| is exact there.
    """
    _finite(t, "t")
    out = _band(t)
    inside = np.abs(t) < 1.0
    a = np.abs(t[inside])
    x = np.pi * a
    h = x * _horner(_COT_SERIES, x * x)  # cot x - 1/x
    big = a >= 0.05
    b = a[big]
    cot = np.where(b > 0.5, -1.0 / np.tan(np.pi * (1.0 - b)), 1.0 / np.tan(x[big]))
    h[big] = cot - 1.0 / x[big]
    out[inside] = (1.0 - a) * (1.0 - 1j * np.sign(t[inside]) * h)
    return out


# ---------------------------------------------------------------------------
# Filon engine.

_FT_PANEL = 0.25
_FT_DEGREE = 10  # Chebyshev interpolation degree per panel
_FT_TOL = 1e-7  # numeric_ft refuses a frequency whose estimate exceeds it

# The kinds with a transform; H is integrated, not transformed.
_FT_KERNELS = {kind: _KINDS[kind].closed for kind in ("g", "psi", "psi_beurling")}


def _chebyshev_setup():
    npts = _FT_DEGREE + 1
    k = np.arange(npts)
    theta = (2.0 * k + 1.0) * np.pi / (2.0 * npts)
    nodes = np.cos(theta)
    # a_j = (2/n) sum_k f(x_k) cos(j theta_k), halved for j = 0
    V = (2.0 / npts) * np.cos(np.outer(np.arange(npts), theta))
    V[0] *= 0.5
    # Chebyshev -> monomial basis change: column j holds the integer
    # coefficients of T_j, from T_{j+1} = 2 s T_j - T_{j-1}.
    T = [[1], [0, 1]]
    while len(T) < npts:
        twice = [0] + [2 * c for c in T[-1]]
        T.append([a - b for a, b in zip(twice, T[-2] + [0, 0])])
    C2P = np.zeros((npts, npts))
    for j, coeffs in enumerate(T[:npts]):
        C2P[: j + 1, j] = coeffs
    return nodes, V, C2P


_CHEB_NODES, _CHEB_V, _CHEB_C2P = _chebyshev_setup()

_EDGES = np.arange(-TAIL_CUTOFF, TAIL_CUTOFF + 0.5 * _FT_PANEL, _FT_PANEL)
_CENTERS = 0.5 * (_EDGES[:-1] + _EDGES[1:])

# Frequencies per block of a transform (its Filon sum, both tails and its
# share of the estimate), and panels per block of the kernel evaluations:
# bounds the working set at ~3 MB over the input and output.  The
# panels keep this loop of their own, 1,408 points a call: the 500 KB bound of
# test_transform_memory_is_small needs blocks that small, and a
# specfun._BLOCK that small would split eval's 3,072-point si_cin call.
_FT_BLOCK = 128


def _panel_data(kind):
    """Per-panel monomial coefficients, the interpolation-error bound and
    the number of kernel evaluations."""
    f = _FT_KERNELS[kind]
    half = 0.5 * _FT_PANEL
    vals = np.empty((_CENTERS.size, _CHEB_NODES.size))
    for start in range(0, _CENTERS.size, _FT_BLOCK):
        xs = _CENTERS[start : start + _FT_BLOCK, None] + half * _CHEB_NODES
        vals[start : start + _FT_BLOCK] = f(xs.ravel()).reshape(xs.shape)
    cheb_coeffs = vals @ _CHEB_V.T
    mono = cheb_coeffs @ _CHEB_C2P.T
    # Interpolation error per panel ~ size of the trailing coefficients;
    # integrating |T_j(s)| against any unimodular phase is at most 2*(h/2).
    est = 1.5 * _FT_PANEL * float(
        np.sum(np.abs(cheb_coeffs[:, -2]) + np.abs(cheb_coeffs[:, -1]))
    )
    return mono, est, vals.size


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


def _filon_central(mono, block):
    """integral_{-T}^{T} kernel(x) exp(-2 pi i x t) dx at the 1-d frequencies
    ``block``, from the panels' monomial coefficients ``mono``."""
    half = 0.5 * _FT_PANEL
    m = _moments(_TWO_PI * block * half)
    # The sum over degrees is one real matrix product on the interleaved
    # real/imaginary parts of the moments; a complex product would go
    # through multi-threaded BLAS, whose threads then spin for nothing.
    per_panel = (mono @ m.view(float)).view(complex)
    phase = np.exp(-2j * np.pi * _CENTERS[:, None] * block)
    return half * np.sum(phase * per_panel, axis=0)


def numeric_ft(function_kind, t):
    """Oscillatory-quadrature Fourier transform of g, psi or psi_beurling.

    Filon panels on [-64, 64] plus closed-form channel tails.  ``t`` may
    be a scalar (returns a Python ``complex``, bit for bit the entry of a
    one-element array) or an array of frequencies (returns a complex array
    of the same shape, _FT_BLOCK frequencies at a time); every entry must
    be finite.  The scheme is fixed, so it takes no ``tol``: its estimate is
    2e-11 to 1.2e-10, nearly all of it Filon interpolation (the tails add
    below 1e-15).  Raises :class:`extremal.quadrature.ToleranceNotMetError`
    if the estimate at some frequency exceeds ``_FT_TOL``, carrying the
    values, the largest estimate and the kernel evaluations.
    """
    if function_kind not in _FT_KERNELS:
        raise ValueError(
            f"unknown transform kind {function_kind!r}; "
            f"expected one of {tuple(_FT_KERNELS)}"
        )
    arr = _finite(np.asarray(t, dtype=float), "t")
    flat = arr.reshape(-1)
    mono, est, n_evals = _panel_data(function_kind)
    value = np.empty(flat.shape, dtype=complex)
    est_total = 0.0
    for start in range(0, flat.size, _FT_BLOCK):
        block = flat[start : start + _FT_BLOCK]
        right, err_r = tail_transform(function_kind, TAIL_CUTOFF, block, "right")
        left, err_l = tail_transform(function_kind, TAIL_CUTOFF, block, "left")
        part = _filon_central(mono, block) + right + left
        value[start : start + _FT_BLOCK] = part
        top = est + err_r + err_l + 1e-15 * float(np.max(np.abs(part)))
        est_total = max(est_total, top)
    value = complex(value[0]) if arr.ndim == 0 else value.reshape(arr.shape)
    if est_total > _FT_TOL:
        raise ToleranceNotMetError(
            f"fixed Filon scheme achieves {est_total:g} > {_FT_TOL:g}",
            value, est_total, n_evals,
        )
    return value
