"""Adaptive Gauss-Kronrod quadrature and analytic tail channels.

The central tool is :func:`integrate_adaptive`, a deterministic bisection
scheme built on the 7-point Gauss / 15-point Kronrod pair, vectorized so
that every pending panel is evaluated in one call to the integrand.

For integrals over infinite ranges the package never chases oscillatory
tails numerically.  Instead, tails of the form

    integral_T^inf  phi(x) * exp(-2 pi i tau x) dx,
    phi(x) = sum_j c_j x^{-(j+2)}    (inverse-power envelope),

are evaluated in closed form by :func:`tail_channel` via the generalized
exponential integral E_n at purely imaginary argument (:func:`expint_en`).
Kernel-specific envelope series live next to the kernels in
:mod:`extremal.majorants`; this module only knows the generic machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

__all__ = [
    "QuadResult",
    "BudgetExceededError",
    "ToleranceNotMetError",
    "integrate_adaptive",
    "expint_en",
    "tail_channel",
    "cosine_tail",
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


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and integrand-evaluation count of a quadrature."""

    value: float
    err_estimate: float
    evaluations: int


class BudgetExceededError(RuntimeError):
    """Raised when an evaluation budget runs out before the tolerance is met.

    Carries the best available ``value``/``err_estimate``/``evaluations``.
    """

    def __init__(self, message, value, err_estimate, evaluations):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.evaluations = evaluations


class ToleranceNotMetError(RuntimeError):
    """Raised when a fixed-effort scheme cannot certify the requested tolerance.

    Carries the computed ``value`` and the achieved ``err_estimate``.
    """

    def __init__(self, message, value, err_estimate):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


def integrate_adaptive(
    f,
    a,
    b,
    tol=1e-10,
    max_evals=10_000_000,
    initial_panel_width=0.5,
):
    """Adaptive G7/K15 integration of a vectorized ``f`` over [a, b].

    Panels whose Kronrod-Gauss discrepancy exceeds their proportional
    share ``tol * width / (b - a)`` are bisected; all pending panels are
    evaluated together, so ``f`` must accept an ndarray.  The result is
    deterministic (fixed node order, compensated final summation).

    Raises :class:`BudgetExceededError` once more than ``max_evals``
    integrand evaluations would be needed, carrying the best estimate.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_adaptive requires finite endpoints")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if b == a:
        return QuadResult(0.0, 0.0, 0)
    if b < a:
        res = integrate_adaptive(
            f, b, a, tol=tol, max_evals=max_evals,
            initial_panel_width=initial_panel_width,
        )
        return QuadResult(-res.value, res.err_estimate, res.evaluations)

    span = b - a
    n0 = max(1, int(math.ceil(span / initial_panel_width)))
    edges = np.linspace(a, b, n0 + 1)
    left = edges[:-1]
    right = edges[1:]

    done_vals = []  # (left_edge, k15, err)
    evaluations = 0
    min_width = 1e-14 * max(abs(a), abs(b), 1.0)
    # Coarse value/error of the regions still pending, carried from the
    # parents bisected in the previous generation so a budget stop can
    # report an estimate without spending further evaluations.
    pending_value = 0.0
    pending_err = math.inf

    while left.size:
        cost = 15 * left.size
        if evaluations + cost > max_evals:
            if math.isinf(pending_err):
                # Budget cannot even cover the initial mesh: take one coarse
                # pass over however many equal panels still fit.
                k = max(1, min(max_evals, 10_000 * 15) // 15)
                edges = np.linspace(a, b, k + 1)
                cl, cr = edges[:-1], edges[1:]
                centers = 0.5 * (cl + cr)
                half = 0.5 * (cr - cl)
                fx = np.asarray(
                    f((centers[:, None] + half[:, None] * _NODES[None, :]).ravel()),
                    dtype=float,
                ).reshape(k, 15)
                pending_value = math.fsum(half * (fx @ _W_K))
                pending_err = math.fsum(np.abs(half * (fx @ _W_K) - half * (fx @ _W_G)))
                evaluations += 15 * k
            done_vals.sort(key=lambda it: it[0])
            raise BudgetExceededError(
                f"evaluation budget {max_evals} exhausted on [{a}, {b}]",
                value=math.fsum(it[1] for it in done_vals) + pending_value,
                err_estimate=math.fsum(it[2] for it in done_vals) + pending_err,
                evaluations=evaluations,
            )
        evaluations += cost

        centers = 0.5 * (left + right)
        half = 0.5 * (right - left)
        x = (centers[:, None] + half[:, None] * _NODES[None, :]).ravel()
        fx = np.asarray(f(x), dtype=float).reshape(left.size, 15)
        if not np.all(np.isfinite(fx)):
            raise ValueError("integrand returned a non-finite value")
        k15 = half * (fx @ _W_K)
        g7 = half * (fx @ _W_G)
        err = np.abs(k15 - g7)

        width = right - left
        allow = tol * width / span
        accept = (err <= allow) | (width <= min_width)

        for i in np.flatnonzero(accept):
            done_vals.append((left[i], k15[i], err[i]))

        keep = ~accept
        pending_value = math.fsum(k15[keep])
        pending_err = math.fsum(err[keep])
        l_k = left[keep]
        r_k = right[keep]
        mid = 0.5 * (l_k + r_k)
        left = np.concatenate([l_k, mid])
        right = np.concatenate([mid, r_k])

    done_vals.sort(key=lambda it: it[0])
    value = math.fsum(it[1] for it in done_vals)
    err_total = math.fsum(it[2] for it in done_vals)
    err_total += 5e-16 * math.fsum(abs(it[1]) for it in done_vals)
    return QuadResult(value, err_total, evaluations)


# ---------------------------------------------------------------------------
# Generalized exponential integral on the imaginary axis.

def expint_en(n, z):
    """E_n(z) for integer n >= 1 and complex z with Re z >= 0.

    Hybrid evaluation: upward recurrence from E_1 = exp1 for |z| <= 10
    (stable there), a modified Lentz continued fraction beyond.  Accuracy
    is ~1e-13 relative over the ranges used by the tail channels.  ``n``
    and ``z`` may be arrays; they broadcast against each other and are
    evaluated elementwise.  Scalar ``n`` and ``z`` give a Python ``complex``.
    """
    n_arr, z_arr = np.broadcast_arrays(np.asarray(n), np.asarray(z, dtype=complex))
    if np.any(n_arr < 1):
        raise ValueError("expint_en requires n >= 1")
    orders = n_arr.ravel()
    flat = z_arr.ravel()
    out = np.empty(flat.shape, dtype=complex)
    zero = flat == 0.0
    if np.any(zero):
        if np.any(orders[zero] == 1):
            raise ValueError("E_1(0) diverges")
        out[zero] = 1.0 / (orders[zero] - 1)
    if np.any(flat.real < -1e-300):
        raise ValueError("expint_en requires Re z >= 0")

    near = ~zero & (np.abs(flat) <= 10.0)
    if np.any(near):
        zn, nn = flat[near], orders[near]
        e = exp1(zn)
        ez = np.exp(-zn)
        for k in range(1, int(nn.max())):
            e = np.where(k < nn, (ez - zn * e) / k, e)
        out[near] = e
    far = ~zero & ~near
    if np.any(far):
        out[far] = _expint_lentz(orders[far], flat[far])
    return complex(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def _expint_lentz(n, z):
    """Modified Lentz on the even continued fraction
    E_n(z) = exp(-z) / (z+n - 1*n/(z+n+2 - 2(n+1)/(z+n+4 - ...))),
    each entry stopping at its own convergence step."""
    tiny = 1e-300
    h_out = np.empty(z.shape, dtype=complex)
    idx = np.arange(z.size)
    b = z + n
    c = np.full(z.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / b
    h = d
    for i in range(1, 401):
        a = -i * (n - 1 + i)
        b = b + 2.0
        d = a * d + b
        d[d == 0] = tiny
        c = b + a / c
        c[c == 0] = tiny
        d = 1.0 / d
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        if np.any(done):
            h_out[idx[done]] = h[done]
            keep = ~done
            idx, n, b, c, d, h = idx[keep], n[keep], b[keep], c[keep], d[keep], h[keep]
            if idx.size == 0:
                break
    h_out[idx] = h
    return h_out * np.exp(-z)


def tail_channel(coeffs, T, tau):
    """integral_T^inf (sum_j c_j x^{-(j+2)}) exp(-2 pi i tau x) dx.

    Exact term-by-term reduction to E_n:  each power x^{-(j+2)} contributes
    c_j T^{-(j+1)} E_{j+2}(2 pi i tau T).  ``coeffs`` is the envelope series
    in the x^{-(j+2)} basis, ``T > 0`` the cutoff, ``tau`` the frequency
    (``tau = 0`` gives the plain tail integral); an array ``tau`` gives an
    array of the same shape.  All orders are evaluated in one ``expint_en``
    call.
    """
    if T <= 0.0:
        raise ValueError("tail_channel requires T > 0")
    tau = np.asarray(tau, dtype=float)
    z = 2j * math.pi * tau * T
    terms = []
    Tp = 1.0 / T
    for j, c in enumerate(coeffs):
        if c != 0.0:
            terms.append((j + 2, c * Tp))
        Tp /= T
    total = np.zeros(tau.shape, dtype=complex)
    if terms:
        orders = np.array([order for order, _ in terms]).reshape((-1,) + (1,) * tau.ndim)
        for (_, weight), e in zip(terms, expint_en(orders, z)):
            total = total + weight * e
    return complex(total) if tau.ndim == 0 else total


def cosine_tail(coeffs, T, t):
    """integral_T^inf (1 - cos 2 pi x) * envelope(x) * exp(-2 pi i t x) dx.

    Expands the cosine into half-weight channels at frequencies t -+ 1:
    J(t) - (J(t-1) + J(t+1)) / 2 over the same inverse-power envelope,
    all three channels in one ``tail_channel`` call.  An array ``t`` gives
    an array of the same shape.
    """
    t = np.asarray(t, dtype=float)
    j = tail_channel(coeffs, T, np.stack([t, t - 1.0, t + 1.0]))
    out = j[0] - 0.5 * j[1] - 0.5 * j[2]
    return complex(out) if t.ndim == 0 else out
