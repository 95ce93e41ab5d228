"""Scalar special functions shared by the rest of the package.

Everything here is vectorized over numpy arrays.  The public functions are
``sinc`` (the pi-normalized one, with exact zeros at nonzero integers),
``trigamma`` on the positive half-line, ``si_cin`` (the sine integral and
the entire cosine integral, behind the closed form of G) and ``expint_en``
(the exponential integral E_n in the closed right half-plane, behind the
tail channels, and the only place the package evaluates it).  They need
numpy alone.  :func:`_elementwise` is the one home of the scalar/array rule
and the block rule of every closed form of one argument in the package.
The telescoping kernel of ``hilbert`` keeps the same rule itself: it is
summed in row blocks of at most ``_BLOCK`` entries.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["sinc", "trigamma", "si_cin", "expint_en"]

EULER_GAMMA = 0.5772156649015329

# Bernoulli numbers B_2, B_4, ..., B_14 as (numerator, denominator), the one
# table behind every Bernoulli series of the package: integer true division
# rounds each coefficient derived from it correctly.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))

_SINC_TAYLOR_CUT = 1e-4

# Points per block of a closed form: the work arrays of a block stay in cache,
# which bounds the working set and runs faster than whole-array passes.  The
# telescoping kernel of hilbert is summed in row blocks of at most _BLOCK
# entries, and a chunk of remark trials is one such block.
_BLOCK = 8192


def _elementwise(fn):
    """Decorator: ``fn`` gets its first argument, positional or by keyword,
    as flat float64 blocks of at most ``_BLOCK`` points (it is elementwise,
    so no bit depends on them).  Each array it returns, alone or in a tuple,
    takes the input's shape, or is a Python ``float`` or ``complex`` for a
    scalar input (a Python or numpy scalar, or a 0-d array).
    """
    first = fn.__code__.co_varnames[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if first in kwargs:
            args = (kwargs.pop(first), *args)
        arr = np.asarray(args[0], dtype=float)
        flat = arr.reshape(-1)
        out = fn(flat[:_BLOCK], *args[1:], **kwargs)
        single = not isinstance(out, tuple)
        parts = (out,) if single else out
        if flat.size > _BLOCK:
            parts = tuple(np.empty(flat.shape, v.dtype) for v in parts)
            for start in range(0, flat.size, _BLOCK):
                if start:
                    out = fn(flat[start : start + _BLOCK], *args[1:], **kwargs)
                for w, v in zip(parts, (out,) if single else out):
                    w[start : start + _BLOCK] = v
        parts = tuple(v.reshape(arr.shape) if arr.ndim else v.item() for v in parts)
        return parts[0] if single else parts

    return wrapper


def _finite(arr, what):
    """``arr``, or ValueError naming ``what`` unless every entry is finite."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


@_elementwise
def sinc(x):
    """sin(pi x) / (pi x), with sinc(0) = 1.

    The argument of the sine is reduced with ``r = x - round(x)`` so that
    sinc is *exactly* zero at every nonzero integer and Poisson-type sums
    over integer grids come out exact.  A degree-6 Taylor branch covers
    ``|x| < 1e-4`` where the direct quotient loses accuracy.
    """
    n = np.round(x)
    r = x - n
    sign = 1.0 - 2.0 * np.mod(n, 2.0)  # (-1)**n for float n
    num = sign * np.sin(np.pi * r)
    # pi x overflows for |x| > 5.7e307, where x is an integer: num is 0
    # there and the quotient 0 either way.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = num / (np.pi * x)
    absx = np.abs(x)
    # The polynomial is evaluated everywhere and kept only below the cut;
    # clamping its argument there leaves those bits alone and keeps the
    # discarded values from overflowing for huge |x|.
    z2 = (np.pi * np.minimum(absx, _SINC_TAYLOR_CUT)) ** 2
    taylor = 1.0 - (z2 / 6.0) * (1.0 - (z2 / 20.0) * (1.0 - z2 / 42.0))
    return np.where(absx < _SINC_TAYLOR_CUT, taylor, direct)


@_elementwise
def trigamma(x):
    """Trigamma psi'(x) for x > 0.

    Uses the recurrence psi'(x) = psi'(x+1) + 1/x^2 to push the argument
    above 10, then the asymptotic series
    1/y + 1/(2 y^2) + sum_k B_{2k} / y^{2k+1}.  Relative accuracy is
    better than 1e-12 across the domain.  Raises ValueError for x <= 0
    or non-finite input.
    """
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("trigamma requires finite x > 0")

    work = x.copy()
    acc = np.zeros_like(work)
    # Shift every argument above 10 (at most 10 steps since x > 0).
    for _ in range(10):
        low = work < 10.0
        if not np.any(low):
            break
        acc[low] += 1.0 / work[low] ** 2
        work[low] += 1.0

    # asymptotic: 1/y + 1/(2y^2) + B_2/y^3 + B_4/y^5 + ...
    inv = 1.0 / work
    inv2 = inv * inv
    tail = np.zeros_like(work)
    power = inv * inv2  # y^{-3}
    for p, q in _BERNOULLI[:6]:  # B_2, ..., B_12
        tail += p / q * power
        power *= inv2

    return acc + inv + 0.5 * inv2 + tail


# ---------------------------------------------------------------------------
# Sine and cosine integrals.
#
# Below 4 the power series Si(x) = x sum_k (-x^2)^k / ((2k+1) (2k+1)!) and
# Cin(x) = x^2 sum_k (-x^2)^k / ((2k+2) (2k+2)!) stop at k = 15, where the
# first omitted term is below 1e-18.  From 4 on, Si and Ci come from the
# auxiliary functions f and g, whose scaled forms x f and x^2 g are
# Chebyshev interpolants in u = (32 / x - 5) / 3 on [4, 16] and
# u = 32 / x - 1 on [16, inf).  The tables hold them in the monomial basis
# of u, printed by scripts/sici_tables.py (tests/test_specfun.py holds the
# Chebyshev rows and checks the conversion bit for bit).  They are
# evaluated by Horner's rule in u, which loses nothing here: the monomial
# coefficients sum to about 1 in magnitude.

_SERIES_CUT = 4.0
_SI_SERIES = tuple(
    (-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(16)
)
_CIN_SERIES = tuple(
    (-1) ** k / ((2 * k + 2) * math.factorial(2 * k + 2)) for k in range(16)
)

_AUX_MID = (
    (  # x f(x)
        0.9603393786547887, -0.03998804006861079, -0.00532669917941665,
        0.002098409091015123, -0.0003860263868288761, 2.4730337949851055e-05,
        1.4610820888146269e-05, -8.292305978151319e-06, 2.7745405749665746e-06,
        -6.675229025589691e-07, 8.727117447310619e-08, 2.1321541035378118e-08,
        -2.255908008090714e-08, 1.1447186237151747e-08, -4.41536371180927e-09,
        1.2561012250202717e-09, -2.9504516476074266e-10, 1.3517010724337388e-10,
        -8.820563921083759e-12, -6.188467940377252e-11, 2.5649332401598904e-11,
    ),
    (  # x^2 g(x)
        0.8936926452071037, -0.09773174406860843, -0.005488052083107877,
        0.005820127118402219, -0.0017240457869318179, 0.00029449023913467827,
        5.532209058260116e-06, -2.9344595711884585e-05, 1.4957795167044976e-05,
        -5.220605423806589e-06, 1.3517780231155727e-06, -1.9560761405693572e-07,
        -4.741582195390293e-08, 5.770347435650007e-08, -3.160065192215565e-08,
        1.1774122642432553e-08, -4.077638760163067e-09, 2.410118734856979e-09,
        -6.966032866470327e-10, -4.3651256685923585e-10, 2.385296982423693e-10,
    ),
)
_AUX_FAR = (
    (  # x f(x)
        0.9980691264342498, -0.0038184552809937943, -0.0018249502081594743,
        7.987987737929061e-05, 1.4873092413762357e-05, -2.5522032467885856e-06,
        -7.510995598432964e-08, 9.204257392148529e-08, -1.2940892267569501e-08,
        -1.8484998011682505e-09, 1.1908857673960065e-09, -1.9174596355176386e-10,
        -3.546129433821298e-11, 2.399979363599424e-11, -3.6137799763293257e-12,
    ),
    (  # x^2 g(x)
        0.994250671153257, -0.011286810978311584, -0.005235210992448799,
        0.00037901187933892525, 6.160444766812573e-05, -1.5763880753035335e-05,
        1.185167196477001e-07, 6.328194147396245e-07, -1.3306963865770321e-07,
        -6.587231333674634e-09, 1.093683038916012e-08, -2.716690933322562e-09,
        -1.0809657402846775e-10, 2.821060511222064e-10, -6.641960877758628e-11,
    ),
)


def _horner(coeffs, u):
    """sum_k coeffs[k] u^k, in place on one work array."""
    acc = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= u
        acc += c
    return acc


@_elementwise
def si_cin(x):
    """Sine integral Si(x) and entire cosine integral Cin(x) for real x.

    Cin(x) = integral_0^x (1 - cos t) / t dt = gamma + log|x| - Ci(|x|) is
    even and Si is odd.  Returns the pair ``(Si, Cin)``.  Against mpmath both
    are within 1e-15 absolute on |x| <= 4; beyond, Si is within an ulp of
    pi/2 and Cin within the rounding of gamma + log|x|, and neither is
    further off than scipy's ``sici`` (tests/test_specfun.py).  Its dozen
    work arrays hold one block of ``_elementwise`` at a time.
    """
    z = np.abs(x)
    # The f, g route on every point, with |x| < 4 clamped to 4 so that it
    # stays finite there; the series then overwrites those points.
    zc = np.maximum(z, _SERIES_CUT)
    inv = 1.0 / zc
    cf, cg = _AUX_FAR
    u = 32.0 * inv - 1.0
    xf = _horner(cf, u)
    x2g = _horner(cg, u)
    mid = zc < 16.0
    if np.any(mid):
        cf, cg = _AUX_MID
        u = (32.0 / 3.0) * inv[mid] - 5.0 / 3.0
        xf[mid] = _horner(cf, u)
        x2g[mid] = _horner(cg, u)
    f = xf * inv
    g = x2g * inv
    g *= inv
    sin, cos = np.sin(zc), np.cos(zc)
    si = 0.5 * np.pi - (f * cos + g * sin)
    cin = EULER_GAMMA + np.log(zc) - (f * sin - g * cos)

    small = z < _SERIES_CUT
    if np.any(small):
        zs = z[small]
        w = zs * zs
        si[small] = zs * _horner(_SI_SERIES, w)
        cin[small] = w * _horner(_CIN_SERIES, w)
    return np.copysign(si, x), cin


# ---------------------------------------------------------------------------
# Exponential integral.

_E1_SERIES_CUT = 2.0
# E_1(z) = -gamma - log z - sum_{k>=1} (-z)^k / (k k!), summed as z times a
# polynomial of degree 23; the first omitted term at |z| = 2 is below 1e-19.
# Near |z| = 2 on the real axis the sum cancels to 1/27 of its terms and
# the recurrence to E_2 and E_3 loses a further factor of 4 (2.1e-14
# relative in double), so both run in numpy's longdouble (a 64-bit mantissa
# on x86-64 Linux).
_E1_SERIES = tuple(
    np.longdouble((-1) ** (j + 1)) / ((j + 1) * np.longdouble(math.factorial(j + 1)))
    for j in range(24)
)
_EULER_GAMMA_LONG = np.longdouble("0.57721566490153286060651209")


def expint_en(n, z):
    """Exponential integral E_n(z) for integer n >= 1 and complex z with
    Re z >= 0.

    E_n(0) = 1/(n - 1) for n >= 2.  Below |z| = 2, the power series of E_1
    and the upward recurrence n E_{n+1}(z) = exp(-z) - z E_n(z), both in
    longdouble; from |z| = 2 on, the continued fraction of
    :func:`_expint_lentz` for every order.  Within 1e-14 relative of mpmath
    for n <= 31 and 1e-8 <= |z| <= 804 on the axes and diagonals of the
    closed right half-plane (tests/test_specfun.py).  Where longdouble is
    plain double, points just below |z| = 2 off the imaginary axis lose up
    to 2.1e-14.  ``n`` and ``z`` broadcast against each other; scalar ``n``
    and ``z`` give a Python ``complex``.
    """
    n_arr, z_arr = np.broadcast_arrays(np.asarray(n), np.asarray(z, dtype=complex))
    if np.any(n_arr < 1):
        raise ValueError("expint_en requires n >= 1")
    orders = n_arr.ravel()
    flat = z_arr.ravel()
    if np.any(flat.real < -1e-300):
        raise ValueError("expint_en requires Re z >= 0")
    out = np.empty(flat.shape, dtype=complex)
    zero = flat == 0.0
    if np.any(zero):
        if np.any(orders[zero] == 1):
            raise ValueError("E_1(0) diverges")
        out[zero] = 1.0 / (orders[zero] - 1)
    near = ~zero & (np.abs(flat) < _E1_SERIES_CUT)
    if np.any(near):
        w, nn = flat[near].astype(np.clongdouble), orders[near]
        e = -_EULER_GAMMA_LONG - np.log(w) - w * _horner(_E1_SERIES, w)
        ew = np.exp(-w)
        for k in range(1, int(nn.max())):
            e = np.where(k < nn, (ew - w * e) / k, e)
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
    # Named, so numpy's temporary elision (16,384 points on) cannot swap the
    # operands and make the last bits depend on the call's size.
    ez = np.exp(-z)
    return h_out * ez
