#!/usr/bin/env python3
"""Regenerate the Chebyshev tables behind Si and Cin in ``extremal.specfun``.

For x >= 4 the sine and cosine integrals are written through the auxiliary
functions f and g (Abramowitz & Stegun 5.2.8-5.2.9):

    Ci(x) = f(x) sin x - g(x) cos x,    Si(x) = pi/2 - f(x) cos x - g(x) sin x,

where x f(x) and x^2 g(x) tend to 1 and are smooth in s = a / x.  Each
table is the Chebyshev interpolant of (x f, x^2 g) in u, the affine image
of s on [-1, 1], at the Chebyshev points of the first kind:

* ``_AUX_MID``: x in [4, 16], s = 4 / x in [1/4, 1], u = (32 / x - 5) / 3;
* ``_AUX_FAR``: x in [16, inf), s = 16 / x in (0, 1], u = 32 / x - 1.

Function values and coefficients are computed in mpmath at 40 digits and
rounded once to double, so the output does not depend on the platform's
floating point or BLAS.  The script prints Python source that
``specfun`` embeds verbatim:

    python3 scripts/sici_tables.py
"""

import mpmath as mp

DIGITS = 40
# (name, a, s range, degree): the smallest degrees that keep f and g within
# 2e-17 absolute of mpmath on their pieces; tests/test_specfun.py checks
# the resulting Si and Cin against mpmath and scipy.
TABLES = (
    ("_AUX_MID", 4, (mp.mpf(1) / 4, mp.mpf(1)), 20),
    ("_AUX_FAR", 16, (mp.mpf(0), mp.mpf(1)), 14),
)


def aux(x):
    """(x f(x), x^2 g(x)) from mpmath's Si and Ci."""
    si = mp.si(x) - mp.pi / 2
    ci = mp.ci(x)
    s, c = mp.sin(x), mp.cos(x)
    return x * (ci * s - si * c), x * x * (-ci * c - si * s)


def chebyshev_table(a, s_range, degree):
    """Chebyshev coefficients of (x f, x^2 g) on s = a / x in ``s_range``."""
    lo, hi = s_range
    n = degree + 1
    theta = [(2 * k + 1) * mp.pi / (2 * n) for k in range(n)]
    values = [aux(a / ((hi + lo) / 2 + (hi - lo) / 2 * mp.cos(t))) for t in theta]
    table = []
    for which in range(2):
        coeffs = []
        for j in range(n):
            c = 2 * mp.fsum(v[which] * mp.cos(j * t) for v, t in zip(values, theta)) / n
            coeffs.append(float(c / 2 if j == 0 else c))
        table.append(tuple(coeffs))
    return tuple(table)


def source():
    """The tables as the Python source embedded in ``specfun``."""
    lines = []
    with mp.workdps(DIGITS):
        for name, a, s_range, degree in TABLES:
            lines.append(f"{name} = (")
            table = chebyshev_table(a, s_range, degree)
            for label, coeffs in zip(("x f(x)", "x^2 g(x)"), table):
                lines.append(f"    (  # {label}")
                for i in range(0, len(coeffs), 3):
                    row = " ".join(f"{c!r}," for c in coeffs[i : i + 3])
                    lines.append(f"        {row}")
                lines.append("    ),")
            lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(source())
