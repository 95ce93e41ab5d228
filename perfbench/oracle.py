"""Independent checks of the CLI's reports.

Nothing here imports ``extremal``.  Sharp constants are checked against a
dense ``scipy.linalg.eigvalsh`` of the Hermitian matrix i*A built from the
node file; the majorants against ``mpmath`` evaluations of Ci/Si (for G and
M = 2G - 1) and of Beurling's trigamma series (for B).  Each check returns
``(ok, detail)``; ``detail`` carries the measured error next to its limit.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np
import scipy.linalg

EVAL_SAMPLES = 64


def separations(lam):
    """Nearest-neighbour distance of every node, in the order given."""
    lam = np.asarray(lam, dtype=float)
    order = np.argsort(lam, kind="stable")
    gaps = np.diff(lam[order])
    near = np.empty_like(lam)
    near[order[0]] = gaps[0]
    near[order[-1]] = gaps[-1]
    near[order[1:-1]] = np.minimum(gaps[:-1], gaps[1:])
    return near


def dense_constant(lam):
    """Spectral radius of i*A, A_nm = sqrt(d_n d_m) / (lam_m - lam_n)."""
    lam = np.asarray(lam, dtype=float)
    root = np.sqrt(separations(lam))
    diff = lam[None, :] - lam[:, None]
    np.fill_diagonal(diff, 1.0)
    a = np.outer(root, root) / diff
    np.fill_diagonal(a, 0.0)
    return float(np.max(np.abs(scipy.linalg.eigvalsh(1j * a))))


def read_nodes(path):
    with open(path, encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()])


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def solve_errors(solves):
    """max |C - dense| and the count of solves whose error exceeds the
    residual they reported, over recorded ``sharp_constant`` calls."""
    max_err, violations = 0.0, 0
    for solve in solves:
        err = abs(solve["constant"] - dense_constant(solve["lambdas"]))
        max_err = max(max_err, err)
        violations += err > solve["residual"]
    return max_err, violations


def check_hilbert(path, params):
    report = _load_json(path)
    lam = read_nodes(params["nodes"])
    value = report["sharp_constant"]["value"]
    err = abs(value - dense_constant(lam))
    ok = report["n_nodes"] == lam.size and err <= params["tol"]
    return bool(ok), {"err": err, "tol": params["tol"]}


def check_constant_search(path, params):
    report = _load_json(path)
    n, tol = params["n"], params["tol"]
    base_err = abs(report["baseline_equally_spaced"]
                   - dense_constant(np.arange(1.0, n + 1.0)))
    best_err = abs(report["best_constant"]
                   - dense_constant(report["best_lambdas"]))
    history = report["trial_values"]
    ok = (len(history) == params["trials"] + 1
          and report["best_constant"] == max(history)
          and max(base_err, best_err) <= tol)
    return bool(ok), {"baseline_err": base_err, "best_err": best_err, "tol": tol}


def check_remark(path, params):
    report = _load_json(path)
    residue = report["max_imag_residue"]
    values = report["trial_values"]
    ok = (len(values) == params["trials"]
          and report["min_value"] == min(values)
          and residue <= 1e-6)
    return bool(ok), {"max_imag_residue": residue, "limit": 1e-6}


def check_verify(path, params):
    report = _load_json(path)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    ok = report["all_passed"] is True and not failed
    return bool(ok), {"failed_checks": failed}


def _cin(z):
    return mp.mpf(0) if z == 0 else mp.euler + mp.log(abs(z)) - mp.ci(abs(z))


def _sinc(y):
    return mp.mpf(1) if y == 0 else mp.sin(mp.pi * y) / (mp.pi * y)


def g_reference(x):
    """G(x) = integral of g up to x, from mpmath Ci/Si (30 digits)."""
    with mp.workdps(30):
        x = mp.mpf(x)
        x1 = x + 1
        tp = 2 * mp.pi
        value = (mp.mpf(1) / 2
                 - (_cin(tp * x) - _cin(tp * x1)) / (2 * mp.pi**2)
                 - x1 * _sinc(x1) ** 2
                 + mp.si(tp * x1) / mp.pi)
        return float(value)


def b_reference(x):
    """Beurling's B(x) = (sin pi x / pi)^2 [psi1(-x) - psi1(1+x) + 2/x]."""
    if x == math.floor(x):
        return 1.0 if x >= 0 else -1.0
    with mp.workdps(30):
        xm = mp.mpf(x)
        value = (mp.sin(mp.pi * xm) / mp.pi) ** 2 * (
            mp.polygamma(1, -xm) - mp.polygamma(1, 1 + xm) + 2 / xm)
        return float(value)


def check_eval(path, params):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    tol = params["tol"]
    x_expected = np.linspace(params["start"], params["stop"], params["steps"])
    if header != "x,G,M,B,psi,phi" or table.shape != (params["steps"], 6):
        return False, {"error": "bad header or shape"}
    x, G, M, B, psi = (table[:, k] for k in range(5))
    sgn = np.sign(x)
    rng = np.random.default_rng(params["sample_seed"])
    rows = rng.choice(x.size, size=min(EVAL_SAMPLES, x.size), replace=False)
    rows = np.union1d(rows, [0, x.size // 2, x.size - 1])
    g_ref = np.array([g_reference(x[i]) for i in rows])
    g_err = float(np.max(np.abs(G[rows] - g_ref)))
    m_err = float(np.max(np.abs(M[rows] - (2.0 * g_ref - 1.0))))
    b_err = max(abs(B[i] - b_reference(x[i])) for i in rows)
    detail = {
        "grid_exact": bool(np.array_equal(x, x_expected)),
        "G_err": g_err, "M_err": m_err, "B_err": b_err,
        "M_minus_sgn_min": float(np.min(M - sgn)),
        "B_minus_sgn_min": float(np.min(B - sgn)),
        "psi_err": float(np.max(np.abs(psi - (M - sgn)))),
        "tol": tol, "sampled_rows": int(rows.size),
    }
    ok = (detail["grid_exact"]
          and max(g_err, m_err, b_err, detail["psi_err"]) <= tol
          and min(detail["M_minus_sgn_min"], detail["B_minus_sgn_min"]) >= -tol)
    return bool(ok), detail


CHECKS = {
    "hilbert": check_hilbert,
    "constant_search": check_constant_search,
    "remark": check_remark,
    "verify": check_verify,
    "eval": check_eval,
}


def check(op):
    """Check one op's report; a report that cannot be read fails."""
    try:
        return CHECKS[op.check](op.output, op.params)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, {"error": f"{type(exc).__name__}: {exc}"}
