"""Command-line interface.

Subcommands:

* ``eval``    — tabulate x, G, M, B, psi, phi over a grid (CSV or JSON).
* ``verify``  — run the numerical identity suite, JSON report, exit 0/1.
* ``hilbert`` — analyze a node system from a file: separations, bilinear
                form, inequality margins, sharp constant.
* ``search``  — randomized experiments (sharp-constant search or the
                interpolating-majorant sign probe).

Exit codes: 0 success, 1 verification failure, 2 usage/input error,
3 numerical budget failure.  Reports are deterministic for a fixed seed
(no timestamps), and CSV floats are written with round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import hilbert as hb
from . import integrals
from .fourier import band_limit_check, g_hat, numeric_ft, psi_hat
from .majorants import (
    G_closed,
    beurling_b,
    kernel_g,
    kernel_h,
    psi_closed,
)
from .quadrature import BudgetExceededError, ToleranceNotMetError

_EVAL_TOL_RANGE = (1e-12, 1e-4)


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation.  Grid steps >= 2 and per-command tolerance
    ranges are enforced where the fields are consumed; everything needed to
    reproduce a run (notably the seed) is carried here and echoed into the
    reports."""

    command: str
    tolerance: float | None = None
    grid: tuple[float, float, int] | None = None
    seed: int = 0
    output_format: str = "csv"
    output_path: str | None = None
    nodes_path: str | None = None
    coeffs_path: str | None = None
    user_constant: float | None = None
    mode: str | None = None
    n_nodes: int | None = None
    trials: int | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output format must be 'csv' or 'json'")
        if self.grid is not None and self.grid[2] < 2:
            raise ValueError("grid requires N >= 2 points")


def _config_from_args(args):
    command = args.command
    if command == "eval":
        return RunConfig(
            command=command,
            tolerance=float(args.tol),
            grid=_parse_grid(args.grid),
            output_format=args.format,
            output_path=args.output,
        )
    if command == "verify":
        return RunConfig(
            command=command,
            tolerance=float(args.tol),
            seed=int(args.seed),
            output_format="json",
            output_path=args.output,
        )
    if command == "hilbert":
        return RunConfig(
            command=command,
            tolerance=float(args.tol),
            output_format="json",
            output_path=args.output,
            nodes_path=args.nodes,
            coeffs_path=args.coeffs,
            user_constant=args.constant,
        )
    return RunConfig(
        command=command,
        seed=int(args.seed),
        output_format="json",
        output_path=args.output,
        mode=args.mode,
        n_nodes=int(args.n),
        trials=int(args.trials),
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="extremal",
        description=(
            "Extremal one-sided band-limited approximations of sgn and "
            "sharp constants for weighted Hilbert-type bilinear forms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="tabulate G, M, B and the deficit functions over a grid"
    )
    p_eval.add_argument(
        "--grid", required=True, metavar="A:B:N",
        help="N equally spaced points from A to B (N >= 2)",
    )
    p_eval.add_argument("--tol", type=float, default=1e-8)
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.add_argument("-o", "--output", default=None)

    p_verify = sub.add_parser(
        "verify", help="run the numerical identity suite (JSON report)"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("-o", "--output", default=None)

    p_hilbert = sub.add_parser(
        "hilbert", help="analyze a node system: separations, margins, C*"
    )
    p_hilbert.add_argument("--nodes", required=True, metavar="FILE")
    p_hilbert.add_argument("--coeffs", default=None, metavar="FILE")
    p_hilbert.add_argument("--constant", type=float, default=None)
    p_hilbert.add_argument("--tol", type=float, default=1e-10)
    p_hilbert.add_argument("-o", "--output", default=None)

    p_search = sub.add_parser(
        "search", help="randomized experiments over node systems"
    )
    p_search.add_argument(
        "--mode", choices=("constant", "remark"), required=True
    )
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--trials", type=int, required=True)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("-o", "--output", default=None)

    return parser


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(report, path):
    _emit(json.dumps(report, indent=2) + "\n", path)


# ---------------------------------------------------------------------------
# eval

def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be A:B:N, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"grid must be A:B:N with numeric fields: {exc}")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError("grid requires finite A < B")
    if n < 2:
        raise ValueError("grid requires N >= 2 points")
    return a, b, n


def cmd_eval(config):
    a, b, n = config.grid
    tol = config.tolerance
    if not (_EVAL_TOL_RANGE[0] <= tol <= _EVAL_TOL_RANGE[1]):
        raise ValueError(
            f"tol must lie in [{_EVAL_TOL_RANGE[0]}, {_EVAL_TOL_RANGE[1]}]"
        )
    x = np.linspace(a, b, n)
    G = G_closed(x)
    M = 2.0 * G - 1.0
    B = beurling_b(x)
    psi = M - np.sign(x)
    phi = psi_closed(-x)
    achieved = 5e-14  # closed-form evaluation; see the majorant test suite

    if config.output_format == "csv":
        lines = ["x,G,M,B,psi,phi"]
        for row in zip(x, G, M, B, psi, phi):
            lines.append(",".join(repr(float(v)) for v in row))
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        report = {
            "command": "eval",
            "grid": {"start": a, "stop": b, "steps": n},
            "tolerance_requested": tol,
            "tolerance_achieved": achieved,
            "columns": {
                "x": [float(v) for v in x],
                "G": [float(v) for v in G],
                "M": [float(v) for v in M],
                "B": [float(v) for v in B],
                "psi": [float(v) for v in psi],
                "phi": [float(v) for v in phi],
            },
        }
        _emit_json(report, config.output_path)
    return 0


# ---------------------------------------------------------------------------
# verify

def _check(name, residual, limit):
    residual = float(abs(residual))
    return {
        "name": name,
        "residual": residual,
        "limit": limit,
        "passed": bool(residual <= limit),
    }


def cmd_verify(config):
    tol = config.tolerance
    if not 1e-10 <= tol <= 1e-4:
        raise ValueError("verify tol must lie in [1e-10, 1e-4]")
    rng = np.random.default_rng(int(config.seed))
    checks = []

    targets = {"g": 1.0, "psi": 2.0, "G_minus_heaviside": 1.0, "H": 1.0}
    for kind in ("g", "psi", "G_minus_heaviside"):
        res = integrals.integrate_with_tails(kind, tol)
        checks.append(
            _check(f"integral_{kind}", res.value - targets[kind], tol)
        )

    for kind in ("g", "H"):
        total, integral = integrals.poisson_check(kind, 100)
        checks.append(_check(f"poisson_sum_{kind}", total - 1.0, 1e-14))
        checks.append(
            _check(f"poisson_integral_{kind}", integral - 1.0, 1e-8)
        )

    moments = integrals.half_line_moments(tol)
    checks.append(
        _check(
            "moment_identity_negative_axis",
            moments["negative_axis_G_integral"] - moments["negative_axis_moment"],
            1e-8,
        )
    )
    checks.append(
        _check(
            "moment_identity_positive_axis",
            moments["positive_axis_G_integral"] - moments["positive_axis_moment"],
            1e-8,
        )
    )

    band_grid = [1.25, 2.0, 3.5, 5.0, 10.0, -1.25, -2.0]
    checks.append(
        _check("band_residual_psi", band_limit_check("psi", band_grid), 1e-5)
    )
    checks.append(
        _check(
            "band_residual_beurling",
            band_limit_check("psi_beurling", band_grid),
            1e-5,
        )
    )

    u = rng.uniform(-50.0, 50.0, size=500)
    fact = np.max(np.abs(kernel_g(u) + u * kernel_h(u) ** 2))
    checks.append(_check("kernel_factorization", fact, 1e-12))

    ts = rng.uniform(-1.5, 1.5, size=20)
    ghat_res = np.max(np.abs(g_hat(ts) - numeric_ft("g", ts)))
    checks.append(_check("g_hat_vs_numeric", ghat_res, 1e-7))

    ts2 = rng.uniform(1e-3, 3.0, size=10)
    psihat_res = np.max(np.abs(psi_hat(ts2) - numeric_ft("psi", ts2)))
    checks.append(_check("psi_hat_vs_numeric", psihat_res, 1e-6))

    tele_res = 0.0
    tele_min = np.inf
    for _ in range(5):
        n_nodes = int(rng.integers(2, 7))
        lam = hb._random_nodes(rng, n_nodes)
        coeffs = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
        ns = hb.compute_deltas(lam)
        s = hb.telescoping_sum(ns, coeffs, "M")
        ident = hb.telescoping_identity(ns, coeffs)
        tele_res = max(tele_res, abs(s - ident))
        tele_min = min(tele_min, s)
    checks.append(_check("telescoping_vs_identity", tele_res, 1e-8))
    checks.append(_check("telescoping_nonnegative", min(tele_min, 0.0), 1e-8))

    xs = np.linspace(-50.0, 50.0, 2001)
    M = 2.0 * G_closed(xs) - 1.0
    B = beurling_b(xs)
    checks.append(
        _check("majorant_M_min_margin", min(np.min(M - np.sign(xs)), 0.0), 1e-9)
    )
    checks.append(
        _check("majorant_B_min_margin", min(np.min(B - np.sign(xs)), 0.0), 1e-9)
    )
    gneg = kernel_g(xs[xs < 0.0])
    gpos = kernel_g(xs[xs > 0.0])
    sign_violation = max(
        float(max(-np.min(gneg), 0.0)), float(max(np.max(gpos), 0.0))
    )
    checks.append(_check("kernel_sign_pattern", sign_violation, 1e-12))

    report = {
        "command": "verify",
        "seed": int(config.seed),
        "tol": tol,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    _emit_json(report, config.output_path)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# hilbert

def _read_nodes(path):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected one real number, got {text!r}"
                )
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 nodes")
    return np.asarray(values)


def _read_coeffs(path):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 're,im', got {text!r}"
                )
            try:
                values.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected 're,im' numbers, got {text!r}"
                )
    return np.asarray(values, dtype=complex)


def cmd_hilbert(config):
    lam = _read_nodes(config.nodes_path)
    ns = hb.compute_deltas(lam)
    estimate = hb.sharp_constant(ns, tol=config.tolerance)
    report = {
        "command": "hilbert",
        "n_nodes": int(len(ns)),
        "lambdas": [float(v) for v in ns.lambdas],
        "deltas": [float(v) for v in ns.deltas],
        "order": [int(v) for v in ns.order],
        "sharp_constant": {
            "value": estimate.constant,
            "iterations": estimate.iterations,
            "residual": estimate.residual,
            "restarts": estimate.restarts,
        },
    }

    if config.coeffs_path is not None:
        coeffs = _read_coeffs(config.coeffs_path)
        phi = hb.bilinear_form(ns, coeffs)
        weighted = hb.weighted_norm(ns, coeffs)
        margins = {
            "schur_pi": hb.verify_inequality(ns, coeffs, hb.BOUND_SCHUR),
            "preissmann": hb.verify_inequality(ns, coeffs, hb.BOUND_PREISSMANN),
            "fourier_2pi": hb.verify_inequality(ns, coeffs, hb.BOUND_FOURIER),
        }
        if config.user_constant is not None:
            margins["user"] = hb.verify_inequality(
                ns, coeffs, config.user_constant
            )
        report["bilinear_form"] = {"re": phi.real, "im": phi.imag}
        report["weighted_sum"] = weighted
        report["margins"] = margins

    _emit_json(report, config.output_path)
    return 0


# ---------------------------------------------------------------------------
# search

def cmd_search(config):
    if config.mode == "constant":
        report = hb.constant_search(config.n_nodes, config.trials, config.seed)
    else:
        report = hb.remark_experiment(config.n_nodes, config.trials, config.seed)
    _emit_json(report, config.output_path)
    return 0


# ---------------------------------------------------------------------------

def _merge_grid_value(argv):
    """Join ``--grid -5:5:11`` into ``--grid=-5:5:11`` so a leading minus on
    the grid start is not mistaken for an option flag."""
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--grid" and i + 1 < len(argv):
            merged.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_grid_value(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    dispatch = {
        "eval": cmd_eval,
        "verify": cmd_verify,
        "hilbert": cmd_hilbert,
        "search": cmd_search,
    }
    try:
        config = _config_from_args(args)
        return dispatch[config.command](config)
    except (BudgetExceededError, ToleranceNotMetError,
            hb.PowerIterationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
