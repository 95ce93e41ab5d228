"""Command-line interface.

Subcommands:

* ``eval``    — tabulate x, G, M, B, psi, phi over a grid (CSV or JSON).
* ``verify``  — run the numerical identity suite, JSON report, exit 0/1.
* ``hilbert`` — analyze a node system from a file: separations, bilinear
                form, inequality margins, sharp constant.
* ``search``  — randomized experiments (sharp-constant search or the
                interpolating-majorant sign probe).

The parser is built once, at import, and each ``cmd_*`` reads the parsed
namespace.  Argument errors print argparse's usage line to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage/input error (out
of memory included), 3 numerical failure: a routine could not meet its
tolerance within its budget (``ToleranceNotMetError``) or an arithmetic
check failed.  Reports are deterministic for a fixed seed (no
timestamps).  CSV floats are the shortest text that reads back to the
same double, byte for byte Python's ``repr``, formatted in bulk by
:mod:`extremal._float_text` (imported by ``eval`` alone), every row block
in one reused workspace, and written as bytes.  Seeded draws come from
:mod:`extremal._draws`, the standard library's Mersenne Twister.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import types

import numpy as np

from . import hilbert as hb
from . import integrals
from ._draws import Draws
from .fourier import band_limit_check, g_hat, numeric_ft, psi_hat
from .majorants import (
    _TOL_MAX,
    _TOL_MIN,
    closed_columns,
    kernel_g,
    kernel_h,
    psi_beurling_closed,
    psi_closed,
)
from .quadrature import ToleranceNotMetError, check_tol

_EVAL_COLUMNS = ("x", "G", "M", "B", "psi", "phi")


@contextlib.contextmanager
def _output(path, binary=False):
    """The report stream: stdout, or the file at ``path``; with ``binary``,
    a stream that takes bytes."""
    if path is not None:
        with open(path, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
    elif not binary:
        yield sys.stdout
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text already written goes first
        yield sys.stdout.buffer
    else:  # a text-only stream, such as io.StringIO
        yield types.SimpleNamespace(
            write=lambda text: sys.stdout.write(text.decode("ascii")))


def _emit_json(report, path):
    with _output(path) as fh:
        fh.write(json.dumps(report, indent=2) + "\n")


def _seed(text):
    """``type=`` of ``--seed``: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return seed


# ---------------------------------------------------------------------------
# eval

def _parse_grid(text):
    """``type=`` of ``--grid``: ``A:B:N`` with finite A < B and N >= 2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be A:B:N, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be A:B:N with numeric fields: {exc}"
        )
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise argparse.ArgumentTypeError("grid requires finite A < B")
    if not np.isfinite(b - a):
        raise argparse.ArgumentTypeError("grid span B - A overflows")
    if n < 2:
        raise argparse.ArgumentTypeError("grid requires N >= 2 points")
    return a, b, n


def cmd_eval(args):
    a, b, n = args.grid
    tol = check_tol(args.tol, _TOL_MIN, _TOL_MAX)
    x = np.linspace(a, b, n)

    def table(xs):
        # One table feeds the CSV rows and the JSON columns, in the order
        # of _EVAL_COLUMNS.
        return (xs, *closed_columns(xs))

    if args.format == "csv":
        # Only eval formats floats, so only eval loads the formatter.
        from ._float_text import _ROWS, csv_bytes

        # The closed forms are elementwise, so each row block of the
        # formatter is evaluated, formatted and written on its own: memory
        # holds the grid, one block and the formatter's workspace, whatever
        # the grid size, and the closed forms' temporaries stay small.
        blocks = (table(x[start:start + _ROWS]) for start in range(0, n, _ROWS))
        with _output(args.output, binary=True) as fh:
            fh.write((",".join(_EVAL_COLUMNS) + "\n").encode("ascii"))
            for text in csv_bytes(blocks):
                fh.write(text)
    else:
        report = {
            "command": "eval",
            "grid": {"start": a, "stop": b, "steps": n},
            "tolerance_requested": tol,
            "tolerance_achieved": 5e-14,  # closed forms; see the majorant tests
            "columns": {name: c.tolist()
                        for name, c in zip(_EVAL_COLUMNS, table(x))},
        }
        _emit_json(report, args.output)
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


def cmd_verify(args):
    tol = check_tol(args.tol, 1e-10, 1e-4)
    rng = Draws(args.seed)
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
        lam, coeffs = hb._random_systems(rng, 1, n_nodes)
        ns = hb.compute_deltas(lam[0])
        s = hb.telescoping_sum(ns, coeffs[0], "M")
        ident = hb.telescoping_identity(ns, coeffs[0])
        tele_res = max(tele_res, abs(s - ident))
        tele_min = min(tele_min, s)
    checks.append(_check("telescoping_vs_identity", tele_res, 1e-8))
    checks.append(_check("telescoping_nonnegative", min(tele_min, 0.0), 1e-8))

    xs = np.linspace(-50.0, 50.0, 2001)
    checks.append(
        _check("majorant_M_min_margin", min(np.min(psi_closed(xs)), 0.0), 1e-9)
    )
    checks.append(
        _check("majorant_B_min_margin",
               min(np.min(psi_beurling_closed(xs)), 0.0), 1e-9)
    )
    gneg = kernel_g(xs[xs < 0.0])
    gpos = kernel_g(xs[xs > 0.0])
    sign_violation = max(
        float(max(-np.min(gneg), 0.0)), float(max(np.max(gpos), 0.0))
    )
    checks.append(_check("kernel_sign_pattern", sign_violation, 1e-12))

    report = {
        "command": "verify",
        "seed": args.seed,
        "tol": tol,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    _emit_json(report, args.output)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# hilbert

def _data_lines(path):
    """``(line number, text)`` of each line of ``path`` that holds data once
    a ``#`` comment is stripped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def _read_nodes(path):
    values = []
    for lineno, text in _data_lines(path):
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
    for lineno, text in _data_lines(path):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 're,im', got {text!r}")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: expected 're,im' numbers, got {text!r}"
            )
    return np.asarray(values, dtype=complex)


def cmd_hilbert(args):
    lam = _read_nodes(args.nodes)
    ns = hb.compute_deltas(lam)
    estimate = hb.sharp_constant(ns, tol=args.tol)
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
        },
    }

    if args.coeffs is not None:
        coeffs = _read_coeffs(args.coeffs)
        phi = hb.bilinear_form(ns, coeffs)
        weighted = hb.weighted_norm(ns, coeffs)
        margins = {
            "schur_pi": hb.verify_inequality(ns, coeffs, hb.BOUND_SCHUR),
            "preissmann": hb.verify_inequality(ns, coeffs, hb.BOUND_PREISSMANN),
            "fourier_2pi": hb.verify_inequality(ns, coeffs, hb.BOUND_FOURIER),
        }
        if args.constant is not None:
            margins["user"] = hb.verify_inequality(ns, coeffs, args.constant)
        report["bilinear_form"] = {"re": phi.real, "im": phi.imag}
        report["weighted_sum"] = weighted
        report["margins"] = margins

    _emit_json(report, args.output)
    return 0


# ---------------------------------------------------------------------------
# search

def cmd_search(args):
    if args.mode == "constant":
        report = hb.constant_search(args.n, args.trials, args.seed)
    else:
        report = hb.remark_experiment(args.n, args.trials, args.seed)
    _emit_json(report, args.output)
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
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
        "--grid", required=True, type=_parse_grid, metavar="A:B:N",
        help="N equally spaced points from A to B (N >= 2)",
    )
    p_eval.add_argument("--tol", type=float, default=1e-8)
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.add_argument("-o", "--output", default=None)
    p_eval.set_defaults(run=cmd_eval)

    p_verify = sub.add_parser(
        "verify", help="run the numerical identity suite (JSON report)"
    )
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(run=cmd_verify)

    p_hilbert = sub.add_parser(
        "hilbert", help="analyze a node system: separations, margins, C*"
    )
    p_hilbert.add_argument("--nodes", required=True, metavar="FILE")
    p_hilbert.add_argument("--coeffs", default=None, metavar="FILE")
    p_hilbert.add_argument("--constant", type=float, default=None)
    p_hilbert.add_argument("--tol", type=float, default=1e-10)
    p_hilbert.add_argument("-o", "--output", default=None)
    p_hilbert.set_defaults(run=cmd_hilbert)

    p_search = sub.add_parser(
        "search", help="randomized experiments over node systems"
    )
    p_search.add_argument(
        "--mode", choices=("constant", "remark"), required=True
    )
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--trials", type=int, required=True)
    p_search.add_argument("--seed", type=_seed, default=0)
    p_search.add_argument("-o", "--output", default=None)
    p_search.set_defaults(run=cmd_search)

    return parser


# Built once per process; building it also loads the modules argparse
# imports lazily (locale, shutil), so no command starts with an import.
_PARSER = _build_parser()


def _merge_grid_value(argv):
    """Join ``--grid -5:5:11`` into ``--grid=-5:5:11`` so a leading minus on
    the grid start is not mistaken for an option flag."""
    merged = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--grid":
            tok = "--grid=" + next(tokens, "")
        merged.append(tok)
    return merged


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(_merge_grid_value(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        return args.run(args)
    except (ToleranceNotMetError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
