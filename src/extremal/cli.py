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
of memory and a full disk included), 3 numerical failure: a routine could
not meet its tolerance within its budget (``ToleranceNotMetError``) or an
arithmetic check failed.  Reports are deterministic for a fixed seed (no
timestamps).  ``eval``'s columns, CSV or JSON, are the shortest text that
reads back to the same double, byte for byte Python's ``repr``, formatted
in bulk by :mod:`extremal._float_text` (imported by ``eval`` alone) a row
block at a time in one workspace, and written as bytes.  Seeded draws come
from :mod:`extremal._draws`, the standard library's Mersenne Twister.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import types

import numpy as np

from . import hilbert as hb
from ._draws import Draws
from .fourier import g_hat, numeric_ft, psi_beurling_hat, psi_hat
from .majorants import (
    closed_columns,
    kernel_g,
    kernel_H,
    kernel_h,
    line_integral,
    psi_beurling_closed,
    psi_closed,
)
from .quadrature import ToleranceNotMetError, check_tol

_EVAL_COLUMNS = ("x", "G", "M", "B", "psi", "phi")


@contextlib.contextmanager
def _output(path):
    """The report's byte stream: the file at ``path``, or stdout's buffer."""
    if path is not None:
        with open(path, "wb") as fh:
            yield fh
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text already written goes first
        yield sys.stdout.buffer
    else:  # a text-only stream, such as io.StringIO
        yield types.SimpleNamespace(
            write=lambda text: sys.stdout.write(text.decode("ascii")))


def _emit_json(report, path):
    with _output(path) as fh:
        fh.write((json.dumps(report, indent=2) + "\n").encode("ascii"))


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


def _constant(text):
    """``type=`` of ``hilbert --constant``: a positive finite real."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"constant must be a positive finite real, got {text!r}"
        )
    return value


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


def _grid_blocks(a, b, n, rows):
    """The points of ``np.linspace(a, b, n)``, ``rows`` at a time, each
    block made by linspace's own arithmetic, so the values are the same to
    the bit and the whole grid is never held.  Only the last point's
    (n - 1) * step can overflow, and it is overwritten with ``b``."""
    div = n - 1
    delta = b - a
    step = delta / div
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        x = np.arange(start, stop, dtype=float)
        if step == 0:  # a subnormal span: linspace divides first
            x /= div
            x *= delta
        else:
            with np.errstate(over="ignore"):
                x *= step
        x += a
        if stop == n:
            x[-1] = b
        yield x


def cmd_eval(args):
    a, b, n = args.grid
    tol = check_tol(args.tol, 1e-12, 1e-4)
    from ._float_text import _ROWS, csv_bytes  # eval alone formats floats

    # One table per row block of the grid, in the order of _EVAL_COLUMNS,
    # feeds the CSV rows and the JSON columns alike; the CSV holds one block
    # and its closed-form temporaries at a time, in the formatter's workspace.
    tables = ((x, *closed_columns(x)) for x in _grid_blocks(a, b, n, _ROWS))
    if args.format == "csv":
        with _output(args.output) as fh:
            fh.write((",".join(_EVAL_COLUMNS) + "\n").encode("ascii"))
            for text in csv_bytes(tables):
                fh.write(text)
        return 0
    # JSON lists a column at a time: the table (48 bytes a point) is filled
    # before the stream opens, so a table too large for memory leaves no file.
    columns = np.empty((len(_EVAL_COLUMNS), n))
    for start, table in zip(range(0, n, _ROWS), tables):
        columns[:, start:start + _ROWS] = table
    report = {
        "command": "eval",
        "grid": {"start": a, "stop": b, "steps": n},
        "tolerance_requested": tol,
        "tolerance_achieved": 5e-14,  # closed forms; see the majorant tests
        "columns": dict.fromkeys(_EVAL_COLUMNS, [None]),
    }
    # Each column goes where json put its null, as the formatter's text of
    # a one-column table with json's separators.  It needs no NaN or
    # Infinity spelling: the closed forms are finite at every finite x.
    head, *tails = (json.dumps(report, indent=2) + "\n").split("null")
    with _output(args.output) as fh:
        fh.write(head.encode("ascii"))
        for column, tail in zip(columns, tails):
            sep = b""
            for text in csv_bytes([column[None]]):
                fh.write(sep + text[:-1].replace(b"\n", b",\n      "))
                sep = b",\n      "
            fh.write(tail.encode("ascii"))
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


def _transform_check(name, kind, closed, ts, limit):
    """A closed-form transform against the independent Filon engine."""
    return _check(name, np.max(np.abs(closed(ts) - numeric_ft(kind, ts))), limit)


def cmd_verify(args):
    tol = check_tol(args.tol, 1e-10, 1e-4)
    rng = Draws(args.seed)

    # Each integral once, at one tolerance q: g over the line, psi (which
    # jumps at 0) and H over each half-line.  The integral checks derive
    # from these five values, and each checked value errs by at most q.
    q = min(tol, 1e-9)
    g = line_integral("g", -math.inf, math.inf, q).value
    psi, H = [], []
    for a, b in ((-math.inf, 0.0), (0.0, math.inf)):
        for kind, values in (("psi", psi), ("H", H)):
            values.append(line_integral(kind, a, b, 0.5 * q).value)

    # int g = 1 and the deficit int psi = int (M - sgn) = 2.  Poisson
    # summation: the sum over the integers is exactly 1 for g and H (only
    # n = -1 contributes; every other n is an exact zero of the
    # reduced-argument sinc), as is the integral over the line.  The
    # half-line exchange identities (H = -u g)
    #   int_{-inf}^0 G = int_{-inf}^0 H,  int_0^inf (G - 1) = int_0^inf H
    # integrate G - x_+^0 = psi / 2 (off the origin, since M = 2G - 1).
    lattice = np.arange(-100.0, 101.0)
    checks = [
        _check("integral_g", g - 1.0, min(tol, 1e-8)),
        _check("integral_psi", psi[0] + psi[1] - 2.0, tol),
        _check("poisson_sum_g", math.fsum(kernel_g(lattice)) - 1.0, 1e-14),
        _check("poisson_sum_H", math.fsum(kernel_H(lattice)) - 1.0, 1e-14),
        _check("poisson_integral_H", H[0] + H[1] - 1.0, 1e-8),
        _check("moment_identity_negative_axis", 0.5 * psi[0] - H[0], 1e-8),
        _check("moment_identity_positive_axis", 0.5 * psi[1] - H[1], 1e-8),
    ]

    # The band identity: on |t| >= 1 both deficit transforms are -1/(pi i t).
    band = [1.25, 2.0, 3.5, 5.0, 10.0, -1.25, -2.0]
    checks.append(_transform_check("band_residual_psi", "psi", psi_hat, band, 1e-5))
    checks.append(_transform_check("band_residual_beurling", "psi_beurling",
                                   psi_beurling_hat, band, 1e-5))

    u = rng.uniform(-50.0, 50.0, size=500)
    fact = np.max(np.abs(kernel_g(u) + u * kernel_h(u) ** 2))
    checks.append(_check("kernel_factorization", fact, 1e-12))

    ts = rng.uniform(-1.5, 1.5, size=20)
    checks.append(_transform_check("g_hat_vs_numeric", "g", g_hat, ts, 1e-7))
    ts = rng.uniform(1e-3, 3.0, size=10)
    checks.append(_transform_check("psi_hat_vs_numeric", "psi", psi_hat, ts, 1e-6))
    # Below the band, on both sides of the closed form's branch points:
    # its series under |t| = 0.05 and its reflected cotangent above 1/2.
    inner = [0.0, 0.01, -0.04, 0.05, -0.2, 0.45, 0.55, -0.8, 0.99]
    checks.append(_transform_check("psi_beurling_hat_vs_numeric", "psi_beurling",
                                   psi_beurling_hat, inner, 1e-6))

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
        constants = {
            "schur_pi": hb.BOUND_SCHUR,
            "preissmann": hb.BOUND_PREISSMANN,
            "fourier_2pi": hb.BOUND_FOURIER,
        }
        if args.constant is not None:
            constants["user"] = args.constant
        report["bilinear_form"] = {"re": phi.real, "im": phi.imag}
        report["weighted_sum"] = weighted
        # The margin C * W - |Phi| of each constant: >= 0 where it holds.
        report["margins"] = {
            name: C * weighted - abs(phi) for name, C in constants.items()
        }

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
    p_hilbert.add_argument("--constant", type=_constant, default=None)
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
