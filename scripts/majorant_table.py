#!/usr/bin/env python3
"""Emit plot data for the majorants and their deficits, plus summary rows.

Writes the CSV of ``extremal eval`` (columns x, G, M, B, psi, phi) over a
symmetric grid and prints the deficit integrals computed two ways
(adaptive quadrature vs the exact values 2 and 1) as a sanity footer on
stderr.

    python3 scripts/majorant_table.py -o majorants.csv
    python3 scripts/majorant_table.py --half-width 8 --points 4001
"""

import argparse
import sys

from extremal import cli, integrals

MAJORANT_DEFICIT = 2.0   # integral of M - sgn
HEAVISIDE_DEFICIT = 1.0  # integral of G - x_+^0, the Heaviside majorant's deficit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--half-width", type=float, default=5.0)
    ap.add_argument("--points", type=int, default=2001)
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()

    half = args.half_width
    argv = ["eval", f"--grid={-half!r}:{half!r}:{args.points}"]
    if args.output:
        argv += ["-o", args.output]
    code = cli.main(argv)
    if code:
        return code

    res = integrals.integrate_with_tails("psi", 1e-10)
    print(f"# deficit of M: quadrature {res.value:.12f}  exact "
          f"{MAJORANT_DEFICIT}  ({res.evaluations} evals)", file=sys.stderr)
    resb = integrals.integrate_with_tails("G_minus_heaviside", 1e-10)
    print(f"# deficit of G vs Heaviside: quadrature {resb.value:.12f}  exact "
          f"{HEAVISIDE_DEFICIT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
